#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload rl-first-reliable --seed 1 --seconds 36 --trace 0

The Go toolchain builds perfbench/ (a module of its own that replaces
`autocat` with the repository root) into .bench_build/, with the build
cache and temporary files kept there too, then runs the binary from the
repository root. The binary's last output line is the JSON result.

`--overhead` runs the workload untraced and then traced with the same
seed and prints the tracing overhead on the workload's headline metric.
"""

import argparse
import json
import os
import subprocess
import sys

# Each workload's headline in ms, from its untraced metrics; the traced
# run reports the same quantity as trace.headline_ms.
HEADLINE = {
    "rl-first-reliable": lambda m: m["time_to_first_reliable_s"]["value"] * 1e3,
    "search-campaign": lambda m: 1e3 / m["jobs_per_s"]["value"],
    "serve-mixed": lambda m: m["latency_ms_p90"]["value"],
}


def build(root):
    out = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOMODCACHE=os.path.join(out, "gomod"),
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(out, "perfbench")
    subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=os.path.join(root, "perfbench"),
        env=env,
        check=True,
        stdout=sys.stderr,
    )
    return binary


def run(binary, root, args, trace):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True)
    sys.stderr.write(proc.stdout)
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    lines = proc.stdout.strip().splitlines()
    return lines[-1]


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(HEADLINE))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--overhead", action="store_true",
                   help="run untraced, then traced, and report the tracing overhead")
    args = p.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        binary = build(root)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    if not args.overhead:
        print(run(binary, root, args, args.trace))
        return 0
    plain = HEADLINE[args.workload](json.loads(run(binary, root, args, 0))["metrics"])
    traced = json.loads(run(binary, root, args, 1))["metrics"]["trace.headline_ms"]["value"]
    print(json.dumps({"workload": args.workload, "untraced_ms": plain, "traced_ms": traced,
                      "overhead_ms": traced - plain, "overhead_share": (traced - plain) / plain}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
