// Command perfbench is the repository benchmark: it drives one named
// workload through autocat's public entry points, checks the outputs,
// and prints every metric as one JSON line (see README.md).
//
//	go run . --workload rl-first-reliable --seed 1 --seconds 36 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same workload runs with spans recorded around the calls
// into each layer, and the result carries the per-layer metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"autocat"
)

// workload runs one benchmark workload. It returns the run's outcome;
// an error means the run could not be carried out at all.
type workload func(ctx context.Context, o opts) (*outcome, error)

var workloads = map[string]workload{
	"rl-first-reliable": runRL,
	"search-campaign":   runSearch,
	"serve-mixed":       runServe,
}

// opts are the benchmark's inputs for one run.
type opts struct {
	seed    int64
	seconds int
	// work is a private scratch directory (checkpoints, journals,
	// artifacts); it is removed when the run ends.
	work string
	// tr records spans when trace is on; nil otherwise.
	tr *tracer
}

// nproc is the load bound shared by every workload: campaign workers,
// open streams and the service's campaign cap never exceed it.
var nproc = runtime.NumCPU()

// endToEnd lists the end-to-end metrics in print order; every workload
// reports each of them (README.md gives the per-workload definitions).
var endToEnd = []struct{ name, unit string }{
	{"time_to_first_reliable_s", "s"},
	{"steps_to_first_reliable", "count"},
	{"jobs_per_s", "1/s"},
	{"attacks_found", "count"},
	{"catalog_size", "count"},
	{"goodput_rps", "1/s"},
	{"latency_ms_p50", "ms"},
	{"latency_ms_p90", "ms"},
	{"admitted_share", "ratio"},
	{"success_share", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the per-layer metrics of the traced run in print
// order; a layer a workload does not exercise reports 0.
var perLayer = []struct{ name, unit string }{
	{"nn.apply_batch_busy_ms", "ms"},
	{"nn.apply_batch_rows", "count"},
	{"nn.apply_ns_per_row", "ns"},
	{"nn.grad_batch_busy_ms", "ms"},
	{"nn.grad_batch_rows", "count"},
	{"nn.grad_ns_per_row", "ns"},
	{"rl.epochs", "count"},
	{"rl.epoch_ms_p50", "ms"},
	{"rl.epoch_ms_p90", "ms"},
	{"rl.epoch_self_ms", "ms"},
	{"rl.eval_ms", "ms"},
	{"rl.extract_ms", "ms"},
	{"sched.token_wait_ms", "ms"},
	{"sched.extra_denials", "count"},
	{"core.setup_ms", "ms"},
	{"cache.accesses", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.rekeys", "count"},
	{"env.steps", "count"},
	{"env.ns_per_step", "ns"},
	{"env.useless_share", "ratio"},
	{"search.explore_ms_p50", "ms"},
	{"search.explore_ms_p90", "ms"},
	{"search.candidates", "count"},
	{"search.candidates_per_s", "1/s"},
	{"search.found_share", "ratio"},
	{"search.walker_share", "ratio"},
	{"campaign.job_ms_p50", "ms"},
	{"campaign.job_ms_p90", "ms"},
	{"campaign.self_ms", "ms"},
	{"campaign.checkpoint_bytes", "bytes"},
	{"campaign.journal_events", "count"},
	{"campaign.artifacts", "count"},
	{"catalog.novel_ratio", "ratio"},
	{"serve.admit_ms_p50", "ms"},
	{"serve.admit_ms_p90", "ms"},
	{"serve.first_job_ms_p50", "ms"},
	{"serve.dedup_share", "ratio"},
	{"serve.repeat_share", "ratio"},
	{"serve.generator_lag_ms_max", "ms"},
	{"trace.headline_ms", "ms"},
	{"trace.wall_ms", "ms"},
	{"trace.unaccounted_ms", "ms"},
	{"trace.spans", "count"},
}

// outcome is what a workload hands back: its attempt and failure
// counts, the failed output checks, and its metric values with their
// sample counts.
type outcome struct {
	attempted, failed int
	checks            []string // failed output checks; empty when correct
	notes             []string // per-unit lines printed above the table
	values            map[string]float64
	samples           map[string]int
}

func newOutcome() *outcome {
	return &outcome{values: map[string]float64{}, samples: map[string]int{}}
}

// set records one metric value computed from n samples.
func (o *outcome) set(name string, v float64, n int) {
	o.values[name] = v
	o.samples[name] = n
}

// note records a line for the human-readable report.
func (o *outcome) note(format string, a ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, a...))
}

// fail records a failed output check.
func (o *outcome) fail(format string, a ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, a...))
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: rl-first-reliable, search-campaign or serve-mixed")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Int("seconds", 36, "measured run length the workload is sized for")
	trace := flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
	flag.Parse()
	if err := run(os.Stdout, *name, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, name string, seed int64, seconds int, trace bool) error {
	workload, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	if seed < 0 {
		return fmt.Errorf("--seed must not be negative")
	}
	root := filepath.Join(".bench_build", "runs")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return err
	}
	work, err := os.MkdirTemp(root, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	o := opts{seed: seed, seconds: seconds, work: work}
	if trace {
		o.tr = newTracer()
	}
	out, err := workload(context.Background(), o)
	if err != nil {
		return err
	}
	if trace {
		out.set("trace.spans", float64(o.tr.len()), 1)
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, seed))
		if err := o.tr.write(path); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintln(os.Stderr, "spans written to", path)
	}
	return report(w, out, trace)
}

// report prints the human-readable table (metric, value, unit, sample
// count, then any failed checks) and the final JSON result line.
func report(f io.Writer, out *outcome, trace bool) error {
	list := endToEnd
	if trace {
		list = perLayer
	}
	res := resultJSON{
		Correct:   len(out.checks) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, n := range out.notes {
		fmt.Fprintln(f, n)
	}
	tw := tabwriter.NewWriter(f, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tsamples")
	for _, m := range list {
		v := out.values[m.name]
		res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\n", m.name, strconv.FormatFloat(v, 'g', 8, 64), m.unit, out.samples[m.name])
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for _, c := range out.checks {
		fmt.Fprintln(f, "CHECK FAILED:", c)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(f, string(line))
	return err
}

// rssSampler polls the process's resident set size while a measured
// section runs. peak_rss_mb is the 99th percentile of the samples: the
// Go heap overshoots its goal for a few milliseconds under bursts of
// allocation, and whether a sample lands on such a spike is chance.
type rssSampler struct {
	stop, done chan struct{}
	samples    []float64 // MB
}

// rssInterval is the sampling period of rssSampler.
const rssInterval = 10 * time.Millisecond

// startRSS collects garbage left by set-up, so every run starts the
// measured section from the same heap, and starts sampling.
func startRSS() *rssSampler {
	runtime.GC()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssInterval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return
	}
	s.samples = append(s.samples, float64(pages*int64(os.Getpagesize()))/(1<<20))
}

// finish stops sampling and records peak_rss_mb.
func (s *rssSampler) finish(out *outcome) {
	close(s.stop)
	<-s.done
	out.set("peak_rss_mb", quantile(s.samples, 0.99), len(s.samples))
}

// medianSetup runs setup reps times and returns the median duration in
// seconds; setup_s is reported this way so one slow repetition cannot
// move it. The teardown setup returns, when not nil, runs untimed.
func medianSetup(reps int, setup func() (teardown func() error, err error)) (float64, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		teardown, err := setup()
		d := time.Since(t0)
		if err != nil {
			return 0, err
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
		ds = append(ds, d.Seconds())
	}
	return quantile(ds, 0.5), nil
}

// metricsDelta is the change in the process-wide metrics registry over
// one measured section.
type metricsDelta struct{ a, b autocat.MetricsSnapshot }

func (d metricsDelta) counter(name string) float64 {
	return float64(d.b.Counters[name] - d.a.Counters[name])
}

func (d metricsDelta) histSumMS(name string) float64 {
	return float64(d.b.Histograms[name].Sum-d.a.Histograms[name].Sum) / 1e6
}

// setLayerCounters fills the cache, env and sched metrics from the
// registry delta of the measured section.
func setLayerCounters(out *outcome, d metricsDelta) {
	acc := d.counter("cache.accesses_total")
	out.set("cache.accesses", acc, 1)
	out.set("cache.hit_ratio", ratio(d.counter("cache.hits_total"), acc), 1)
	out.set("cache.rekeys", d.counter("cache.rekeys_total"), 1)
	steps := d.counter("env.steps_total")
	out.set("env.steps", steps, 1)
	useless := d.counter("env.noop_accesses_total") + d.counter("env.redundant_flushes_total") +
		d.counter("env.wasted_triggers_total")
	out.set("env.useless_share", ratio(useless, steps), 1)
	out.set("sched.token_wait_ms", d.histSumMS("sched.token_wait_ns"), int(d.counter("sched.token_waits_total")))
	out.set("sched.extra_denials", d.counter("sched.extra_token_denials_total"), 1)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
