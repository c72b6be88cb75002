package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at its smallest size, untraced and
// traced, and checks that the result line names every metric with its
// unit and that the output checks passed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a policy; skipped in -short mode")
	}
	t.Chdir(t.TempDir())
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			var buf bytes.Buffer
			if err := run(&buf, name, 1, 1, trace); err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, buf.String())
			}
			want := endToEnd
			if trace {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.name]
				if !ok || got.Unit != m.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", name, trace, m.name, got, m.unit)
				}
				if !trace && got.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", name, m.name)
				}
			}
		}
	}
}

// TestTracingKeepsLearning checks that the traced network wrapper
// changes nothing the trainer computes: one training reaches its first
// reliable attack after the same number of steps either way.
func TestTracingKeepsLearning(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a policy; skipped in -short mode")
	}
	plain, err := train(opts{}, rlScenarios[0], rlSuite[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := train(opts{tr: newTracer()}, rlScenarios[0], rlSuite[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.ok() || plain.steps != traced.steps {
		t.Fatalf("untraced: ok=%v %d steps; traced: ok=%v %d steps", plain.ok(), plain.steps, traced.ok(), traced.steps)
	}
}

// TestCrossCheckHotpath trains pp-onebit on the suite seeds 101, 202
// and 303 and checks that the steps sum to the plain_steps recorded for
// pp-onebit in BENCH_hotpath.json: the loop built from facade calls
// trains exactly what exp.FirstReliable trains.
func TestCrossCheckHotpath(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three policies; skipped in -short mode")
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCH_hotpath.json"))
	if err != nil {
		t.Fatal(err)
	}
	var hot struct {
		Current struct {
			FirstReliable []struct {
				Scenario   string `json:"scenario"`
				PlainSteps int    `json:"plain_steps"`
			} `json:"first_reliable"`
		} `json:"current"`
	}
	if err := json.Unmarshal(b, &hot); err != nil {
		t.Fatal(err)
	}
	want := -1
	for _, r := range hot.Current.FirstReliable {
		if r.Scenario == rlScenarios[0].name {
			want = r.PlainSteps
		}
	}
	if want < 0 {
		t.Fatalf("BENCH_hotpath.json has no %s row", rlScenarios[0].name)
	}
	got := 0
	for r := range rlSuite {
		tr, err := train(opts{}, rlScenarios[0], rlSuite[r], r)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.ok() {
			t.Fatalf("seed %d: no reliable attack", tr.seed)
		}
		got += tr.steps
	}
	if got != want {
		t.Fatalf("pp-onebit steps on seeds 101/202/303 = %d, BENCH_hotpath.json records %d", got, want)
	}
}
