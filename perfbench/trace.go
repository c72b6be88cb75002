package main

import (
	"bufio"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"autocat"
)

// span is one recorded interval at a layer boundary. Times are
// nanoseconds since the tracer started. Req groups the spans of one
// unit of work (a training, a campaign job, a service request); Parent
// is the ID of the span that caused this one, -1 for none.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory; they are written out when the run ends
// so recording never touches the disk inside a measured section.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its index for end.
func (t *tracer) begin(name string, req, parent int) int {
	start := t.now()
	return t.record(span{Name: name, Req: req, Parent: parent, Start: start})
}

// end closes span i, recording the rows it processed.
func (t *tracer) end(i, rows int) {
	end := t.now()
	t.mu.Lock()
	t.spans[i].End = end
	t.spans[i].Rows = rows
	t.mu.Unlock()
}

// record adds a span and returns its ID.
func (t *tracer) record(s span) int {
	t.mu.Lock()
	s.ID = len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// named returns a copy of the spans with the given name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gradSharer mirrors the optional interface the PPO trainer uses to
// hand its gradient shards weight-aliased clones of the network.
type gradSharer interface {
	CloneShared() autocat.PolicyValueNet
	SyncSharedScratch()
}

// tracedNet delegates to a policy network and records an nn span
// around every batched forward and backward pass. Its clones are traced
// too, so the trainer's shard workers are covered.
type tracedNet struct {
	autocat.PolicyValueNet
	tr     *tracer
	req    int
	parent *atomic.Int64 // the enclosing rl span
}

func (n *tracedNet) wrap(inner autocat.PolicyValueNet) *tracedNet {
	return &tracedNet{PolicyValueNet: inner, tr: n.tr, req: n.req, parent: n.parent}
}

func (n *tracedNet) ApplyBatch(X, logits *autocat.Mat, values []float64) {
	i := n.tr.begin("nn.apply_batch", n.req, int(n.parent.Load()))
	n.PolicyValueNet.ApplyBatch(X, logits, values)
	n.tr.end(i, X.R)
}

func (n *tracedNet) GradBatch(X, dLogits *autocat.Mat, dValues []float64) {
	i := n.tr.begin("nn.grad_batch", n.req, int(n.parent.Load()))
	n.PolicyValueNet.GradBatch(X, dLogits, dValues)
	n.tr.end(i, X.R)
}

func (n *tracedNet) Clone() autocat.PolicyValueNet { return n.wrap(n.PolicyValueNet.Clone()) }

func (n *tracedNet) CloneShared() autocat.PolicyValueNet {
	return n.wrap(n.PolicyValueNet.(gradSharer).CloneShared())
}

func (n *tracedNet) SyncSharedScratch() { n.PolicyValueNet.(gradSharer).SyncSharedScratch() }

// covered returns how much of [lo, hi) the union of spans covers, in
// nanoseconds. Spans from concurrent workers overlap; each instant
// counts once.
func covered(spans []span, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := max(s.Start, lo), min(s.End, hi)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	for i, v := range ivs {
		if i == 0 || v.a > curB {
			total += curB - curA
			curA, curB = v.a, v.b
		} else if v.b > curB {
			curB = v.b
		}
	}
	return total + curB - curA
}

// busy sums span durations in milliseconds and rows processed.
func busy(spans []span) (ms float64, rows int) {
	for _, s := range spans {
		ms += s.ms()
		rows += s.Rows
	}
	return ms, rows
}

func durationsMS(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.ms()
	}
	return out
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
