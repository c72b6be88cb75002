package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// testObsBatch builds a batch with the hot path's sparsity flavor:
// mostly zeros with one-hot-ish runs, plus dense noise rows.
func testObsBatch(rng *rand.Rand, rows, cols int) *Mat {
	X := NewMat(rows, cols)
	for r := 0; r < rows; r++ {
		row := X.Row(r)
		if r%3 == 0 {
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			continue
		}
		for j := range row {
			if rng.Float64() < 0.25 {
				row[j] = 1
			}
		}
	}
	return X
}

func mlpForKernels(seed int64) *MLPPolicy {
	return NewMLP(MLPConfig{ObsDim: 64, Actions: 11, Hidden: []int{64, 64}, Seed: seed})
}

// runBatchPass runs one ApplyBatch + GradBatch + Adam step and returns
// the logits, values, and final parameters.
func runBatchPass(net *MLPPolicy, X *Mat) (logits *Mat, values []float64, params [][]float64) {
	logits = NewMat(X.R, net.NumActions())
	values = make([]float64, X.R)
	net.ApplyBatch(X, logits, values)
	dL := NewMat(X.R, net.NumActions())
	dV := make([]float64, X.R)
	for i := range dL.Data {
		dL.Data[i] = math.Sin(float64(i)) * 0.01
	}
	for i := range dV {
		dV[i] = math.Cos(float64(i)) * 0.01
	}
	ZeroGrads(net.Params())
	net.GradBatch(X, dL, dV)
	opt := NewAdam(net.Params(), 1e-2)
	opt.Step()
	for _, p := range net.Params() {
		params = append(params, append([]float64(nil), p.Val...))
	}
	return logits, values, params
}

func bitsEqualSlice(t *testing.T, name string, a, b []float64) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s: bit divergence at %d: %v vs %v", name, i, a[i], b[i])
		}
	}
}

// zeroUnitMLP is the production-shaped net (ObsDim 60, 4 actions,
// [64, 64]) rigged so last-hidden unit 0 is exactly zero on every row
// whose observation feature 0 is zero: feature 0 alone feeds trunk unit
// 0, which alone feeds last-hidden unit 0, all biases zero. Batches of
// testObsBatch then mix zero-free rows with rows holding an exact zero
// hidden activation, the narrow heads' zero-skip fallback.
func zeroUnitMLP(seed int64) *MLPPolicy {
	net := NewMLP(MLPConfig{ObsDim: 60, Actions: 4, Seed: seed})
	for _, l := range net.trunk {
		for i := 0; i < l.In; i++ {
			l.W.Data[i*l.Out] = 0
		}
		l.W.Data[0] = 0.5
		l.B[0] = 0
	}
	return net
}

// TestVectorKernelsMatchPureGo pins the AVX micro-kernels to the
// pure-Go blocked kernels bit-for-bit across a full forward, backward,
// and optimizer step, at the production head widths too.
func TestVectorKernelsMatchPureGo(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	nets := []struct {
		name string
		make func() *MLPPolicy
	}{
		{"obs64-act11", func() *MLPPolicy { return mlpForKernels(9) }},
		{"obs60-act4", func() *MLPPolicy { return NewMLP(MLPConfig{ObsDim: 60, Actions: 4, Seed: 9}) }},
		{"obs60-act5", func() *MLPPolicy { return NewMLP(MLPConfig{ObsDim: 60, Actions: 5, Seed: 9}) }},
		{"obs60-act4-zero-unit", func() *MLPPolicy { return zeroUnitMLP(9) }},
	}
	for _, n := range nets {
		rng := rand.New(rand.NewSource(3))
		X := testObsBatch(rng, 33, n.make().ObsDim())

		vecL, vecV, vecP := runBatchPass(n.make(), X)
		useVecKernels = false
		goL, goV, goP := runBatchPass(n.make(), X)
		useVecKernels = true

		bitsEqualSlice(t, n.name+" logits", vecL.Data, goL.Data)
		bitsEqualSlice(t, n.name+" values", vecV, goV)
		for i := range vecP {
			bitsEqualSlice(t, n.name+" params", vecP[i], goP[i])
		}
	}
}

// TestNarrowBackwardKeepsZeroSkip pins the narrow dW fold to the axpy
// form where skipping a zero input is observable: a -0 accumulator
// stays -0 only if 0·dY is never added, and Inf·0 must not turn an
// untouched element into NaN.
func TestNarrowBackwardKeepsZeroSkip(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	run := func() []float64 {
		l := NewLinear("head", 8, 4, rand.New(rand.NewSource(1)))
		for i := range l.dW.Data {
			l.dW.Data[i] = math.Copysign(0, -1)
		}
		rng := rand.New(rand.NewSource(2))
		X, dY := randBatch(rng, 9, 8), randBatch(rng, 9, 4)
		for r := 0; r < X.R; r++ {
			X.Data[r*8+3] = 0 // column 3 never contributes: dW row 3 stays -0
			if r%2 == 0 {
				X.Data[r*8+r%8] = 0
			}
		}
		dY.Data[2*4+1] = math.Inf(1) // row 2 holds zeros at inputs 2 and 3
		l.BackwardRowsInto(X, dY, nil)
		return l.dW.Data
	}
	vec := run()
	useVecKernels = false
	ref := run()
	useVecKernels = true
	bitsEqualSlice(t, "dW", vec, ref)
}

// TestKernelWorkerCountInvariance pins batched results across kernel
// worker pool sizes: row-partitioned execution must never change a bit.
func TestKernelWorkerCountInvariance(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(5))
	X := testObsBatch(rng, 40, 64)
	var refL *Mat
	var refV, refP []float64
	for _, workers := range []int{1, 2, runtime.NumCPU() + 2} {
		SetKernelWorkers(workers)
		L, V, P := runBatchPass(mlpForKernels(11), X)
		flat := []float64{}
		for _, p := range P {
			flat = append(flat, p...)
		}
		if refL == nil {
			refL, refV, refP = L, V, flat
			continue
		}
		bitsEqualSlice(t, "logits", L.Data, refL.Data)
		bitsEqualSlice(t, "values", V, refV)
		bitsEqualSlice(t, "params", flat, refP)
	}
}

// TestCloneSharedMatchesClone pins the weight-aliased shard clones to
// deep clones: same forward bits, same accumulated gradients.
func TestCloneSharedMatchesClone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	X := testObsBatch(rng, 20, 64)
	master := mlpForKernels(13)

	deep := master.Clone()
	CopyWeights(deep, master)
	shared := master.CloneShared()
	master.SyncSharedScratch() // GradSharer contract before shard passes

	for name, net := range map[string]PolicyValueNet{"deep": deep, "shared": shared} {
		L := NewMat(X.R, net.NumActions())
		V := make([]float64, X.R)
		net.ApplyBatch(X, L, V)
		wantL := NewMat(X.R, master.NumActions())
		wantV := make([]float64, X.R)
		master.ApplyBatch(X, wantL, wantV)
		bitsEqualSlice(t, name+" logits", L.Data, wantL.Data)
		bitsEqualSlice(t, name+" values", V, wantV)
	}

	dL := NewMat(X.R, master.NumActions())
	dV := make([]float64, X.R)
	for i := range dL.Data {
		dL.Data[i] = 0.01
	}
	ZeroGrads(deep.Params())
	deep.GradBatch(X, dL, dV)
	ZeroGrads(shared.Params())
	shared.GradBatch(X, dL, dV)
	dp, sp := deep.Params(), shared.Params()
	for i := range dp {
		bitsEqualSlice(t, "grad "+dp[i].Name, sp[i].Grad, dp[i].Grad)
	}
}

// TestTransformerApplyBatchParallel pins the transformer's row-parallel
// batched forward to per-sample Apply across worker counts.
func TestTransformerApplyBatchParallel(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	cfg := TransformerConfig{Window: 6, Features: 9, Actions: 7, Model: 16, Heads: 2, Seed: 4}
	rng := rand.New(rand.NewSource(21))
	X := testObsBatch(rng, 24, 6*9)
	want := NewMat(X.R, cfg.Actions)
	wantV := make([]float64, X.R)
	ref := NewTransformer(cfg)
	for i := 0; i < X.R; i++ {
		logits, v := ref.Apply(X.Row(i))
		copy(want.Row(i), logits)
		wantV[i] = v
	}
	for _, workers := range []int{1, 3} {
		SetKernelWorkers(workers)
		net := NewTransformer(cfg)
		got := NewMat(X.R, cfg.Actions)
		gotV := make([]float64, X.R)
		net.ApplyBatch(X, got, gotV)
		bitsEqualSlice(t, "logits", got.Data, want.Data)
		bitsEqualSlice(t, "values", gotV, wantV)
	}
}

// TestNestedDispatchDoesNotDeadlock reproduces the fresh-process state
// of a many-core machine — a wide token pool with no workers spawned
// yet — and runs the transformer's row-parallel forward, whose chunks
// nest further kernel dispatches from inside pool workers. parDispatch
// must provision capacity-1 workers (in-flight tasks are token-bounded
// to capacity-1), or the nested waits starve the pool and this test
// hangs.
func TestNestedDispatchDoesNotDeadlock(t *testing.T) {
	defer SetKernelWorkers(runtime.GOMAXPROCS(0))
	// Widen the token pool WITHOUT SetKernelWorkers, which would
	// pre-spawn workers and mask the bug.
	compute.mu.Lock()
	compute.cap = 16
	compute.mu.Unlock()
	cfg := TransformerConfig{Window: 16, Features: 8, Actions: 5, Model: 64, FF: 256, Heads: 4, Seed: 2}
	net := NewTransformer(cfg)
	rng := rand.New(rand.NewSource(33))
	X := testObsBatch(rng, 32, cfg.Window*cfg.Features)
	want := NewMat(X.R, cfg.Actions)
	wantV := make([]float64, X.R)
	for i := 0; i < X.R; i++ {
		logits, v := net.Apply(X.Row(i))
		copy(want.Row(i), logits)
		wantV[i] = v
	}
	got := NewMat(X.R, cfg.Actions)
	gotV := make([]float64, X.R)
	for pass := 0; pass < 4; pass++ {
		net.ApplyBatch(X, got, gotV)
		bitsEqualSlice(t, "logits", got.Data, want.Data)
		bitsEqualSlice(t, "values", gotV, wantV)
	}
}

// TestAdamVectorMatchesScalar pins the vectorized Adam update to the
// scalar loop on awkward lengths (tails, non-multiples of 4).
func TestAdamVectorMatchesScalar(t *testing.T) {
	if !useVecKernels {
		t.Skip("no vector kernels on this machine")
	}
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1, 3, 4, 7, 64, 130} {
		val := make([]float64, n)
		grad := make([]float64, n)
		m := make([]float64, n)
		v := make([]float64, n)
		for i := 0; i < n; i++ {
			val[i], grad[i] = rng.NormFloat64(), rng.NormFloat64()
			m[i], v[i] = rng.NormFloat64(), math.Abs(rng.NormFloat64())
		}
		val2 := append([]float64(nil), val...)
		grad2 := append([]float64(nil), grad...)
		m2 := append([]float64(nil), m...)
		v2 := append([]float64(nil), v...)

		adamUpdate(val, grad, m, v, 0.9, 0.999, 0.3, 0.2, 1e-3, 1e-8)
		useVecKernels = false
		adamUpdate(val2, grad2, m2, v2, 0.9, 0.999, 0.3, 0.2, 1e-3, 1e-8)
		useVecKernels = true

		bitsEqualSlice(t, "val", val, val2)
		bitsEqualSlice(t, "m", m, m2)
		bitsEqualSlice(t, "v", v, v2)
	}
}

// tanhInputs collects the inputs TanhInto must reproduce bit-for-bit:
// special values, subnormals, the 0.625 branch bound and the
// saturation bound with their neighbours, random bit patterns, and
// normal draws at trunk pre-activation scales.
func tanhInputs() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 44.02, -44.02,
	}
	for _, b := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01, 1} {
		for _, v := range []float64{b, math.Nextafter(b, 0), math.Nextafter(b, math.Inf(1))} {
			xs = append(xs, v, -v)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 1<<20; i++ {
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	for _, scale := range []float64{0.3, 1, 3} {
		for i := 0; i < 1<<14; i++ {
			xs = append(xs, scale*rng.NormFloat64())
		}
	}
	return xs
}

func checkTanhInto(t *testing.T, xs []float64) {
	t.Helper()
	want := make([]float64, len(xs))
	for i, v := range xs {
		want[i] = math.Tanh(v)
	}
	Y := NewMat(1, len(xs))
	TanhInto(&Mat{R: 1, C: len(xs), Data: xs}, Y)
	bitsEqualSlice(t, "tanh", Y.Data, want)
	// Every length 0–9 at every offset of the special values, so the
	// tail loop and partially flagged blocks run.
	for n := 0; n <= 9; n++ {
		for off := 0; off+n <= 40; off++ {
			y := make([]float64, n)
			TanhInto(&Mat{R: 1, C: n, Data: xs[off : off+n]}, &Mat{R: 1, C: n, Data: y})
			bitsEqualSlice(t, "tanh short", y, want[off:off+n])
		}
	}
	inPlace := append([]float64(nil), xs...)
	M := &Mat{R: 1, C: len(inPlace), Data: inPlace}
	TanhInto(M, M)
	bitsEqualSlice(t, "tanh in place", inPlace, want)
}

// TestTanhIntoMatchesMathTanh pins TanhInto to math.Tanh bit-for-bit,
// on the vector kernel and on the pure-Go path.
func TestTanhIntoMatchesMathTanh(t *testing.T) {
	xs := tanhInputs()
	checkTanhInto(t, xs)
	if !useVecKernels {
		return
	}
	useVecKernels = false
	defer func() { useVecKernels = true }()
	checkTanhInto(t, xs)
}
