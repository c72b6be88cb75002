package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatMulShapesAndValues(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})  // 3x2
	b := FromRows([][]float64{{7, 8, 9}, {10, 11, 12}}) // 2x3
	c := MatMul(a, b)                                   // 3x3
	want := [][]float64{{27, 30, 33}, {61, 68, 75}, {95, 106, 117}}
	for i := range want {
		for j := range want[i] {
			if c.At(i, j) != want[i][j] {
				t.Fatalf("c[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewMat(4, 3)
	b := NewMat(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.NormFloat64()
	}
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	// MatMulATB(a, b) == aᵀ·b.
	at := NewMat(3, 4)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := MatMul(at, b)
	got := MatMulATB(a, b)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("MatMulATB mismatch")
		}
	}
	// MatMulABT(x, y) == x·yᵀ.
	x := NewMat(2, 3)
	y := NewMat(5, 3)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	for i := range y.Data {
		y.Data[i] = rng.NormFloat64()
	}
	yt := NewMat(3, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 3; j++ {
			yt.Set(j, i, y.At(i, j))
		}
	}
	want = MatMul(x, yt)
	got = MatMulABT(x, y)
	for i := range want.Data {
		if math.Abs(want.Data[i]-got.Data[i]) > 1e-12 {
			t.Fatal("MatMulABT mismatch")
		}
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(a, b, c float64) bool {
		// Bound inputs to avoid quick's infinities.
		logits := []float64{math.Mod(a, 50), math.Mod(b, 50), math.Mod(c, 50)}
		p := Softmax(logits)
		sum := 0.0
		for _, v := range p {
			if v < 0 || v > 1 || math.IsNaN(v) {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLogSoftmaxConsistency(t *testing.T) {
	logits := []float64{1.5, -2, 0.25, 7}
	p := Softmax(logits)
	lp := LogSoftmax(logits)
	for i := range p {
		if math.Abs(math.Log(p[i])-lp[i]) > 1e-9 {
			t.Fatalf("log softmax inconsistent at %d", i)
		}
	}
}

func TestEntropyBounds(t *testing.T) {
	uniform := []float64{0.25, 0.25, 0.25, 0.25}
	if h := Entropy(uniform); math.Abs(h-math.Log(4)) > 1e-9 {
		t.Fatalf("uniform entropy = %v, want ln4", h)
	}
	if h := Entropy([]float64{1, 0, 0, 0}); h != 0 {
		t.Fatalf("deterministic entropy = %v, want 0", h)
	}
}

func TestSampleCategoricalDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := []float64{0.7, 0.2, 0.1}
	counts := make([]int, 3)
	for i := 0; i < 10000; i++ {
		counts[SampleCategorical(p, rng)]++
	}
	if counts[0] < 6500 || counts[0] > 7500 {
		t.Fatalf("p=0.7 sampled %d/10000", counts[0])
	}
	if counts[2] > 1500 {
		t.Fatalf("p=0.1 sampled %d/10000", counts[2])
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 5, 3}) != 1 {
		t.Fatal("argmax wrong")
	}
	if Argmax([]float64{2, 2, 1}) != 0 {
		t.Fatal("argmax tie should pick lowest index")
	}
}

// scalarLoss is a deterministic scalar function of (logits, value) used for
// finite-difference gradient checking: L = Σ cᵢ·logitᵢ + 0.5·value².
func scalarLoss(logits []float64, value float64) float64 {
	l := 0.0
	for i, v := range logits {
		l += float64(i+1) * 0.3 * v
	}
	return l + 0.5*value*value
}

// dScalarLoss returns the analytic upstream gradients of scalarLoss.
func dScalarLoss(logits []float64, value float64) ([]float64, float64) {
	d := make([]float64, len(logits))
	for i := range d {
		d[i] = float64(i+1) * 0.3
	}
	return d, value
}

// gradCheck verifies Grad against central finite differences on every
// parameter of the network.
func gradCheck(t *testing.T, net PolicyValueNet, obs []float64, tol float64) {
	t.Helper()
	ZeroGrads(net.Params())
	logits, value := net.Apply(obs)
	dl, dv := dScalarLoss(logits, value)
	net.Grad(obs, dl, dv)

	const eps = 1e-5
	checked := 0
	for _, p := range net.Params() {
		stride := len(p.Val)/5 + 1 // spot-check a subset of each tensor
		for j := 0; j < len(p.Val); j += stride {
			orig := p.Val[j]
			p.Val[j] = orig + eps
			l1, v1 := net.Apply(obs)
			p.Val[j] = orig - eps
			l2, v2 := net.Apply(obs)
			p.Val[j] = orig
			num := (scalarLoss(l1, v1) - scalarLoss(l2, v2)) / (2 * eps)
			ana := p.Grad[j]
			scale := math.Max(1, math.Max(math.Abs(num), math.Abs(ana)))
			if math.Abs(num-ana)/scale > tol {
				t.Fatalf("%s[%d]: numeric %v vs analytic %v", p.Name, j, num, ana)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("grad check exercised no parameters")
	}
}

func TestMLPGradCheck(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 7, Actions: 5, Hidden: []int{8, 6}, Seed: 3})
	rng := rand.New(rand.NewSource(4))
	obs := make([]float64, 7)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	gradCheck(t, net, obs, 1e-5)
}

func TestTransformerGradCheck(t *testing.T) {
	net := NewTransformer(TransformerConfig{
		Window: 5, Features: 6, Actions: 4, Model: 8, Heads: 2, FF: 12, Seed: 5,
	})
	rng := rand.New(rand.NewSource(6))
	obs := make([]float64, net.ObsDim())
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	gradCheck(t, net, obs, 1e-4)
}

func TestLayerNormGradCheck(t *testing.T) {
	// Standalone finite-difference check of LayerNorm input gradients.
	ln := NewLayerNorm("t", 6)
	rng := rand.New(rand.NewSource(7))
	X := NewMat(3, 6)
	for i := range X.Data {
		X.Data[i] = rng.NormFloat64() * 2
	}
	loss := func(X *Mat) float64 {
		Y, _ := ln.Forward(X)
		s := 0.0
		for i, v := range Y.Data {
			s += float64(i%4) * 0.1 * v
		}
		return s
	}
	Y, c := ln.Forward(X)
	dY := NewMat(3, 6)
	for i := range dY.Data {
		dY.Data[i] = float64(i%4) * 0.1
	}
	_ = Y
	dX := ln.Backward(c, dY)
	const eps = 1e-6
	for j := 0; j < len(X.Data); j += 3 {
		orig := X.Data[j]
		X.Data[j] = orig + eps
		l1 := loss(X)
		X.Data[j] = orig - eps
		l2 := loss(X)
		X.Data[j] = orig
		num := (l1 - l2) / (2 * eps)
		if math.Abs(num-dX.Data[j]) > 1e-5 {
			t.Fatalf("layernorm dX[%d]: numeric %v vs analytic %v", j, num, dX.Data[j])
		}
	}
}

// batchNets builds one MLP and one Transformer sized for the batch
// equivalence tests.
func batchNets() []PolicyValueNet {
	return []PolicyValueNet{
		NewMLP(MLPConfig{ObsDim: 12, Actions: 5, Hidden: []int{10, 8}, Seed: 11}),
		// Production shapes: the default [64, 64] trunk with the 4- and
		// 5-wide policy heads of the one-bit and shared-flush scenarios.
		NewMLP(MLPConfig{ObsDim: 60, Actions: 4, Seed: 11}),
		NewMLP(MLPConfig{ObsDim: 60, Actions: 5, Seed: 11}),
		NewTransformer(TransformerConfig{Window: 4, Features: 3, Actions: 5, Model: 8, Heads: 2, FF: 12, Seed: 11}),
	}
}

func randBatch(rng *rand.Rand, rows, dim int) *Mat {
	X := NewMat(rows, dim)
	for i := range X.Data {
		X.Data[i] = rng.NormFloat64()
	}
	return X
}

// ApplyBatch must reproduce per-sample Apply bit-for-bit, row by row.
func TestApplyBatchMatchesApply(t *testing.T) {
	for _, net := range batchNets() {
		rng := rand.New(rand.NewSource(21))
		X := randBatch(rng, 7, net.ObsDim())
		logits := NewMat(7, net.NumActions())
		values := make([]float64, 7)
		net.ApplyBatch(X, logits, values)
		for i := 0; i < X.R; i++ {
			l, v := net.Apply(X.Row(i))
			if v != values[i] {
				t.Fatalf("row %d value: batch %v vs single %v", i, values[i], v)
			}
			for j := range l {
				if l[j] != logits.At(i, j) {
					t.Fatalf("row %d logit %d: batch %v vs single %v", i, j, logits.At(i, j), l[j])
				}
			}
		}
	}
}

// GradBatch must reproduce the sequence of per-sample Grad calls
// bit-for-bit — the property the golden-trace training test relies on.
func TestGradBatchMatchesPerSampleGrad(t *testing.T) {
	for _, batched := range batchNets() {
		single := batched.Clone()
		rng := rand.New(rand.NewSource(22))
		const rows = 6
		X := randBatch(rng, rows, batched.ObsDim())
		dL := randBatch(rng, rows, batched.NumActions())
		dV := make([]float64, rows)
		for i := range dV {
			dV[i] = rng.NormFloat64()
		}
		ZeroGrads(batched.Params())
		ZeroGrads(single.Params())
		batched.GradBatch(X, dL, dV)
		for i := 0; i < rows; i++ {
			single.Grad(X.Row(i), dL.Row(i), dV[i])
		}
		bp, sp := batched.Params(), single.Params()
		for p := range bp {
			for j := range bp[p].Grad {
				if bp[p].Grad[j] != sp[p].Grad[j] {
					t.Fatalf("param %s grad[%d]: batch %v vs per-sample %v",
						bp[p].Name, j, bp[p].Grad[j], sp[p].Grad[j])
				}
			}
		}
	}
}

// allocNetShapes are the MLP shapes the zero-alloc guards run: a wide
// observation with 11 actions and the production head widths.
var allocNetShapes = []struct{ obs, acts int }{{272, 11}, {60, 4}, {60, 5}}

// The batched MLP forward must not allocate once its scratch is warm.
func TestMLPApplyBatchZeroAllocs(t *testing.T) {
	for _, sh := range allocNetShapes {
		net := NewMLP(MLPConfig{ObsDim: sh.obs, Actions: sh.acts, Seed: 1})
		rng := rand.New(rand.NewSource(23))
		X := randBatch(rng, 32, sh.obs)
		logits := NewMat(32, sh.acts)
		values := make([]float64, 32)
		net.ApplyBatch(X, logits, values) // warm scratch
		avg := testing.AllocsPerRun(200, func() {
			net.ApplyBatch(X, logits, values)
		})
		if avg != 0 {
			t.Fatalf("%dx%d: ApplyBatch allocates %.2f objects per call in steady state, want 0", sh.obs, sh.acts, avg)
		}
	}
}

// The batched MLP backward must not allocate either.
func TestMLPGradBatchZeroAllocs(t *testing.T) {
	for _, sh := range allocNetShapes {
		net := NewMLP(MLPConfig{ObsDim: sh.obs, Actions: sh.acts, Seed: 1})
		rng := rand.New(rand.NewSource(24))
		X := randBatch(rng, 32, sh.obs)
		dL := randBatch(rng, 32, sh.acts)
		dV := make([]float64, 32)
		net.GradBatch(X, dL, dV) // warm scratch
		avg := testing.AllocsPerRun(100, func() {
			net.GradBatch(X, dL, dV)
		})
		if avg != 0 {
			t.Fatalf("%dx%d: GradBatch allocates %.2f objects per call in steady state, want 0", sh.obs, sh.acts, avg)
		}
	}
}

func TestApplyIsPureAndConcurrencySafe(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 4, Actions: 3, Hidden: []int{5}, Seed: 8})
	obs := []float64{0.1, -0.2, 0.3, 0.4}
	l1, v1 := net.Apply(obs)
	done := make(chan struct{})
	for w := 0; w < 8; w++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				net.Apply(obs)
			}
		}()
	}
	for w := 0; w < 8; w++ {
		<-done
	}
	l2, v2 := net.Apply(obs)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("Apply mutated network state")
		}
	}
	if v1 != v2 {
		t.Fatal("Apply mutated value head state")
	}
}

func TestCloneIndependence(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 4, Actions: 3, Hidden: []int{5}, Seed: 9})
	clone := net.Clone()
	obs := []float64{1, 2, 3, 4}
	l1, _ := net.Apply(obs)
	l2, _ := clone.Apply(obs)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatal("clone should start identical")
		}
	}
	// Mutating the clone must not affect the original.
	clone.Params()[0].Val[0] += 1
	l3, _ := net.Apply(obs)
	for i := range l1 {
		if l1[i] != l3[i] {
			t.Fatal("mutating clone affected original")
		}
	}
}

func TestAdamReducesQuadraticLoss(t *testing.T) {
	// Minimize f(w) = Σ (w_i - target_i)² with Adam using exact grads.
	target := []float64{1, -2, 3}
	w := []float64{0, 0, 0}
	g := make([]float64, 3)
	p := []*Param{{Name: "w", Val: w, Grad: g}}
	opt := NewAdam(p, 0.05)
	for step := 0; step < 2000; step++ {
		for i := range w {
			g[i] = 2 * (w[i] - target[i])
		}
		opt.Step()
		ZeroGrads(p)
	}
	for i := range w {
		if math.Abs(w[i]-target[i]) > 0.01 {
			t.Fatalf("Adam did not converge: w=%v", w)
		}
	}
}

func TestClipGrads(t *testing.T) {
	p := []*Param{{Name: "a", Val: make([]float64, 2), Grad: []float64{3, 4}}}
	norm := ClipGrads(p, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if got := GradNorm(p); math.Abs(got-1) > 1e-6 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below the threshold: untouched.
	p[0].Grad[0], p[0].Grad[1] = 0.3, 0.4
	ClipGrads(p, 1)
	if p[0].Grad[0] != 0.3 {
		t.Fatal("clip must not change small gradients")
	}
}

func TestAddGrads(t *testing.T) {
	a := []*Param{{Name: "x", Val: make([]float64, 2), Grad: []float64{1, 2}}}
	b := []*Param{{Name: "x", Val: make([]float64, 2), Grad: []float64{10, 20}}}
	AddGrads(a, b)
	if a[0].Grad[0] != 11 || a[0].Grad[1] != 22 {
		t.Fatalf("AddGrads result %v", a[0].Grad)
	}
}

func TestTransformerRejectsBadHeadSplit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Model not divisible by Heads should panic")
		}
	}()
	NewTransformer(TransformerConfig{Window: 4, Features: 4, Actions: 2, Model: 10, Heads: 4})
}

func TestMLPInitialPolicyNearUniform(t *testing.T) {
	net := NewMLP(MLPConfig{ObsDim: 10, Actions: 7, Seed: 10})
	rng := rand.New(rand.NewSource(11))
	obs := make([]float64, 10)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	logits, _ := net.Apply(obs)
	p := Softmax(logits)
	for _, v := range p {
		if v < 0.05 || v > 0.35 {
			t.Fatalf("initial policy too peaked: %v", p)
		}
	}
}
