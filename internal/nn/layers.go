package nn

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Linear is a dense layer Y = X·W + b with W stored In×Out. Batched
// calls on tall dense batches additionally keep a transposed weight
// copy (wt, Out×In) refreshed per call, so the dot-form kernels read
// unit-stride rows of Wᵀ; layers marked MarkSparseInput stay on the
// zero-skipping axpy kernels instead.
type Linear struct {
	In, Out int
	W       *Mat
	B       []float64
	dW      *Mat
	dB      []float64
	name    string

	wt       []float64 // lazily sized Out×In transpose scratch (exclusive use)
	dwt      *Mat      // lazily sized Out×In dW accumulator of narrow layers
	wtExt    bool      // wt aliases the master's copy, refreshed externally
	sparseIn bool      // inputs are mostly zero: prefer the axpy kernels
}

// NewLinear builds a Xavier-initialized dense layer.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In: in, Out: out,
		W:    NewMat(in, out),
		B:    make([]float64, out),
		dW:   NewMat(in, out),
		dB:   make([]float64, out),
		name: name,
	}
	xavierInit(l.W.Data, in, out, rng)
	return l
}

// Params exposes the layer's trainable tensors.
func (l *Linear) Params() []*Param {
	return []*Param{
		{Name: l.name + ".W", Val: l.W.Data, Grad: l.dW.Data},
		{Name: l.name + ".b", Val: l.B, Grad: l.dB},
	}
}

// CloneShared returns a layer aliasing l's weights, bias, and transpose
// scratch but owning fresh gradient accumulators. Gradient shard
// workers use it so the master's Adam step is visible to every worker
// without a per-minibatch weight copy; the worker must not run
// concurrently with the optimizer, and the transpose scratch must be
// refreshed through the master's SyncSharedScratch (clones never write
// it — concurrent shard passes would race).
func (l *Linear) CloneShared() *Linear {
	l.ensureWt()
	return &Linear{
		In: l.In, Out: l.Out,
		W: l.W, B: l.B,
		dW:   NewMat(l.In, l.Out),
		dB:   make([]float64, l.Out),
		name: l.name, sparseIn: l.sparseIn,
		wt: l.wt, wtExt: true,
	}
}

// ensureWt sizes the transpose scratch without filling it. It never
// reallocates once sized (shapes are fixed), so CloneShared aliases
// stay valid.
func (l *Linear) ensureWt() {
	if cap(l.wt) < l.In*l.Out {
		l.wt = make([]float64, l.In*l.Out)
	}
	l.wt = l.wt[:l.In*l.Out]
}

// Apply computes y = xW + b into a fresh slice without touching gradient
// state; it is safe for concurrent use.
func (l *Linear) Apply(x []float64) []float64 {
	y := make([]float64, l.Out)
	l.ApplyInto(x, y)
	return y
}

// MarkSparseInput pins the layer to the zero-skipping axpy batch
// kernels: for mostly-zero inputs (one-hot observation rows) they beat
// the dot-form kernels, whose per-output-block scans pay the zero check
// once per block instead of once per input.
func (l *Linear) MarkSparseInput() { l.sparseIn = true }

// ApplyInto computes y = xW + b into the caller-owned y (bias is written
// first, then the products accumulate — the same summation order as
// Apply, so both produce identical bits).
func (l *Linear) ApplyInto(x, y []float64) {
	copy(y, l.B)
	axpyBlocked(y, x, l.W.Data, l.Out)
}

// syncWt refreshes the transposed weight copy. Called at the top of a
// batched kernel (exclusive-use contract), so it can never go stale.
// Layers whose scratch is externally refreshed (CloneShared aliases)
// never write it themselves.
func (l *Linear) syncWt() {
	if l.wtExt {
		return
	}
	l.ensureWt()
	transposeInto(l.wt, l.W)
}

// dotForm reports whether a batch of r rows should run the transposed
// dot-form kernels: without vector kernels, tall dense batches amortize
// the per-call transpose; with them the (vectorized) axpy form wins on
// every layer except narrow ones (see narrowOut). Sparse-input layers
// always stay on axpy.
func (l *Linear) dotForm(r int) bool {
	if l.sparseIn {
		return false
	}
	if useVecKernels {
		return l.Out < narrowOut
	}
	return r >= dotFormMinRows
}

// ApplyBatchInto computes Y = XW + b row by row in Apply's bias-first
// summation order. This is the inference-path batch kernel; Forward uses
// the products-first order instead (the two differ in the last float bit,
// and each batched path must mirror its per-sample counterpart exactly).
// Rows partition across the kernel worker pool.
func (l *Linear) ApplyBatchInto(X, Y *Mat) {
	if X.C != l.In {
		panic(fmt.Sprintf("nn: %s batch input width %d, want %d", l.name, X.C, l.In))
	}
	if Y.R != X.R || Y.C != l.Out {
		panic(fmt.Sprintf("nn: %s batch dst shape %dx%d, want %dx%d", l.name, Y.R, Y.C, X.R, l.Out))
	}
	work := X.R * l.In * l.Out
	if l.dotForm(X.R) {
		l.syncWt()
		g := gemmArgs{a: X, dst: Y, wt: l.wt, v1: l.B}
		if extra := parPlan(X.R, work); extra == 0 {
			kApplyDotRows(&g, 0, X.R)
		} else {
			parDispatch(kApplyDotRows, g, X.R, extra)
		}
		return
	}
	g := gemmArgs{a: X, dst: Y, b: l.W, v1: l.B, sparse: l.sparseIn}
	if extra := parPlan(X.R, work); extra == 0 {
		kApplyRows(&g, 0, X.R)
	} else {
		parDispatch(kApplyRows, g, X.R, extra)
	}
}

// Forward computes Y = XW + b for a batch.
func (l *Linear) Forward(X *Mat) *Mat {
	Y := NewMat(X.R, l.Out)
	l.ForwardInto(X, Y)
	return Y
}

// ForwardInto computes Y = XW + b in place (products accumulate first,
// bias is added last — Forward's order, used on the gradient recompute
// path). Rows partition across the kernel worker pool.
func (l *Linear) ForwardInto(X, Y *Mat) { l.forwardInto(X, Y, true) }

// ForwardSharedInto is ForwardInto for callers whose goroutines share
// one layer concurrently (the transformer's row-parallel forward): it
// skips the transposed-copy fast path, whose scratch refresh would race.
// The output is bit-identical to ForwardInto.
func (l *Linear) ForwardSharedInto(X, Y *Mat) { l.forwardInto(X, Y, false) }

func (l *Linear) forwardInto(X, Y *Mat, allowDot bool) {
	if X.C != l.In {
		panic(fmt.Sprintf("nn: %s forward input width %d, want %d", l.name, X.C, l.In))
	}
	if Y.R != X.R || Y.C != l.Out {
		panic(fmt.Sprintf("nn: %s forward dst shape %dx%d, want %dx%d", l.name, Y.R, Y.C, X.R, l.Out))
	}
	work := X.R * l.In * l.Out
	if allowDot && l.dotForm(X.R) {
		l.syncWt()
		g := gemmArgs{a: X, dst: Y, wt: l.wt, v1: l.B}
		if extra := parPlan(X.R, work); extra == 0 {
			kForwardDotRows(&g, 0, X.R)
		} else {
			parDispatch(kForwardDotRows, g, X.R, extra)
		}
		return
	}
	g := gemmArgs{a: X, dst: Y, b: l.W, v1: l.B, sparse: l.sparseIn}
	if extra := parPlan(X.R, work); extra == 0 {
		kForwardRows(&g, 0, X.R)
	} else {
		parDispatch(kForwardRows, g, X.R, extra)
	}
}

// backwardDX writes dX = dY·Wᵀ. Tall batches with vector kernels run
// the axpy form over the transposed weight copy (unit-stride inner
// loops); otherwise the four-chain dot form. Both keep MatMulABTInto's
// k-ascending per-element order, so the choice never changes a bit.
func (l *Linear) backwardDX(dY, dX *Mat) {
	if dY.C != l.Out || dX.R != dY.R || dX.C != l.In {
		panic(fmt.Sprintf("nn: %s backward dX shape %dx%d for dY %dx%d, want %dx%d and %dx%d",
			l.name, dX.R, dX.C, dY.R, dY.C, dY.R, l.In, dY.R, l.Out))
	}
	if useVecKernels && dY.R >= dxAxpyMinRows {
		l.syncWt()
		g := gemmArgs{a: dY, dst: dX, wt: l.wt}
		if extra := parPlan(dY.R, dY.R*l.In*l.Out); extra == 0 {
			kABTAxpyRows(&g, 0, dY.R)
		} else {
			parDispatch(kABTAxpyRows, g, dY.R, extra)
		}
		return
	}
	MatMulABTInto(dX, dY, l.W)
}

// Backward accumulates dW += XᵀdY and dB += Σrows(dY), returning dX. The
// weight-gradient total XᵀdY is computed first and added as one term
// (part-then-add); BackwardRowsInto instead folds rows in directly. The
// two orders differ in the last float bit once dW is non-zero, so each
// batched path must use the order its per-sample counterpart used.
func (l *Linear) Backward(X, dY *Mat) *Mat {
	dX := NewMat(dY.R, l.In)
	part := NewMat(l.In, l.Out)
	l.BackwardPartInto(X, dY, dX, part)
	return dX
}

// BackwardPartInto is the allocation-free part-then-add backward: dWpart
// is caller scratch (In×Out) receiving the XᵀdY total before it is added
// to dW as one term, matching Backward bit-for-bit. dX may be nil when
// the input gradient is not needed (first layer of a network).
func (l *Linear) BackwardPartInto(X, dY, dX, dWpart *Mat) {
	MatMulATBInto(dWpart, X, dY)
	for i := range l.dW.Data {
		l.dW.Data[i] += dWpart.Data[i]
	}
	l.backwardBias(dY)
	if dX != nil {
		l.backwardDX(dY, dX)
	}
}

// BackwardRowsInto accumulates dW sample-row by sample-row — the same
// per-element addition sequence as calling Backward once per single-row
// sample — and writes dX into the caller-owned matrix. The batched MLP
// path uses it to reproduce the per-sample training trajectory exactly.
func (l *Linear) BackwardRowsInto(X, dY, dX *Mat) {
	if X.C != l.In || dY.C != l.Out || X.R != dY.R {
		panic(fmt.Sprintf("nn: %s backward shapes X %dx%d dY %dx%d, want Bx%d and Bx%d",
			l.name, X.R, X.C, dY.R, dY.C, l.In, l.Out))
	}
	if useVecKernels && l.Out < narrowOut {
		l.accDWNarrow(X, dY)
	} else {
		matMulATBAcc(l.dW, X, dY)
	}
	l.backwardBias(dY)
	if dX != nil {
		l.backwardDX(dY, dX)
	}
}

// accDWNarrow is matMulATBAcc(l.dW, X, dY) for narrow layers, whose
// In×Out dW rows are too short for the axpy kernels: dW is transposed
// into l.dwt, every sample row folds in as dWᵀ[j,:] += dY[r,j]·X[r,:]
// with unit-stride kernels over In, and the result is transposed back.
// Per element the additions stay r-ascending with the same products.
func (l *Linear) accDWNarrow(X, dY *Mat) {
	in, out := l.In, l.Out
	dwt := EnsureMat(&l.dwt, out, in)
	transposeInto(dwt.Data, l.dW)
	for r := 0; r < X.R; r++ {
		accDWtRow(dwt, X.Data[r*in:(r+1)*in], dY.Data[r*out:(r+1)*out])
	}
	transposeInto(l.dW.Data, dwt)
}

// accDWtRow folds one sample row into the transposed accumulator:
// dwt[j,:] += dy[j]·x, skipping zero inputs as the axpy form does. A
// row holding an exact zero takes the scalar loop, because adding dy·0
// is observable (-0 becomes +0, Inf·0 is NaN).
func accDWtRow(dwt *Mat, x, dy []float64) {
	if !hasZero(x) {
		for j, c := range dy {
			axpy1Span(dwt.Row(j), x, c)
		}
		return
	}
	for j, c := range dy {
		row := dwt.Row(j)[:len(x)]
		for i, xv := range x {
			if xv != 0 {
				row[i] += c * xv
			}
		}
	}
}

func hasZero(xs []float64) bool {
	for _, v := range xs {
		if v == 0 {
			return true
		}
	}
	return false
}

// backwardBias accumulates dB += Σrows(dY).
func (l *Linear) backwardBias(dY *Mat) {
	for i := 0; i < dY.R; i++ {
		row := dY.Row(i)
		for j := range row {
			l.dB[j] += row[j]
		}
	}
}

// Tanh applies tanh elementwise, returning a new matrix.
func Tanh(X *Mat) *Mat {
	Y := NewMat(X.R, X.C)
	TanhInto(X, Y)
	return Y
}

// TanhInto applies tanh elementwise into Y (X and Y may alias). Every
// element is bit-identical to math.Tanh.
func TanhInto(X, Y *Mat) { tanhSlice(Y.Data, X.Data) }

// tanhChunk is the element count per tanhVec call: its miss masks (one
// byte per 4 elements) live in a stack array of tanhChunk/4 bytes.
const tanhChunk = 256

// tanhSlice writes y[i] = math.Tanh(x[i]) for every i < len(x). With
// vector kernels, tanhVec evaluates math.Tanh's rational branch
// (0 < |x| < 0.625, most trunk pre-activations) four lanes at a time in
// the scalar code's exact IEEE operation order and flags the remaining
// lanes, which get scalar math.Tanh here.
func tanhSlice(y, x []float64) {
	y = y[:len(x)]
	i := 0
	if useVecKernels {
		var miss [tanhChunk / 4]uint8
		for n := len(x) &^ 3; i < n; {
			m := min(n-i, tanhChunk)
			tanhVec(y[i:i+m], x[i:i+m], miss[:m/4])
			for b, mask := range miss[:m/4] {
				for ; mask != 0; mask &= mask - 1 {
					k := i + 4*b + bits.TrailingZeros8(mask)
					y[k] = math.Tanh(x[k])
				}
			}
			i += m
		}
	}
	for ; i < len(x); i++ {
		y[i] = math.Tanh(x[i])
	}
}

// TanhBackward returns dX given the tanh output Y and upstream dY:
// dx = dy · (1 − y²).
func TanhBackward(Y, dY *Mat) *Mat {
	dX := NewMat(Y.R, Y.C)
	TanhBackwardInto(Y, dY, dX)
	return dX
}

// TanhBackwardInto writes dX = dY · (1 − Y²) into the caller-owned dX.
func TanhBackwardInto(Y, dY, dX *Mat) {
	for i := range Y.Data {
		y := Y.Data[i]
		dX.Data[i] = dY.Data[i] * (1 - y*y)
	}
}

// ReLU applies max(0, x) elementwise.
func ReLU(X *Mat) *Mat {
	Y := NewMat(X.R, X.C)
	ReLUInto(X, Y)
	return Y
}

// ReLUInto applies max(0, x) elementwise into Y.
func ReLUInto(X, Y *Mat) {
	for i, v := range X.Data {
		if v > 0 {
			Y.Data[i] = v
		} else {
			Y.Data[i] = 0
		}
	}
}

// ReLUBackward returns dX given the pre-activation X and upstream dY.
func ReLUBackward(X, dY *Mat) *Mat {
	dX := NewMat(X.R, X.C)
	ReLUBackwardInto(X, dY, dX)
	return dX
}

// ReLUBackwardInto writes the masked upstream gradient into dX.
func ReLUBackwardInto(X, dY, dX *Mat) {
	for i := range X.Data {
		if X.Data[i] > 0 {
			dX.Data[i] = dY.Data[i]
		} else {
			dX.Data[i] = 0
		}
	}
}

// LayerNorm normalizes each row to zero mean / unit variance and applies a
// learned gain and bias.
type LayerNorm struct {
	Dim   int
	Gain  []float64
	Bias  []float64
	dGain []float64
	dBias []float64
	name  string
}

// NewLayerNorm builds a layer norm with gain 1 and bias 0.
func NewLayerNorm(name string, dim int) *LayerNorm {
	ln := &LayerNorm{
		Dim:  dim,
		Gain: make([]float64, dim), Bias: make([]float64, dim),
		dGain: make([]float64, dim), dBias: make([]float64, dim),
		name: name,
	}
	for i := range ln.Gain {
		ln.Gain[i] = 1
	}
	return ln
}

// Params exposes the gain and bias tensors.
func (ln *LayerNorm) Params() []*Param {
	return []*Param{
		{Name: ln.name + ".gain", Val: ln.Gain, Grad: ln.dGain},
		{Name: ln.name + ".bias", Val: ln.Bias, Grad: ln.dBias},
	}
}

// CloneShared returns a layer norm aliasing ln's gain/bias but owning
// fresh gradient accumulators; see Linear.CloneShared.
func (ln *LayerNorm) CloneShared() *LayerNorm {
	return &LayerNorm{
		Dim: ln.Dim, Gain: ln.Gain, Bias: ln.Bias,
		dGain: make([]float64, ln.Dim), dBias: make([]float64, ln.Dim),
		name: ln.name,
	}
}

const lnEps = 1e-5

// lnCache stores per-row normalization statistics for the backward pass.
type lnCache struct {
	xhat   *Mat
	invStd []float64
}

// Forward normalizes each row of X.
func (ln *LayerNorm) Forward(X *Mat) (*Mat, *lnCache) {
	Y := NewMat(X.R, X.C)
	c := &lnCache{}
	ln.ForwardInto(X, Y, c)
	return Y, c
}

// ForwardInto normalizes each row of X into Y, reusing the caller-owned
// cache's buffers across calls.
func (ln *LayerNorm) ForwardInto(X, Y *Mat, c *lnCache) {
	EnsureMat(&c.xhat, X.R, X.C)
	if cap(c.invStd) < X.R {
		c.invStd = make([]float64, X.R)
	}
	c.invStd = c.invStd[:X.R]
	for i := 0; i < X.R; i++ {
		row := X.Row(i)
		mean := 0.0
		for _, v := range row {
			mean += v
		}
		mean /= float64(len(row))
		vari := 0.0
		for _, v := range row {
			d := v - mean
			vari += d * d
		}
		vari /= float64(len(row))
		inv := 1 / math.Sqrt(vari+lnEps)
		c.invStd[i] = inv
		xh := c.xhat.Row(i)
		yr := Y.Row(i)
		for j, v := range row {
			xh[j] = (v - mean) * inv
			yr[j] = xh[j]*ln.Gain[j] + ln.Bias[j]
		}
	}
}

// Backward accumulates gain/bias gradients and returns dX.
func (ln *LayerNorm) Backward(c *lnCache, dY *Mat) *Mat {
	dX := NewMat(dY.R, dY.C)
	ln.BackwardInto(c, dY, dX, make([]float64, dY.C))
	return dX
}

// BackwardInto accumulates gain/bias gradients and writes dX into the
// caller-owned matrix; dxh is caller scratch of width dY.C.
func (ln *LayerNorm) BackwardInto(c *lnCache, dY, dX *Mat, dxh []float64) {
	n := float64(dY.C)
	for i := 0; i < dY.R; i++ {
		dyr, xh := dY.Row(i), c.xhat.Row(i)
		// dxhat = dy * gain
		sumDx, sumDxXh := 0.0, 0.0
		for j := range dyr {
			ln.dGain[j] += dyr[j] * xh[j]
			ln.dBias[j] += dyr[j]
			dxh[j] = dyr[j] * ln.Gain[j]
			sumDx += dxh[j]
			sumDxXh += dxh[j] * xh[j]
		}
		inv := c.invStd[i]
		dxr := dX.Row(i)
		for j := range dxr {
			dxr[j] = inv / n * (n*dxh[j] - sumDx - xh[j]*sumDxXh)
		}
	}
}

// Softmax returns the row-wise softmax of logits, numerically stabilized.
func Softmax(logits []float64) []float64 {
	return SoftmaxInto(make([]float64, len(logits)), logits)
}

// SoftmaxInto writes the softmax of logits into the caller-owned out
// (same length) and returns it; the allocation-free form of Softmax.
func SoftmaxInto(out, logits []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		out[i] = math.Exp(v - max)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// LogSoftmax returns log-probabilities for the logits.
func LogSoftmax(logits []float64) []float64 {
	return LogSoftmaxInto(make([]float64, len(logits)), logits)
}

// LogSoftmaxInto writes log-probabilities into the caller-owned out (same
// length) and returns it.
func LogSoftmaxInto(out, logits []float64) []float64 {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range logits {
		sum += math.Exp(v - max)
	}
	lse := max + math.Log(sum)
	for i, v := range logits {
		out[i] = v - lse
	}
	return out
}

// SoftmaxLogSoftmaxInto fills probs and logp for one logits row,
// bit-identical to SoftmaxInto(probs, logits) followed by
// LogSoftmaxInto(logp, logits) but sharing the exponential evaluations
// — the PPO surrogate needs both per sample, and exp dominates the
// per-sample epilogue cost.
func SoftmaxLogSoftmaxInto(probs, logp, logits []float64) {
	max := math.Inf(-1)
	for _, v := range logits {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		probs[i] = math.Exp(v - max)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	lse := max + math.Log(sum)
	for i, v := range logits {
		logp[i] = v - lse
	}
}

// Entropy returns the Shannon entropy of a probability vector.
func Entropy(p []float64) float64 {
	h := 0.0
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log(v)
		}
	}
	return h
}

// SampleCategorical draws an index from the probability vector.
func SampleCategorical(p []float64, rng *rand.Rand) int {
	u := rng.Float64()
	acc := 0.0
	for i, v := range p {
		acc += v
		if u <= acc {
			return i
		}
	}
	return len(p) - 1
}

// Argmax returns the index of the largest element (ties to the lowest
// index), the greedy action used for deterministic replay.
func Argmax(xs []float64) int {
	best, bi := math.Inf(-1), 0
	for i, v := range xs {
		if v > best {
			best, bi = v, i
		}
	}
	return bi
}
