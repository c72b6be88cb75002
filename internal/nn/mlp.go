package nn

import "math/rand"

// PolicyValueNet is the network contract the PPO trainer consumes: a policy
// head producing action logits and a value head estimating the state value.
//
// Apply is read-only and safe for concurrent rollout actors. ApplyBatch
// and GradBatch run whole minibatches (observations flattened row-major
// into a B×ObsDim matrix) through preallocated per-net scratch buffers and
// therefore require exclusive use of the net, as does Grad. The
// per-sample Apply/Grad are thin wrappers over the same batched kernels.
type PolicyValueNet interface {
	Apply(obs []float64) (logits []float64, value float64)
	// ApplyBatch writes action logits into the caller-owned B×Actions
	// matrix and state values into the caller-owned length-B slice for a
	// B×ObsDim batch of observations.
	ApplyBatch(X *Mat, logits *Mat, values []float64)
	Grad(obs []float64, dLogits []float64, dValue float64)
	// GradBatch recomputes the forward pass for the batch and accumulates
	// parameter gradients for the given upstream logit/value gradients.
	// The accumulation order matches per-sample Grad calls in row order
	// bit-for-bit.
	GradBatch(X *Mat, dLogits *Mat, dValues []float64)
	Params() []*Param
	NumActions() int
	ObsDim() int
	Clone() PolicyValueNet
}

// MLPConfig sizes an MLP policy/value network.
type MLPConfig struct {
	ObsDim  int
	Actions int
	// Hidden lists the trunk layer widths. Zero length defaults to
	// [64, 64].
	Hidden []int
	Seed   int64
}

// mlpScratch holds the preallocated forward/backward buffers for one
// exclusive user of the network. Batch size varies per call; ensureMat
// grows the buffers on demand and reuses them afterwards.
type mlpScratch struct {
	acts []*Mat // activations per trunk layer (batch kernels)
	vals *Mat   // value-head output column
	dh   []*Mat // upstream gradients entering each trunk boundary
	dz   []*Mat // pre-activation gradients per trunk layer
	dhv  *Mat   // value-head contribution to the last hidden gradient
	dV   Mat    // reusable header aliasing the caller's dValues column
}

// MLPPolicy is a tanh MLP trunk with linear policy and value heads, the
// fast default backbone (the paper notes MLP also finds attacks, §VI-B).
type MLPPolicy struct {
	cfg     MLPConfig
	trunk   []*Linear
	pHead   *Linear
	vHead   *Linear
	params  []*Param
	scratch mlpScratch
}

// NewMLP builds the network with Xavier initialization. The final policy
// layer is scaled down so the initial policy is near-uniform, which keeps
// early PPO exploration broad.
func NewMLP(cfg MLPConfig) *MLPPolicy {
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64, 64}
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 0x11a))
	m := &MLPPolicy{cfg: cfg}
	in := cfg.ObsDim
	for i, h := range cfg.Hidden {
		m.trunk = append(m.trunk, NewLinear(sprintfName("trunk", i), in, h, rng))
		in = h
	}
	// Observations are one-hot-heavy; the first layer stays on the
	// zero-skipping axpy kernels (deeper layers see dense tanh
	// activations and use the transposed dot-form kernels on tall
	// batches).
	m.trunk[0].MarkSparseInput()
	m.pHead = NewLinear("policy", in, cfg.Actions, rng)
	m.vHead = NewLinear("value", in, 1, rng)
	for i := range m.pHead.W.Data {
		m.pHead.W.Data[i] *= 0.01
	}
	for _, l := range m.trunk {
		m.params = append(m.params, l.Params()...)
	}
	m.params = append(m.params, m.pHead.Params()...)
	m.params = append(m.params, m.vHead.Params()...)
	m.scratch = mlpScratch{
		acts: make([]*Mat, len(m.trunk)),
		dh:   make([]*Mat, len(m.trunk)),
		dz:   make([]*Mat, len(m.trunk)),
	}
	return m
}

func sprintfName(base string, i int) string {
	return base + "." + string(rune('0'+i))
}

// NumActions returns the policy head width.
func (m *MLPPolicy) NumActions() int { return m.cfg.Actions }

// ObsDim returns the expected observation size.
func (m *MLPPolicy) ObsDim() int { return m.cfg.ObsDim }

// Params returns all trainable tensors.
func (m *MLPPolicy) Params() []*Param { return m.params }

// Apply runs a stateless forward pass for one observation. It allocates
// its intermediates locally, so concurrent rollout actors can share one
// net; hot batch paths use ApplyBatch instead.
func (m *MLPPolicy) Apply(obs []float64) ([]float64, float64) {
	h := obs
	for _, l := range m.trunk {
		z := l.Apply(h)
		tanhSlice(z, z)
		h = z
	}
	logits := m.pHead.Apply(h)
	v := m.vHead.Apply(h)
	return logits, v[0]
}

// ApplyBatch runs the forward pass for a B×ObsDim batch through the
// preallocated scratch buffers, writing logits (B×Actions) and values
// (length B) into caller-owned storage. Each row matches Apply
// bit-for-bit (bias-first summation order).
func (m *MLPPolicy) ApplyBatch(X *Mat, logits *Mat, values []float64) {
	s := &m.scratch
	h := X
	for li, l := range m.trunk {
		z := EnsureMat(&s.acts[li], X.R, l.Out)
		l.ApplyBatchInto(h, z)
		TanhInto(z, z)
		h = z
	}
	m.pHead.ApplyBatchInto(h, logits)
	vals := EnsureMat(&s.vals, X.R, 1)
	m.vHead.ApplyBatchInto(h, vals)
	for i := 0; i < X.R; i++ {
		values[i] = vals.Data[i]
	}
}

// Grad recomputes the forward pass for one sample and accumulates
// parameter gradients for the given upstream logits/value gradients. Like
// GradBatch it uses the net-owned scratch, so it must be called from one
// goroutine at a time per net.
func (m *MLPPolicy) Grad(obs []float64, dLogits []float64, dValue float64) {
	X := &Mat{R: 1, C: len(obs), Data: obs}
	dL := &Mat{R: 1, C: len(dLogits), Data: dLogits}
	var dv [1]float64
	dv[0] = dValue
	m.GradBatch(X, dL, dv[:])
}

// GradBatch recomputes the forward pass for the batch (Forward's
// products-first order, as the per-sample Grad always did) and
// accumulates gradients. Weight gradients fold in sample-row by
// sample-row, reproducing the sequence of per-sample Grad calls exactly.
func (m *MLPPolicy) GradBatch(X *Mat, dLogits *Mat, dValues []float64) {
	s := &m.scratch
	h := X
	for li, l := range m.trunk {
		z := EnsureMat(&s.acts[li], X.R, l.Out)
		l.ForwardInto(h, z)
		TanhInto(z, z)
		h = z
	}
	s.dV = Mat{R: X.R, C: 1, Data: dValues}
	dV := &s.dV
	last := len(m.trunk) - 1
	dh := EnsureMat(&s.dh[last], X.R, m.trunk[last].Out)
	m.pHead.BackwardRowsInto(h, dLogits, dh)
	dhv := EnsureMat(&s.dhv, X.R, m.trunk[last].Out)
	m.vHead.BackwardRowsInto(h, dV, dhv)
	for i := range dh.Data {
		dh.Data[i] += dhv.Data[i]
	}
	for i := last; i >= 0; i-- {
		act := s.acts[i]
		dz := EnsureMat(&s.dz[i], X.R, m.trunk[i].Out)
		TanhBackwardInto(act, dh, dz)
		if i == 0 {
			m.trunk[0].BackwardRowsInto(X, dz, nil)
			break
		}
		dnext := EnsureMat(&s.dh[i-1], X.R, m.trunk[i-1].Out)
		m.trunk[i].BackwardRowsInto(s.acts[i-1], dz, dnext)
		dh = dnext
	}
}

// Clone deep-copies the network (weights only; gradients start zeroed).
func (m *MLPPolicy) Clone() PolicyValueNet {
	out := NewMLP(m.cfg)
	copyParams(out.params, m.params)
	return out
}

// CloneShared returns a network aliasing m's weights but owning fresh
// gradient accumulators and scratch. Gradient shard workers run forward
// and backward passes on it concurrently with each other (weights are
// read-only during a shard pass) and see the master's optimizer steps
// without any weight copying; see GradSharer.
func (m *MLPPolicy) CloneShared() PolicyValueNet {
	out := &MLPPolicy{cfg: m.cfg}
	for _, l := range m.trunk {
		out.trunk = append(out.trunk, l.CloneShared())
	}
	out.pHead = m.pHead.CloneShared()
	out.vHead = m.vHead.CloneShared()
	for _, l := range out.trunk {
		out.params = append(out.params, l.Params()...)
	}
	out.params = append(out.params, out.pHead.Params()...)
	out.params = append(out.params, out.vHead.Params()...)
	out.scratch = mlpScratch{
		acts: make([]*Mat, len(out.trunk)),
		dh:   make([]*Mat, len(out.trunk)),
		dz:   make([]*Mat, len(out.trunk)),
	}
	return out
}

// SyncSharedScratch refreshes the transposed weight copies aliased by
// CloneShared clones: the dense layers whose backward input-gradient
// kernel reads Wᵀ (the sparse first layer never produces a dX).
func (m *MLPPolicy) SyncSharedScratch() {
	for _, l := range m.trunk[1:] {
		l.syncWt()
	}
	m.pHead.syncWt()
	m.vHead.syncWt()
}

// copyParams copies parameter values between identically shaped networks.
func copyParams(dst, src []*Param) {
	if len(dst) != len(src) {
		panic("nn: copyParams parameter count mismatch")
	}
	for i := range dst {
		copy(dst[i].Val, src[i].Val)
	}
}

// CopyWeights copies parameter values from src into dst; the networks must
// share a layout (e.g. Clone pairs).
func CopyWeights(dst, src PolicyValueNet) { copyParams(dst.Params(), src.Params()) }

// GradSharer is implemented by networks that can hand out weight-aliased
// gradient-accumulator clones. The PPO trainer prefers it over Clone:
// shard workers then need no per-minibatch CopyWeights, and the weight
// arrays stay hot in cache across workers. Contract: after any weight
// update and before the next shard pass, the caller must invoke
// SyncSharedScratch on the master so the clones' aliased kernel scratch
// (transposed weight copies) is fresh — clones never refresh it
// themselves, because concurrent shard passes would race on it.
type GradSharer interface {
	CloneShared() PolicyValueNet
	SyncSharedScratch()
}
