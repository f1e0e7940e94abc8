package nn

import (
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// InferModel32 is the frozen float32 inference snapshot of a Classifier:
// every weight converted f64→f32 once (a single elementwise rounding, the
// source model untouched), plus the f32 derived layouts the hot paths want
// — packed GEMV tiles at full f32 lane width and the transposed first-layer
// W the one-hot gather walks. The snapshot shares the f64 tier's structure
// step for step (fused bias epilogues, fused gate/cell update, one pass
// over the packed tiles per batched product), so its f32 results are
// bitwise-identical across {scalar, avx2, avx512} and between the
// sequential and batched paths; only the rounding differs from the f64
// reference, which the detection stack gates at the verdict level.
//
// Snapshots are cached on the Classifier behind an atomic pointer, built
// lazily by Infer32 and dropped by InvalidateInference alongside the f64
// inference caches.
type InferModel32 struct {
	layers []*inferLayer32
	out    *dense32
}

// inferLayer32 is the frozen f32 mirror of one LSTMLayer.
type inferLayer32 struct {
	inputSize  int
	hiddenSize int
	w, u       *mathx.Matrix32
	b          []float32
	wt         *mathx.Matrix32 // Wᵀ for the one-hot gather
	// packW/packU are the tier-dependent GEMV packs of w/u, each built when
	// first multiplied (see lazyPack).
	packW, packU atomic.Pointer[mathx.PackedGEMV32]
}

// dense32 is the frozen f32 mirror of the Dense head.
type dense32 struct {
	inputSize  int
	outputSize int
	w          *mathx.Matrix32
	b          []float32
	pack       atomic.Pointer[mathx.PackedGEMV32]
}

func toF32(v []float64) []float32 {
	out := make([]float32, len(v))
	for i, x := range v {
		out[i] = float32(x)
	}
	return out
}

// newInferModel32 converts the classifier's weights. Deterministic: every
// element is one float64→float32 rounding, so repeated conversions of the
// same model are bitwise-identical, and the f64 model (and its
// fingerprint) is never mutated.
func newInferModel32(c *Classifier) *InferModel32 {
	m := &InferModel32{}
	for _, l := range c.Layers {
		il := &inferLayer32{
			inputSize:  l.InputSize,
			hiddenSize: l.HiddenSize,
			w:          mathx.ToMatrix32(l.W),
			u:          mathx.ToMatrix32(l.U),
			b:          toF32(l.B),
		}
		il.wt = il.w.Transpose()
		m.layers = append(m.layers, il)
	}
	m.out = &dense32{
		inputSize:  c.Out.InputSize,
		outputSize: c.Out.OutputSize,
		w:          mathx.ToMatrix32(c.Out.W),
		b:          toF32(c.Out.B),
	}
	return m
}

// Infer32 returns the classifier's f32 inference snapshot, converting on
// first use. The snapshot is valid until the next InvalidateInference.
// Callers racing on a cold model all get the one snapshot that won the
// CompareAndSwap, so shards never pin duplicate copies of the weights.
func (c *Classifier) Infer32() *InferModel32 {
	for {
		if m := c.m32.Load(); m != nil {
			return m
		}
		c.m32.CompareAndSwap(nil, newInferModel32(c))
	}
}

// InputSize returns the expected input vector length.
func (m *InferModel32) InputSize() int { return m.layers[0].inputSize }

// Classes returns |S|, the logit width.
func (m *InferModel32) Classes() int { return m.out.outputSize }

// lazyPack32 is lazyPack for the f32 packs.
func lazyPack32(slot *atomic.Pointer[mathx.PackedGEMV32], m *mathx.Matrix32) *mathx.PackedGEMV32 {
	for {
		p := slot.Load()
		if p != nil && !p.Stale() {
			return p
		}
		slot.CompareAndSwap(p, mathx.PackGEMV32(m))
	}
}

// forwardInfer computes logits = W·h + b with the bias add fused into the
// GEMV epilogue.
func (d *dense32) forwardInfer(dst, h []float32) {
	lazyPack32(&d.pack, d.w).Apply(dst, h, d.b, mathx.GemvSetBias)
}

// forwardInferBatch is forwardInfer for every stream of a wave in one pass
// over the packed head.
func (d *dense32) forwardInferBatch(dsts, hs [][]float32) {
	lazyPack32(&d.pack, d.w).ApplyBatch(dsts, hs, d.b, mathx.GemvSetBias)
}

// State32 is the f32 recurrent state of a streaming session running on an
// InferModel32 — the mirror of State.
type State32 struct {
	h, c [][]float32
	z    [][]float32
}

// NewState returns a zero f32 state for the snapshot.
func (m *InferModel32) NewState() *State32 {
	s := &State32{
		h: make([][]float32, len(m.layers)),
		c: make([][]float32, len(m.layers)),
		z: make([][]float32, len(m.layers)),
	}
	for i, l := range m.layers {
		s.h[i] = make([]float32, l.hiddenSize)
		s.c[i] = make([]float32, l.hiddenSize)
		s.z[i] = make([]float32, numGates*l.hiddenSize)
	}
	return s
}

// Reset zeroes the state in place (fragment boundaries).
func (s *State32) Reset() {
	for i := range s.h {
		mathx.Fill32(s.h[i], 0)
		mathx.Fill32(s.c[i], 0)
	}
}

// Clone deep-copies the state.
func (s *State32) Clone() *State32 {
	out := &State32{
		h: make([][]float32, len(s.h)),
		c: make([][]float32, len(s.c)),
		z: make([][]float32, len(s.z)),
	}
	for i := range s.h {
		out.h[i] = append([]float32(nil), s.h[i]...)
		out.c[i] = append([]float32(nil), s.c[i]...)
		out.z[i] = make([]float32, len(s.z[i]))
	}
	return out
}

// gatesCellUpdate is the f32 fused gate epilogue: the exact structure of
// the f64 gatesCellUpdate over the f32 activation kernels.
func (l *inferLayer32) gatesCellUpdate(z, h, c []float32) {
	H := l.hiddenSize
	mathx.VSigmoid32(z[:3*H], z[:3*H])
	mathx.VTanh32(z[3*H:4*H], z[3*H:4*H])
	zi := z[gateI*H : gateI*H+H]
	zf := z[gateF*H : gateF*H+H]
	zo := z[gateO*H : gateO*H+H]
	zg := z[gateG*H : gateG*H+H]
	for j := 0; j < H; j++ {
		c[j] = zf[j]*c[j] + zi[j]*zg[j]
	}
	// The i-gate block is consumed, so it doubles as the tanh(c) scratch.
	mathx.VTanh32(zi, c[:H])
	for j := 0; j < H; j++ {
		h[j] = zo[j] * zi[j]
	}
}

// stepInfer advances one timestep on the packed f32 weights.
func (l *inferLayer32) stepInfer(z, x, h, c []float32) {
	lazyPack32(&l.packW, l.w).Apply(z, x, nil, mathx.GemvSet)
	lazyPack32(&l.packU, l.u).Apply(z, h, l.b, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// stepInferOneHot is stepInfer for a one-hot input given as its active
// column indices (strictly ascending).
func (l *inferLayer32) stepInferOneHot(z []float32, idx []int, h, c []float32) {
	mathx.OneHotGather32(z, l.wt, idx)
	lazyPack32(&l.packU, l.u).Apply(z, h, l.b, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// StepLogits advances the recurrent state with dense input x and writes
// the raw f32 logit vector into scores — the f32 mirror of
// Classifier.StepLogits.
func (m *InferModel32) StepLogits(state *State32, x, scores []float32) {
	cur := x
	for i, l := range m.layers {
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	m.out.forwardInfer(scores, cur)
}

// StepLogitsOneHot is StepLogits with the first layer's input given as
// one-hot active-column indices — the f32 streaming hot path.
func (m *InferModel32) StepLogitsOneHot(state *State32, idx []int, scores []float32) {
	m.layers[0].stepInferOneHot(state.z[0], idx, state.h[0], state.c[0])
	cur := state.h[0]
	for i := 1; i < len(m.layers); i++ {
		l := m.layers[i]
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	m.out.forwardInfer(scores, cur)
}

// BatchBuffer32 is the reusable scratch of the f32 batched step — the
// mirror of BatchBuffer, row tables only, cleared after every step.
type BatchBuffer32 struct{ batchRows[float32] }

// NewBatchBuffer returns f32 scratch for batches of up to maxBatch streams.
func (m *InferModel32) NewBatchBuffer(maxBatch int) *BatchBuffer32 {
	return &BatchBuffer32{newBatchRows[float32](maxBatch)}
}

// StepBatchLogits advances n = len(states) independent f32 states through
// one batched forward pass, writing each stream's raw logit vector into
// scores[i]. Bitwise-identical to calling StepLogits once per stream, by
// the same construction as the f64 batched step.
func (m *InferModel32) StepBatchLogits(buf *BatchBuffer32, states []*State32, inputs [][]float32, scores [][]float32) {
	checkBatch(len(states), len(inputs), len(scores), buf.MaxBatch())
	m.stepBatch(buf, states, inputs, scores)
}

// StepBatchLogitsOneHot is StepBatchLogits with the first layer's inputs
// given as one-hot active-column index sets — the batched f32 engine hot
// path: one gather per stream into its gate row, then the shared batched
// step.
func (m *InferModel32) StepBatchLogitsOneHot(buf *BatchBuffer32, states []*State32, idxs [][]int, scores [][]float32) {
	checkBatch(len(states), len(idxs), len(scores), buf.MaxBatch())
	wt := m.layers[0].wt
	for i, s := range states {
		mathx.OneHotGather32(s.z[0], wt, idxs[i])
	}
	m.stepBatch(buf, states, nil, scores)
}

// stepBatch is Classifier.stepBatch on the f32 snapshot: per layer the W
// product (already in the gate rows when xs is nil), the U product with
// the bias on top and the gate epilogue, then the head, each product one
// pass over its packed tiles for the whole wave.
func (m *InferModel32) stepBatch(buf *BatchBuffer32, states []*State32, xs, scores [][]float32) {
	n := len(states)
	zs, cs := buf.zs[:n], buf.cs[:n]
	for li, l := range m.layers {
		hs := buf.hs[li&1][:n]
		for i, s := range states {
			zs[i], hs[i], cs[i] = s.z[li], s.h[li], s.c[li]
		}
		l.stepInferBatch(zs, xs, hs, cs)
		xs = hs
	}
	m.out.forwardInferBatch(scores, xs)
	buf.clear(n)
}

// stepInferBatch is stepInfer for the streams whose gate rows, hidden and
// cell vectors are zs, hs and cs; xs nil means the gate rows already hold
// the input product.
func (l *inferLayer32) stepInferBatch(zs, xs, hs, cs [][]float32) {
	if xs != nil {
		lazyPack32(&l.packW, l.w).ApplyBatch(zs, xs, nil, mathx.GemvSet)
	}
	lazyPack32(&l.packU, l.u).ApplyBatch(zs, hs, l.b, mathx.GemvAddBias)
	for i, z := range zs {
		l.gatesCellUpdate(z, hs[i], cs[i])
	}
}
