package nn

import (
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// Inference weight caches. A product (W·x, U·h, the dense head)
// vectorizes across output rows once the weights are packed into
// mathx.PackedGEMV tiles; the sequential step runs on those one vector at
// a time, the f64 batched step (batch.go) every stream of a wave in one
// pass over them.
// The packs (and the transposed W the one-hot gather walks) are derived
// data: each is built lazily the first time its matrix is multiplied — the
// one-hot step never multiplies layer 0's W, so that pack is never built
// for it — cached behind an atomic pointer, dropped by InvalidateInference
// whenever the optimizer mutates the weights, and rebuilt when a
// kernel-tier override makes it stale. Builders racing on a cold slot
// publish by CompareAndSwap and all return the winner, so concurrent
// shards share one copy.
//
// None of this changes any result: PackedGEMV.Apply and OneHotGather are
// bitwise-identical to the MulVec/MulVecAdd reference per element, and the
// fused gate epilogue below performs exactly the same per-element operation
// chain as the unfused activation + cell loops it replaces.

// lazyPack returns m's GEMV pack for the current kernel tier from slot,
// packing on first use or after a tier change.
func lazyPack(slot *atomic.Pointer[mathx.PackedGEMV], m *mathx.Matrix) *mathx.PackedGEMV {
	for {
		p := slot.Load()
		if p != nil && !p.Stale() {
			return p
		}
		slot.CompareAndSwap(p, mathx.PackGEMV(m))
	}
}

// wtrans returns Wᵀ for the one-hot gather, building it on first use.
func (l *LSTMLayer) wtrans() *mathx.Matrix {
	for {
		if wt := l.wt.Load(); wt != nil {
			return wt
		}
		l.wt.CompareAndSwap(nil, l.W.Transpose())
	}
}

// forwardInfer is Forward through the packed weights: logits = W·h + b with
// the bias add fused into the GEMV epilogue, bitwise-identical to Forward.
func (d *Dense) forwardInfer(dst, h []float64) {
	lazyPack(&d.pack, d.W).Apply(dst, h, d.B, mathx.GemvSetBias)
}

// forwardInferBatch is forwardInfer for every stream of a wave in one pass
// over the packed head.
func (d *Dense) forwardInferBatch(dsts, hs [][]float64) {
	lazyPack(&d.pack, d.W).ApplyBatch(dsts, hs, d.B, mathx.GemvSetBias)
}

// invalidate drops the layer's cached inference layouts.
func (l *LSTMLayer) invalidate() {
	l.packW.Store(nil)
	l.packU.Store(nil)
	l.wt.Store(nil)
}

// InvalidateInference drops every cached inference layout (packed GEMV
// tiles, transposed input weights). The trainer calls it after each
// optimizer step; anything else that mutates weights in place must do the
// same.
func (c *Classifier) InvalidateInference() {
	for _, l := range c.Layers {
		l.invalidate()
	}
	c.Out.pack.Store(nil)
	c.m32.Store(nil)
}

// gatesCellUpdate is the fused gate epilogue: activation and cell/hidden
// update in one pass over the hidden units, reading the combined
// pre-activations from z and never writing activated gates back to memory.
// Per element it performs exactly the operations of the classic two-loop
// form (σ/τ on the same pre-activation values, then f⊙c + i⊙g and o⊙τ(c))
// — there are no cross-element dependencies, so the fusion is bitwise-free.
func (l *LSTMLayer) gatesCellUpdate(z, h, c []float64) {
	H := l.HiddenSize
	// Gate blocks are laid out [i|f|o|g], so the three sigmoid gates are
	// one contiguous run and the candidate gate follows — each activates
	// in place through the vectorized kernels (bitwise identical to the
	// scalar Sigmoid/Tanh loops they replace).
	mathx.VSigmoid(z[:3*H], z[:3*H])
	mathx.VTanh(z[3*H:4*H], z[3*H:4*H])
	zi := z[gateI*H : gateI*H+H]
	zf := z[gateF*H : gateF*H+H]
	zo := z[gateO*H : gateO*H+H]
	zg := z[gateG*H : gateG*H+H]
	for j := 0; j < H; j++ {
		c[j] = zf[j]*c[j] + zi[j]*zg[j]
	}
	// The i-gate block is consumed, so it doubles as the tanh(c) scratch.
	mathx.VTanh(zi, c[:H])
	for j := 0; j < H; j++ {
		h[j] = zo[j] * zi[j]
	}
}

// stepInferOneHot is stepInfer for a one-hot input given as its active
// column indices (strictly ascending): the W·x product becomes a column
// gather over Wᵀ, the U·h product and bias fuse into one packed GEMV
// epilogue, and the gate epilogue is the fused single pass. Bitwise
// equal to stepInfer on the equivalent dense vector.
func (l *LSTMLayer) stepInferOneHot(z []float64, idx []int, h, c []float64) {
	mathx.OneHotGather(z, l.wtrans(), idx)
	lazyPack(&l.packU, l.U).Apply(z, h, l.B, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// StepLogitsOneHot is StepLogits with the first layer's input given as
// one-hot active-column indices instead of a dense vector — the streaming
// detector's per-package hot path. Later layers consume the dense hidden
// vectors as usual.
func (c *Classifier) StepLogitsOneHot(state *State, idx []int, scores []float64) {
	c.Layers[0].stepInferOneHot(state.z[0], idx, state.h[0], state.c[0])
	cur := state.h[0]
	for i := 1; i < len(c.Layers); i++ {
		l := c.Layers[i]
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	c.Out.forwardInfer(scores, cur)
}
