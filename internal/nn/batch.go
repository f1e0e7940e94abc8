package nn

import (
	"fmt"

	"icsdetect/internal/mathx"
)

// checkBatch panics unless a batch of n streams has one input and one score
// row per stream and fits a buffer of capacity maxBatch.
func checkBatch(n, inputs, scores, maxBatch int) {
	if inputs != n || scores != n {
		panic(fmt.Sprintf("nn: batch size mismatch (states=%d inputs=%d scores=%d)", n, inputs, scores))
	}
	if n > maxBatch {
		panic(fmt.Sprintf("nn: batch of %d exceeds buffer capacity %d", n, maxBatch))
	}
}

// batchRows are the row tables of a batched inference step — each stream's
// gate row, hidden and cell vector per layer — that the multi-stream packed
// product walks. The rows themselves are the streams' own state scratch, so
// the tables hold no gate or logit rows, and every step clears them, so they
// never keep a released stream's state reachable.
type batchRows[T float32 | float64] struct {
	zs, cs [][]T
	// hs alternates per layer: a layer's hidden-vector table is the next
	// layer's input table.
	hs [2][][]T
}

func newBatchRows[T float32 | float64](maxBatch int) batchRows[T] {
	n := max(maxBatch, 1)
	return batchRows[T]{
		zs: make([][]T, n), cs: make([][]T, n),
		hs: [2][][]T{make([][]T, n), make([][]T, n)},
	}
}

// MaxBatch returns the widest batch the buffer accepts.
func (b *batchRows[T]) MaxBatch() int { return len(b.zs) }

// clear drops the first n rows of every table.
func (b *batchRows[T]) clear(n int) {
	clear(b.zs[:n])
	clear(b.cs[:n])
	clear(b.hs[0][:n])
	clear(b.hs[1][:n])
}

// BatchBuffer is the reusable scratch of the f64 batched step: its row
// tables. Owning one buffer per worker goroutine keeps the batched
// inference path allocation-free; a buffer must not be shared between
// concurrent StepBatch calls.
type BatchBuffer struct{ batchRows[float64] }

// NewBatchBuffer returns scratch for batches of up to maxBatch streams.
func (c *Classifier) NewBatchBuffer(maxBatch int) *BatchBuffer {
	return &BatchBuffer{newBatchRows[float64](maxBatch)}
}

// StepBatch advances n = len(states) independent recurrent states through
// one batched forward pass and writes each stream's class probability
// vector into probs[i] (len = Classes()). inputs[i] is stream i's input
// vector; states are updated in place. It is the batched equivalent of
// calling Step once per stream, and by construction produces bitwise
// identical hidden states and probabilities: every output element is
// accumulated in mathx.Dot's association, only the loop nesting changes so
// that each packed weight tile is fetched once per wave instead of once per
// stream.
//
// buf must come from NewBatchBuffer on this classifier with
// MaxBatch() >= n, and must not be used concurrently.
func (c *Classifier) StepBatch(buf *BatchBuffer, states []*State, inputs [][]float64, probs [][]float64) {
	c.StepBatchLogits(buf, states, inputs, probs)
	for i := range probs {
		mathx.Softmax(probs[i], probs[i])
	}
}

// StepBatchLogits is StepBatch without the final softmax: scores[i]
// receives stream i's raw logit vector. Softmax is strictly monotone and
// shared across one prediction, so top-k ranks computed over logits equal
// ranks over probabilities; hot inference paths that only need ranks use
// this variant to skip Classes() exponentials per stream per step.
func (c *Classifier) StepBatchLogits(buf *BatchBuffer, states []*State, inputs [][]float64, scores [][]float64) {
	checkBatch(len(states), len(inputs), len(scores), buf.MaxBatch())
	c.stepBatch(buf, states, inputs, scores)
}

// StepBatchLogitsOneHot is StepBatchLogits with the first layer's inputs
// given as one-hot active-column index sets instead of dense vectors — the
// batched engine's per-package hot path. Layer 0's W product becomes one
// column gather per stream (a handful of contiguous vector adds each);
// everything after it is the shared batched step, so the verdicts stay
// bitwise-identical to the dense batched pass and to the sequential
// StepLogitsOneHot.
func (c *Classifier) StepBatchLogitsOneHot(buf *BatchBuffer, states []*State, idxs [][]int, scores [][]float64) {
	checkBatch(len(states), len(idxs), len(scores), buf.MaxBatch())
	wt := c.Layers[0].wtrans()
	for i, s := range states {
		mathx.OneHotGather(s.z[0], wt, idxs[i])
	}
	c.stepBatch(buf, states, nil, scores)
}

// stepBatch is the sequential step applied to n streams at once: per layer
// stepInfer's three lines — W product into the gate rows (already there,
// as layer 0's one-hot gather, when xs is nil), U product with the bias on
// top, gate epilogue — and the dense head, each product one pass over its
// packed tiles for the whole wave. The rows are the streams' own: gate
// pre-activations land in State.z, logits in scores.
func (c *Classifier) stepBatch(buf *BatchBuffer, states []*State, xs, scores [][]float64) {
	n := len(states)
	zs, cs := buf.zs[:n], buf.cs[:n]
	for li, l := range c.Layers {
		hs := buf.hs[li&1][:n]
		for i, s := range states {
			zs[i], hs[i], cs[i] = s.z[li], s.h[li], s.c[li]
		}
		l.stepInferBatch(zs, xs, hs, cs)
		xs = hs
	}
	c.Out.forwardInferBatch(scores, xs)
	buf.clear(n)
}

// stepInferBatch is stepInfer for the streams whose gate rows, hidden and
// cell vectors are zs, hs and cs; xs nil means the gate rows already hold
// the input product (stepInferOneHot's gather).
func (l *LSTMLayer) stepInferBatch(zs, xs, hs, cs [][]float64) {
	if xs != nil {
		lazyPack(&l.packW, l.W).ApplyBatch(zs, xs, nil, mathx.GemvSet)
	}
	lazyPack(&l.packU, l.U).ApplyBatch(zs, hs, l.B, mathx.GemvAddBias)
	for i, z := range zs {
		l.gatesCellUpdate(z, hs[i], cs[i])
	}
}
