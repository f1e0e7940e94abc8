package nn

import (
	"fmt"

	"icsdetect/internal/mathx"
)

// batchScratch is the storage behind BatchBuffer and BatchBuffer32: per-layer
// gate rows, logit rows and input row pointers for one GEMM-covered block
// of streams. It starts empty and grows to the widest block actually
// stepped — a shard that only ever sees a handful of streams never pays for
// maxBatch rows per layer.
type batchScratch[T float32 | float64] struct {
	maxBatch int
	// gates[l] is layer l's 4H row width and classes the logit row width:
	// the strides grow sizes the rows by.
	gates   []int
	classes int
	// z[l] holds the concatenated 4H gate pre-activations of layer l for the
	// whole block, row-major with stride 4H (one row per stream); zu[l] is
	// the recurrent U·h product, combined into z elementwise so both
	// products can use the overwriting GEMM kernel.
	z, zu [][]T
	// logits holds the batched dense-head outputs, stride classes.
	logits []T
	// xs collects the per-stream input slices handed to the GEMM kernels;
	// its length is the block width the scratch currently holds.
	xs [][]T
}

func newBatchScratch[T float32 | float64](maxBatch int, gates []int, classes int) batchScratch[T] {
	return batchScratch[T]{
		maxBatch: max(maxBatch, 1),
		gates:    gates,
		classes:  classes,
		z:        make([][]T, len(gates)),
		zu:       make([][]T, len(gates)),
	}
}

// MaxBatch returns the widest batch the buffer accepts.
func (b *batchScratch[T]) MaxBatch() int { return b.maxBatch }

// grow makes room for a block of n ≤ maxBatch streams, at least doubling so
// a widening shard reallocates O(log maxBatch) times. The old rows are
// scratch and are dropped, not copied.
func (b *batchScratch[T]) grow(n int) {
	if n <= len(b.xs) {
		return
	}
	w := min(max(n, 2*len(b.xs)), b.maxBatch)
	for l, g := range b.gates {
		b.z[l] = make([]T, w*g)
		b.zu[l] = make([]T, w*g)
	}
	b.logits = make([]T, w*b.classes)
	b.xs = make([][]T, w)
}

// split validates a batch of n streams against the buffer and returns how
// many leading streams the tier's SIMD GEMM blocks (width block, 0 on the
// scalar tier) cover, with the scratch grown to hold them. The n mod block
// streams past that — the whole batch when it is narrower than one block —
// have no GEMM kernel: MulRowsT would hand them one scalar Dot per weight
// row, so the callers advance them through the sequential packed-GEMV step
// instead, which the sequential≡batched contract makes bitwise-free. The
// scalar tier has no vector GEMV either and keeps the whole batch on
// MulRowsT's four-stream register tile.
func (b *batchScratch[T]) split(n, inputs, scores, block int) int {
	if inputs != n || scores != n {
		panic(fmt.Sprintf("nn: batch size mismatch (states=%d inputs=%d scores=%d)", n, inputs, scores))
	}
	if n > b.maxBatch {
		panic(fmt.Sprintf("nn: batch of %d exceeds buffer capacity %d", n, b.maxBatch))
	}
	wide := n
	if block > 0 {
		wide -= n % block
	}
	b.grow(wide)
	return wide
}

// BatchBuffer is the reusable scratch memory for StepBatch. Owning one
// buffer per worker goroutine removes every per-step allocation from the
// batched inference path once the buffer has grown to the worker's widest
// batch; a buffer must not be shared between concurrent StepBatch calls.
type BatchBuffer struct{ batchScratch[float64] }

// NewBatchBuffer returns scratch for batches of up to maxBatch streams.
func (c *Classifier) NewBatchBuffer(maxBatch int) *BatchBuffer {
	gates := make([]int, len(c.Layers))
	for i, l := range c.Layers {
		gates[i] = numGates * l.HiddenSize
	}
	return &BatchBuffer{newBatchScratch[float64](maxBatch, gates, c.Out.OutputSize)}
}

// StepBatch advances n = len(states) independent recurrent states through
// one batched forward pass and writes each stream's class probability
// vector into probs[i] (len = Classes()). inputs[i] is stream i's input
// vector; states are updated in place. It is the batched equivalent of
// calling Step once per stream, and by construction produces bitwise
// identical hidden states and probabilities: every output element is
// accumulated in mathx.Dot's association, only the loop nesting changes so
// that each weight row is streamed from memory once per GEMM block of
// streams instead of once per stream (one matrix-matrix pass per layer
// instead of n matrix-vector passes).
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
	n := len(states)
	wide := buf.split(n, len(inputs), len(scores), mathx.GEMMBlock())
	if wide > 0 {
		copy(buf.xs[:wide], inputs)
		c.stepBatchLayers(buf, states, wide, 0)
		c.stepBatchHead(buf, scores, wide)
	}
	for i := wide; i < n; i++ {
		c.StepLogits(states[i], inputs[i], scores[i])
	}
}

// StepBatchLogitsOneHot is StepBatchLogits with the first layer's inputs
// given as one-hot active-column index sets instead of dense vectors — the
// batched engine's per-package hot path. The W GEMM of layer 0 becomes one
// column gather per stream (a handful of contiguous vector adds each); the
// recurrent product, combine and gate epilogue are the shared batched code,
// so the verdicts stay bitwise-identical to the dense batched pass and to
// the sequential StepLogitsOneHot — which is what the streams no GEMM block
// covers run (see split).
func (c *Classifier) StepBatchLogitsOneHot(buf *BatchBuffer, states []*State, idxs [][]int, scores [][]float64) {
	n := len(states)
	wide := buf.split(n, len(idxs), len(scores), mathx.GEMMBlock())
	if wide > 0 {
		l0 := c.Layers[0]
		G := numGates * l0.HiddenSize
		z := buf.z[0][:wide*G]
		wt := l0.wtrans()
		for i := 0; i < wide; i++ {
			mathx.OneHotGather(z[i*G:(i+1)*G], wt, idxs[i])
			buf.xs[i] = states[i].h[0]
		}
		zu := buf.zu[0][:wide*G]
		l0.U.MulRowsT(zu, buf.xs[:wide])
		for i := 0; i < wide; i++ {
			l0.combineGatesCellUpdate(z[i*G:(i+1)*G], zu[i*G:(i+1)*G], states[i].h[0], states[i].c[0])
			buf.xs[i] = states[i].h[0]
		}
		c.stepBatchLayers(buf, states, wide, 1)
		c.stepBatchHead(buf, scores, wide)
	}
	for i := wide; i < n; i++ {
		c.StepLogitsOneHot(states[i], idxs[i], scores[i])
	}
}

// stepBatchLayers advances layers [from, len) for a batch of n streams.
// buf.xs must hold each stream's input to layer `from`; on return it holds
// the top layer's fresh hidden vectors.
func (c *Classifier) stepBatchLayers(buf *BatchBuffer, states []*State, n, from int) {
	for li := from; li < len(c.Layers); li++ {
		l := c.Layers[li]
		H := l.HiddenSize
		z := buf.z[li][:n*numGates*H]
		zu := buf.zu[li][:n*numGates*H]

		// Gate pre-activations for the whole batch: z = X·Wᵀ + H_prev·Uᵀ + B.
		// The two products run as separate overwriting GEMMs and combine
		// elementwise in Step's exact order (Wx, then +Uh, then +B), so the
		// SIMD kernel applies to both and the sums stay bitwise identical.
		l.W.MulRowsT(z, buf.xs[:n])
		for i := 0; i < n; i++ {
			buf.xs[i] = states[i].h[li]
		}
		l.U.MulRowsT(zu, buf.xs[:n])

		// Combine, activations and cell update, in place on each stream's
		// state. The pre-activations for the whole layer are complete, so
		// overwriting h/c here cannot feed back into this layer's gates.
		for i := 0; i < n; i++ {
			row := z[i*numGates*H : (i+1)*numGates*H]
			urow := zu[i*numGates*H : (i+1)*numGates*H]
			l.combineGatesCellUpdate(row, urow, states[i].h[li], states[i].c[li])
			// The next layer reads this layer's fresh hidden vector.
			buf.xs[i] = states[i].h[li]
		}
	}
}

// combineGatesCellUpdate fuses the batched epilogue into one pass per
// stream: combine the two GEMM products with the bias ((wx + uh) + b, the
// exact order of the unfused loops), activate the four gates and update
// c/h — without a second traversal of the 4H pre-activation rows and
// without writing activated gates back. Per element the operation chain is
// identical to the unfused form, so the fusion is bitwise-free.
func (l *LSTMLayer) combineGatesCellUpdate(row, urow, h, c []float64) {
	for j := range row {
		row[j] = (row[j] + urow[j]) + l.B[j]
	}
	l.gatesCellUpdate(row, h, c)
}

// stepBatchHead runs the batched dense head: logits = H_top·Wᵀ + B, reading
// the top hidden vectors from buf.xs.
func (c *Classifier) stepBatchHead(buf *BatchBuffer, scores [][]float64, n int) {
	K := c.Out.OutputSize
	logits := buf.logits[:n*K]
	c.Out.W.MulRowsT(logits, buf.xs[:n])
	for i := 0; i < n; i++ {
		row := logits[i*K : (i+1)*K]
		for j := range row {
			row[j] += c.Out.B[j]
		}
		copy(scores[i], row)
	}
}
