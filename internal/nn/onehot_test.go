// Property tests for the one-hot inference fast path: random sparse
// encodings driven through StepLogitsOneHot / StepBatchLogitsOneHot must be
// bitwise-identical — logits, hidden states and cell states — to the dense
// StepLogits / StepBatchLogits on the equivalent one-hot vectors, for every
// layer shape the detection stacks use and on every kernel tier. The
// batched test sweeps every batch width the stream-block routing
// distinguishes, against the sequential step as the reference.
package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// forEachKernelTier runs f under each kernel tier override; on machines
// without the hardware the override is a no-op and the sub-test exercises
// the next tier down.
func forEachKernelTier(t *testing.T, f func(t *testing.T)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{
		{"avx512", true, true},
		{"avx2", true, false},
		{"scalar", false, false},
	} {
		t.Run(tier.name, func(t *testing.T) {
			prevSIMD := mathx.SetSIMDEnabled(tier.simd)
			prevAVX512 := mathx.SetAVX512Enabled(tier.avx512)
			defer func() {
				mathx.SetAVX512Enabled(prevAVX512)
				mathx.SetSIMDEnabled(prevSIMD)
			}()
			f(t)
		})
	}
}

// onehotShapes covers the layer geometries the stacks instantiate: the 2x32
// corpus model over the gas-pipeline one-hot width, a single narrow layer, a
// deep ragged pyramid, hidden sizes that are not multiples of the 4/8-wide
// kernel blocks, a head whose row count is not a multiple of the tile height
// over a hidden size that leaves a column tail, and the paper's own 2x256
// network as the engine-wide-f64 benchmark workload trains it.
var onehotShapes = []onehotShape{
	{"paper-2x32", 138, []int{32, 32}, 49},
	{"single-16", 57, []int{16}, 11},
	{"deep-24-16-8", 91, []int{24, 16, 8}, 23},
	{"odd-13-7", 45, []int{13, 7}, 9},
	{"ragged-18-10", 29, []int{18, 10}, 13},
	{"wide-2x256", 51, []int{256, 256}, 56},
}

type onehotShape struct {
	name    string
	in      int
	hidden  []int
	classes int
}

// sweep thins a batch-width schedule for the paper-sized shape, where one
// step costs a hundred times the small shapes': every third width (every
// ninth under -short, which is how the race detector runs it), which still
// lands on partial, full and multiple stream blocks of every tier.
func (s onehotShape) sweep(widths []int) []int {
	if s.hidden[0] < 256 {
		return widths
	}
	stride := 3
	if testing.Short() {
		stride = 9
	}
	var thin []int
	for i := 1; i < len(widths); i += stride {
		thin = append(thin, widths[i])
	}
	return thin
}

// randomOneHot draws a strictly ascending active-index set over dim
// columns, dense enough that aligned gather groups often hold several
// actives, never empty (the encoder always sets at least one bucket).
func randomOneHot(rng *mathx.RNG, dim int) []int {
	var idx []int
	for j := 0; j < dim; j++ {
		if rng.Bernoulli(0.12) {
			idx = append(idx, j)
		}
	}
	if len(idx) == 0 {
		idx = append(idx, rng.Intn(dim))
	}
	return idx
}

func denseOneHot(dim int, idx []int) []float64 {
	x := make([]float64, dim)
	for _, j := range idx {
		x[j] = 1
	}
	return x
}

func requireBitsEqual(t *testing.T, what string, a, b []float64) {
	t.Helper()
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			t.Fatalf("%s[%d]: sparse %x dense %x", what, i, a[i], b[i])
		}
	}
}

func requireStatesEqual(t *testing.T, a, b *State) {
	t.Helper()
	for l := range a.h {
		requireBitsEqual(t, "h", a.h[l], b.h[l])
		requireBitsEqual(t, "c", a.c[l], b.c[l])
	}
}

// TestStepLogitsOneHotMatchesDense: the sequential sparse fast path against
// the dense StepLogits, stepped as one stream over many random packages.
func TestStepLogitsOneHotMatchesDense(t *testing.T) {
	const steps = 60
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 1234)
				if err != nil {
					t.Fatal(err)
				}
				rng := mathx.NewRNG(99)
				sparseState, denseState := c.NewState(), c.NewState()
				sparseScores := make([]float64, shape.classes)
				denseScores := make([]float64, shape.classes)
				for s := 0; s < steps; s++ {
					idx := randomOneHot(rng, shape.in)
					c.StepLogitsOneHot(sparseState, idx, sparseScores)
					c.StepLogits(denseState, denseOneHot(shape.in, idx), denseScores)
					requireBitsEqual(t, "logits", sparseScores, denseScores)
					requireStatesEqual(t, sparseState, denseState)
				}
			})
		})
	}
}

// sweepWidths is the batch-width schedule of the batched parity tests:
// every width from 1 to 2·widest+3 ascending — so each stream-block size,
// each partial block beside it and both sides of every routing boundary
// occur, and a buffer that starts empty grows several times mid-sequence —
// then a ragged shuffle, the shape the engine produces when streams join
// and leave shards. widest is the tier family's widest stream block.
func sweepWidths(widest int) []int {
	top := 2*widest + 3
	var ws []int
	for n := 1; n <= top; n++ {
		ws = append(ws, n)
	}
	return append(ws, 1, top, 4, 7, 2, 8, 3, top, 1, 5, 6, widest+1, top)
}

// TestStepBatchLogitsOneHotMatchesDense: the batched sparse path against
// both the batched dense path and the sequential sparse path, on every
// width the routing distinguishes (sweepWidths, plus 33 and 64: several
// stream blocks with and without a partial one), several steps per width
// with the states persisting throughout — each step advances a different
// prefix of the streams, so stream blocks, their partial tails and the
// gather groups all shift between steps.
func TestStepBatchLogitsOneHotMatchesDense(t *testing.T) {
	const widest, stepsPerWidth, maxStreams = 8, 3, 64
	for _, shape := range onehotShapes {
		t.Run(shape.name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				c, err := NewClassifier(shape.in, shape.hidden, shape.classes, 4321)
				if err != nil {
					t.Fatal(err)
				}
				rng := mathx.NewRNG(7)
				buf := c.NewBatchBuffer(maxStreams)
				denseBuf := c.NewBatchBuffer(maxStreams)
				sparse := make([]*State, maxStreams)
				dense := make([]*State, maxStreams)
				seq := make([]*State, maxStreams)
				for i := range sparse {
					sparse[i], dense[i], seq[i] = c.NewState(), c.NewState(), c.NewState()
				}
				seqScores := make([]float64, shape.classes)
				for _, n := range append(shape.sweep(sweepWidths(widest)), 33, maxStreams) {
					for step := 0; step < stepsPerWidth; step++ {
						idxs := make([][]int, n)
						xs := make([][]float64, n)
						sparseScores := make([][]float64, n)
						denseScores := make([][]float64, n)
						for i := 0; i < n; i++ {
							idxs[i] = randomOneHot(rng, shape.in)
							xs[i] = denseOneHot(shape.in, idxs[i])
							sparseScores[i] = make([]float64, shape.classes)
							denseScores[i] = make([]float64, shape.classes)
						}
						c.StepBatchLogitsOneHot(buf, sparse[:n], idxs, sparseScores)
						c.StepBatchLogits(denseBuf, dense[:n], xs, denseScores)
						for i := 0; i < n; i++ {
							c.StepLogitsOneHot(seq[i], idxs[i], seqScores)
							requireBitsEqual(t, "batch-vs-seq logits", sparseScores[i], seqScores)
							requireBitsEqual(t, "dense-vs-seq logits", denseScores[i], seqScores)
							requireStatesEqual(t, sparse[i], seq[i])
							requireStatesEqual(t, dense[i], seq[i])
						}
					}
				}
			})
		})
	}
}
