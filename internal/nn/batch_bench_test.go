package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"icsdetect/internal/mathx"
)

// benchShapes are the benchmarked models: the 2x32 corpus model over the
// gas-pipeline one-hot width and the paper's 2x256 network as the
// engine-wide-f64 benchmark workload trains it (6.3 MB of packed weights
// per step, past L2).
var benchShapes = []struct {
	name    string
	in      int
	hidden  []int
	classes int
}{
	{"2x32", 138, []int{32, 32}, 49},
	{"2x256", 51, []int{256, 256}, 56},
}

// benchWidths are the wave widths stepped: the single-vector kernel, a
// partial stream block, one AVX2 block, one AVX-512 block and two.
var benchWidths = []int{1, 3, 4, 8, 16}

func benchSetup(b *testing.B, in int, hidden []int, classes, n int) (*Classifier, *BatchBuffer, []*State, [][]float64, [][]int, [][]float64) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c, err := NewClassifier(in, hidden, classes, 11)
	if err != nil {
		b.Fatal(err)
	}
	buf := c.NewBatchBuffer(n)
	states := make([]*State, n)
	dense := make([][]float64, n)
	idxs := make([][]int, n)
	scores := make([][]float64, n)
	// One active bucket per feature block, as the input encoder produces.
	block := in / 13
	for i := range states {
		states[i] = c.NewState()
		dense[i] = make([]float64, in)
		for f := 0; f < 13; f++ {
			col := f*block + rng.Intn(block)
			dense[i][col] = 1
			idxs[i] = append(idxs[i], col)
		}
		scores[i] = make([]float64, classes)
	}
	return c, buf, states, dense, idxs, scores
}

// benchStep runs step over every kernel tier x shape x width (select with
// -bench 'Name/avx2/2x256') and reports ns per stepped stream beside the
// per-wave ns/op, so widths compare directly.
func benchStep(b *testing.B, step func(c *Classifier, buf *BatchBuffer, states []*State, dense [][]float64, idxs [][]int, scores [][]float64)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"scalar", false, false}} {
		for _, shape := range benchShapes {
			for _, n := range benchWidths {
				b.Run(fmt.Sprintf("%s/%s/n=%d", tier.name, shape.name, n), func(b *testing.B) {
					defer mathx.SetSIMDEnabled(mathx.SetSIMDEnabled(tier.simd))
					defer mathx.SetAVX512Enabled(mathx.SetAVX512Enabled(tier.avx512))
					c, buf, states, dense, idxs, scores := benchSetup(b, shape.in, shape.hidden, shape.classes, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step(c, buf, states, dense, idxs, scores)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/stream")
				})
			}
		}
	}
}

func BenchmarkStepBatchDense(b *testing.B) {
	benchStep(b, func(c *Classifier, buf *BatchBuffer, states []*State, dense [][]float64, _ [][]int, scores [][]float64) {
		c.StepBatchLogits(buf, states, dense, scores)
	})
}

func BenchmarkStepBatchOneHot(b *testing.B) {
	benchStep(b, func(c *Classifier, buf *BatchBuffer, states []*State, _ [][]float64, idxs [][]int, scores [][]float64) {
		c.StepBatchLogitsOneHot(buf, states, idxs, scores)
	})
}

// BenchmarkStepSeqOneHot steps the same streams one by one: what the
// batched step is measured against.
func BenchmarkStepSeqOneHot(b *testing.B) {
	benchStep(b, func(c *Classifier, _ *BatchBuffer, states []*State, _ [][]float64, idxs [][]int, scores [][]float64) {
		for i, s := range states {
			c.StepLogitsOneHot(s, idxs[i], scores[i])
		}
	})
}
