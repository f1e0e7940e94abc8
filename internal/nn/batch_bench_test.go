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

// stepBench is one benchmarked model with n streams of state and input at
// both precisions: the f64 classifier and its float32 inference snapshot
// stepping the same one-hot index sets.
type stepBench struct {
	c      *Classifier
	buf    *BatchBuffer
	states []*State
	dense  [][]float64
	idxs   [][]int
	scores [][]float64

	m32      *InferModel32
	buf32    *BatchBuffer32
	states32 []*State32
	scores32 [][]float32
}

func benchSetup(b *testing.B, in int, hidden []int, classes, n int) *stepBench {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	c, err := NewClassifier(in, hidden, classes, 11)
	if err != nil {
		b.Fatal(err)
	}
	m32 := c.Infer32()
	sb := &stepBench{
		c: c, buf: c.NewBatchBuffer(n), states: make([]*State, n),
		dense: make([][]float64, n), idxs: make([][]int, n), scores: make([][]float64, n),
		m32: m32, buf32: m32.NewBatchBuffer(n), states32: make([]*State32, n),
		scores32: make([][]float32, n),
	}
	// One active bucket per feature block, as the input encoder produces.
	block := in / 13
	for i := range sb.states {
		sb.states[i] = c.NewState()
		sb.states32[i] = m32.NewState()
		sb.dense[i] = make([]float64, in)
		for f := 0; f < 13; f++ {
			col := f*block + rng.Intn(block)
			sb.dense[i][col] = 1
			sb.idxs[i] = append(sb.idxs[i], col)
		}
		sb.scores[i] = make([]float64, classes)
		sb.scores32[i] = make([]float32, classes)
	}
	return sb
}

// benchStep runs step over every kernel tier x shape x width (select with
// -bench 'Name/avx2/2x256') and reports ns per stepped stream beside the
// per-wave ns/op, so widths compare directly.
func benchStep(b *testing.B, step func(sb *stepBench)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{{"avx512", true, true}, {"avx2", true, false}, {"scalar", false, false}} {
		for _, shape := range benchShapes {
			for _, n := range benchWidths {
				b.Run(fmt.Sprintf("%s/%s/n=%d", tier.name, shape.name, n), func(b *testing.B) {
					defer mathx.SetSIMDEnabled(mathx.SetSIMDEnabled(tier.simd))
					defer mathx.SetAVX512Enabled(mathx.SetAVX512Enabled(tier.avx512))
					sb := benchSetup(b, shape.in, shape.hidden, shape.classes, n)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						step(sb)
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/stream")
				})
			}
		}
	}
}

func BenchmarkStepBatchDense(b *testing.B) {
	benchStep(b, func(sb *stepBench) {
		sb.c.StepBatchLogits(sb.buf, sb.states, sb.dense, sb.scores)
	})
}

func BenchmarkStepBatchOneHot(b *testing.B) {
	benchStep(b, func(sb *stepBench) {
		sb.c.StepBatchLogitsOneHot(sb.buf, sb.states, sb.idxs, sb.scores)
	})
}

// BenchmarkStepSeqOneHot steps the same streams one by one: what the
// batched step is measured against.
func BenchmarkStepSeqOneHot(b *testing.B) {
	benchStep(b, func(sb *stepBench) {
		for i, s := range sb.states {
			sb.c.StepLogitsOneHot(s, sb.idxs[i], sb.scores[i])
		}
	})
}

// BenchmarkStepBatchOneHot32 and BenchmarkStepSeqOneHot32 are the float32
// inference snapshot's twins of the two one-hot benchmarks above.
func BenchmarkStepBatchOneHot32(b *testing.B) {
	benchStep(b, func(sb *stepBench) {
		sb.m32.StepBatchLogitsOneHot(sb.buf32, sb.states32, sb.idxs, sb.scores32)
	})
}

func BenchmarkStepSeqOneHot32(b *testing.B) {
	benchStep(b, func(sb *stepBench) {
		for i, s := range sb.states32 {
			sb.m32.StepLogitsOneHot(s, sb.idxs[i], sb.scores32[i])
		}
	})
}
