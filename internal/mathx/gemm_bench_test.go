package mathx

import (
	"fmt"
	"testing"
)

// BenchmarkGEMVvsGEMM compares, at LSTM-layer shape (4H x H for H=256) over
// 32 streams, 32 GEMVs against one 32-row GEMM against one packed
// multi-stream pass (ApplyBatch). x1 is one matrix (2 MB, about one L2);
// x3 cycles three matrices the way one 2x256 LSTM step does (U0, W1, U1 —
// 6.3 MB, well past L2), so the rows show what re-streaming the weights
// costs each route.
func BenchmarkGEMVvsGEMM(b *testing.B) {
	const rows, cols, batch = 1024, 256, 32
	rng := NewRNG(1)
	ms := []*Matrix{randomMatrix(rng, rows, cols), randomMatrix(rng, rows, cols), randomMatrix(rng, rows, cols)}
	packs := make([]*PackedGEMV, len(ms))
	for i, m := range ms {
		packs[i] = PackGEMV(m)
	}
	xs, dsts := make([][]float64, batch), make([][]float64, batch)
	dst := make([]float64, batch*rows)
	for i := range xs {
		xs[i] = randomVec(rng, cols)
		dsts[i] = dst[i*rows : (i+1)*rows]
	}
	for _, nm := range []int{1, 3} {
		run := func(name string, product func(i int)) {
			b.Run(fmt.Sprintf("%s/x%d", name, nm), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for k := 0; k < nm; k++ {
						product(k)
					}
				}
				b.ReportMetric(float64(b.N)*float64(nm)*batch*rows*cols*2/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
		run("gemv", func(k int) {
			for s := 0; s < batch; s++ {
				ms[k].MulVec(dsts[s], xs[s])
			}
		})
		run("gemv-packed", func(k int) {
			for s := 0; s < batch; s++ {
				packs[k].Apply(dsts[s], xs[s], nil, GemvSet)
			}
		})
		run("gemm", func(k int) { ms[k].MulRowsT(dst, xs) })
		run("packed", func(k int) { packs[k].ApplyBatch(dsts, xs, nil, GemvSet) })
	}
}
