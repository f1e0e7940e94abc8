package mathx

import (
	"math"
	"testing"
)

// forEachTier runs f under each kernel tier override (on machines without
// the hardware the override is a no-op and the sub-tests all exercise the
// same lower tier — still a valid equivalence check). T is *testing.T or
// *testing.B.
func forEachTier[T interface{ Run(string, func(T)) bool }](t T, f func(T)) {
	for _, tier := range []struct {
		name         string
		simd, avx512 bool
	}{
		{"avx512", true, true},
		{"avx2", true, false},
		{"scalar", false, false},
	} {
		t.Run(tier.name, func(t T) {
			prevSIMD := SetSIMDEnabled(tier.simd)
			prevAVX512 := SetAVX512Enabled(tier.avx512)
			defer func() {
				SetAVX512Enabled(prevAVX512)
				SetSIMDEnabled(prevSIMD)
			}()
			f(t)
		})
	}
}

// bitsEqual is the strict equality the goldens rest on: identical bit
// patterns, ±0 distinguished.
func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// randomActives picks a random ascending index set over n columns, dense
// enough that aligned four-column groups frequently hold several actives —
// the case where a naive flat gather would diverge from Dot's association.
func randomActives(rng *RNG, n int) []int {
	var idx []int
	for j := 0; j < n; j++ {
		if rng.Float64() < 0.35 {
			idx = append(idx, j)
		}
	}
	return idx
}

func denseFromActives(n int, idx []int) []float64 {
	x := make([]float64, n)
	for _, j := range idx {
		x[j] = 1
	}
	return x
}

// TestOneHotDotMatchesDot: the sparse dot over an implicit one-hot vector
// must be bitwise-identical to the dense Dot, including when several active
// columns share an aligned four-column group and in the sequential tail.
func TestOneHotDotMatchesDot(t *testing.T) {
	rng := NewRNG(71)
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(48)
		row := randomVec(rng, n)
		idx := randomActives(rng, n)
		x := denseFromActives(n, idx)
		want := Dot(row, x)
		got := OneHotDot(row, idx)
		if !bitsEqual(got, want) {
			t.Fatalf("trial %d (n=%d, actives=%v): OneHotDot %v, Dot %v", trial, n, idx, got, want)
		}
	}
}

// TestMulVecOneHotMatchesMulVec covers the row-major sparse GEMV reference.
func TestMulVecOneHotMatchesMulVec(t *testing.T) {
	rng := NewRNG(72)
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(48)
		m := randomMatrix(rng, rows, cols)
		idx := randomActives(rng, cols)
		x := denseFromActives(cols, idx)
		want := make([]float64, rows)
		m.MulVec(want, x)
		got := make([]float64, rows)
		m.MulVecOneHot(got, idx)
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("trial %d row %d: sparse %v, dense %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestOneHotGatherMatchesMulVec: the transposed-layout gather — the actual
// inference fast path — must match the dense product bitwise, empty index
// sets included.
func TestOneHotGatherMatchesMulVec(t *testing.T) {
	rng := NewRNG(73)
	for trial := 0; trial < 60; trial++ {
		rows, cols := 1+rng.Intn(30), 1+rng.Intn(48)
		m := randomMatrix(rng, rows, cols)
		wt := m.Transpose()
		idx := randomActives(rng, cols)
		if trial%10 == 0 {
			idx = nil // empty set: gather must zero dst
		}
		x := denseFromActives(cols, idx)
		want := make([]float64, rows)
		m.MulVec(want, x)
		got := randomVec(rng, rows) // stale contents: gather must overwrite
		OneHotGather(got, wt, idx)
		for i := range want {
			if !bitsEqual(got[i], want[i]) {
				t.Fatalf("trial %d row %d (actives %v): gather %v, dense %v", trial, i, idx, got[i], want[i])
			}
		}
	}
}

// gemvReference is the dense reference of one Apply over a pre-filled dst:
// MulVec / MulVecAdd followed by the bias loop.
func gemvReference(m *Matrix, base, x, bias []float64, mode int) []float64 {
	want := append([]float64(nil), base...)
	if mode == GemvSet || mode == GemvSetBias {
		m.MulVec(want, x)
	} else {
		m.MulVecAdd(want, x)
	}
	if mode >= GemvAddBias {
		for i := range want {
			want[i] += bias[i]
		}
	}
	return want
}

// TestPackedGEMVMatchesMulVec: Apply must be bitwise-identical to the
// MulVec / MulVecAdd + bias-loop reference in all four epilogue modes, on
// every kernel tier, across shapes with row tails (rows % lanes) and odd
// column counts.
func TestPackedGEMVMatchesMulVec(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(74)
		for trial := 0; trial < 80; trial++ {
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
			m := randomMatrix(rng, rows, cols)
			p := PackGEMV(m)
			x := randomVec(rng, cols)
			bias := randomVec(rng, rows)
			base := randomVec(rng, rows)
			for mode := GemvSet; mode <= GemvSetBias; mode++ {
				want := gemvReference(m, base, x, bias, mode)
				got := make([]float64, rows)
				copy(got, base)
				p.Apply(got, x, bias, mode)
				for i := range want {
					if !bitsEqual(got[i], want[i]) {
						t.Fatalf("trial %d mode %d row %d (%dx%d): packed %v, reference %v",
							trial, mode, i, rows, cols, got[i], want[i])
					}
				}
			}
		}
	})
}

// TestPackedGEMVStale: a tier override after packing must mark the pack
// stale so cached layouts rebuild for the new tier.
func TestPackedGEMVStale(t *testing.T) {
	rng := NewRNG(75)
	m := randomMatrix(rng, 8, 8)
	p := PackGEMV(m)
	if p.Stale() {
		t.Fatal("fresh pack reported stale")
	}
	prev := SetSIMDEnabled(false)
	defer SetSIMDEnabled(prev)
	if !p.Stale() {
		t.Fatal("pack not stale after kernel-tier override")
	}
	// A stale pack still computes identical bits (the association is
	// tier-independent); staleness only signals the wrong tier would run.
	x := randomVec(rng, 8)
	want := make([]float64, 8)
	m.MulVec(want, x)
	got := make([]float64, 8)
	p.Apply(got, x, nil, GemvSet)
	for i := range want {
		if !bitsEqual(got[i], want[i]) {
			t.Fatalf("stale pack row %d: %v, want %v", i, got[i], want[i])
		}
	}
}

// TestMulRowsTWideBatches: batch widths that engage the eight-stream
// AVX-512 block (plus ragged tails through the four-stream and single-row
// paths) must stay bitwise-identical to one MulVec per stream on every
// tier.
func TestMulRowsTWideBatches(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(76)
		for _, streams := range []int{8, 9, 11, 13, 16, 23} {
			rows, cols := 1+rng.Intn(40), 1+rng.Intn(40)
			m := randomMatrix(rng, rows, cols)
			xs := make([][]float64, streams)
			for i := range xs {
				xs[i] = randomVec(rng, cols)
			}
			got := make([]float64, streams*rows)
			m.MulRowsT(got, xs)
			for i := 0; i < streams; i++ {
				want := make([]float64, rows)
				m.MulVec(want, xs[i])
				for j := range want {
					if !bitsEqual(got[i*rows+j], want[j]) {
						t.Fatalf("streams=%d stream %d row %d (%dx%d): batched %v, MulVec %v",
							streams, i, j, rows, cols, got[i*rows+j], want[j])
					}
				}
			}
		}
	})
}

// applyBatchWidths are the stream counts the multi-stream kernel is swept
// over: one stream (the single-vector kernel), every width up to two full
// eight-stream blocks plus a partial one, and multi-block waves.
func applyBatchWidths() []int {
	var ws []int
	for n := 1; n <= 2*8+3; n++ {
		ws = append(ws, n)
	}
	return append(ws, 33, 64)
}

// requireApplyBatch runs one ApplyBatch of n streams through p in every
// mode over pre-filled dst rows and requires each stream bitwise-equal to
// both Apply on that stream and the MulVec reference.
func requireApplyBatch(t *testing.T, rng *RNG, m *Matrix, p *PackedGEMV, n int) {
	t.Helper()
	xs, base := make([][]float64, n), make([][]float64, n)
	for s := range xs {
		xs[s], base[s] = randomVec(rng, m.Cols), randomVec(rng, m.Rows)
	}
	bias := randomVec(rng, m.Rows)
	for mode := GemvSet; mode <= GemvSetBias; mode++ {
		got := make([][]float64, n)
		for s := range got {
			got[s] = append([]float64(nil), base[s]...)
		}
		p.ApplyBatch(got, xs, bias, mode)
		for s := range got {
			want := gemvReference(m, base[s], xs[s], bias, mode)
			single := append([]float64(nil), base[s]...)
			p.Apply(single, xs[s], bias, mode)
			for i := range want {
				if !bitsEqual(got[s][i], want[i]) || !bitsEqual(single[i], want[i]) {
					t.Fatalf("%dx%d n=%d mode %d stream %d row %d: batch %v, apply %v, reference %v",
						m.Rows, m.Cols, n, mode, s, i, got[s][i], single[i], want[i])
				}
			}
		}
	}
}

// TestApplyBatchMatchesApply: the one-pass multi-stream product against
// per-stream Apply and MulVec, bitwise, on every tier — shapes with a row
// tail (rows mod lanes), every column-tail length, no columns at all,
// column counts past any chunk boundary, and every stream count from the
// single-vector kernel through partial, full and multiple stream blocks.
func TestApplyBatchMatchesApply(t *testing.T) {
	cols := []int{255, 256, 259, 515}
	for c := 0; c <= 19; c++ {
		cols = append(cols, c)
	}
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(77)
		for _, c := range cols {
			for _, rows := range []int{1 + rng.Intn(7), 8 + rng.Intn(9), 17 + rng.Intn(24)} {
				m := randomMatrix(rng, rows, c)
				p := PackGEMV(m)
				for _, n := range applyBatchWidths() {
					requireApplyBatch(t, rng, m, p, n)
				}
			}
		}
	})
}

// TestApplyBatchStalePack: a pack built under one tier and applied under
// another — its own kernel switched off, or a wider one switched on — must
// take whatever route is still valid and produce the same bits.
func TestApplyBatchStalePack(t *testing.T) {
	rng := NewRNG(78)
	m := randomMatrix(rng, 21, 13)
	forEachTier(t, func(t *testing.T) {
		p := PackGEMV(m)
		forEachTier(t, func(t *testing.T) {
			for _, n := range []int{1, 3, 8, 13} {
				requireApplyBatch(t, rng, m, p, n)
			}
		})
	})
}

// TestApplyBatchShapePanics: every length mismatch — batch sizes, one
// stream's x or dst, a short bias under a bias mode — panics before any
// stream is written, so no mismatched pointer can have reached a kernel.
func TestApplyBatchShapePanics(t *testing.T) {
	forEachTier(t, func(t *testing.T) {
		rng := NewRNG(79)
		const rows, cols, n = 16, 12, 9
		p := PackGEMV(randomMatrix(rng, rows, cols))
		fresh := func() (dst, xs [][]float64) {
			dst, xs = make([][]float64, n), make([][]float64, n)
			for s := range xs {
				dst[s], xs[s] = make([]float64, rows), randomVec(rng, cols)
			}
			return dst, xs
		}
		for name, f := range map[string]func(dst, xs [][]float64){
			"batch size": func(dst, xs [][]float64) { p.ApplyBatch(dst[:n-1], xs, nil, GemvSet) },
			"short x":    func(dst, xs [][]float64) { xs[5] = xs[5][:cols-1]; p.ApplyBatch(dst, xs, nil, GemvSet) },
			"long x":     func(dst, xs [][]float64) { xs[8] = make([]float64, cols+1); p.ApplyBatch(dst, xs, nil, GemvSet) },
			"short dst":  func(dst, xs [][]float64) { dst[7] = dst[7][:rows-1]; p.ApplyBatch(dst, xs, nil, GemvSet) },
			"nil bias":   func(dst, xs [][]float64) { p.ApplyBatch(dst, xs, nil, GemvAddBias) },
			"short bias": func(dst, xs [][]float64) { p.ApplyBatch(dst, xs, make([]float64, rows-1), GemvSetBias) },
		} {
			dst, xs := fresh()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s mismatch did not panic", name)
					}
				}()
				f(dst, xs)
			}()
			for s := range dst {
				for i, v := range dst[s] {
					if v != 0 {
						t.Fatalf("%s mismatch: stream %d row %d written (%v) before the panic", name, s, i, v)
					}
				}
			}
		}
		// An empty wave is a no-op.
		p.ApplyBatch(nil, nil, nil, GemvSet)
	})
}
