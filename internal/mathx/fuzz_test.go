package mathx

import (
	"math"
	"testing"
)

// eachTier runs f under every kernel tier override in turn, restoring the
// previous overrides after — forEachTier without subtests, for fuzz
// targets (on machines without the hardware an override is a no-op and f
// sees the same lower tier again).
func eachTier(f func()) {
	prevSIMD, prevAVX512 := SetSIMDEnabled(true), SetAVX512Enabled(true)
	defer func() {
		SetAVX512Enabled(prevAVX512)
		SetSIMDEnabled(prevSIMD)
	}()
	for _, tier := range [][2]bool{{true, true}, {true, false}, {false, false}} {
		SetSIMDEnabled(tier[0])
		SetAVX512Enabled(tier[1])
		f()
	}
}

// FuzzApplyBatch32: the f32 multi-stream packed product against per-stream
// Apply and the dense MulVec reference, bitwise, on every tier — random
// shapes (row tails against both lane widths, column tails, no columns),
// 1…17 streams, all four modes over pre-filled rows.
func FuzzApplyBatch32(f *testing.F) {
	f.Add(uint64(1), uint16(128), uint16(32), uint8(8), uint8(GemvAddBias))
	f.Add(uint64(2), uint16(17), uint16(7), uint8(16), uint8(GemvSet))
	f.Add(uint64(3), uint16(5), uint16(0), uint8(0), uint8(GemvAdd))
	f.Add(uint64(4), uint16(49), uint16(258), uint8(12), uint8(GemvSetBias))
	f.Fuzz(func(t *testing.T, seed uint64, rows, cols uint16, n, mode uint8) {
		r, c, streams := 1+int(rows)%160, int(cols)%300, 1+int(n)%17
		rng := NewRNG(seed)
		m := randMatrix32(rng, r, c)
		bias := randVec32(rng, r, 1)
		xs, base := make([][]float32, streams), make([][]float32, streams)
		for s := range xs {
			xs[s], base[s] = randVec32(rng, c, 1), randVec32(rng, r, 1)
		}
		eachTier(func() {
			requireApplyBatch32(t, m, PackGEMV32(m), xs, base, bias, int(mode)%4)
		})
	})
}

// FuzzOneHotGather: the one-kernel-call gather of both precisions against
// the row-major MulVecOneHot reference, bitwise, on every tier — active
// sets read from the fuzzed bitmap (several actives in one aligned group,
// actives in the column tail, none at all), outputs long enough for every
// kernel chunk width and the portable tail, over stale dst contents.
func FuzzOneHotGather(f *testing.F) {
	f.Add(uint64(1), uint16(128), uint8(138), []byte{0x0f, 0x02, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x03})
	f.Add(uint64(2), uint16(299), uint8(51), []byte(nil))
	f.Add(uint64(3), uint16(7), uint8(5), []byte{0x1f})
	f.Add(uint64(4), uint16(256), uint8(13), []byte{0x39, 0x1c})
	f.Fuzz(func(t *testing.T, seed uint64, out uint16, in uint8, actives []byte) {
		rows, cols := 1+int(out)%300, 1+int(in)%140
		var idx []int
		for j := 0; j < cols && j/8 < len(actives); j++ {
			if actives[j/8]>>(j%8)&1 == 1 {
				idx = append(idx, j)
			}
		}
		rng := NewRNG(seed)
		w := randomMatrix(rng, rows, cols)
		w32 := ToMatrix32(w)
		want, want32 := make([]float64, rows), make([]float32, rows)
		w.MulVecOneHot(want, idx)
		w32.MulVecOneHot(want32, idx)
		wt, wt32 := w.Transpose(), w32.Transpose()
		eachTier(func() {
			got, got32 := randomVec(rng, rows), randVec32(rng, rows, 1)
			OneHotGather(got, wt, idx)
			OneHotGather32(got32, wt32, idx)
			for i := range want {
				if !bitsEqual(got[i], want[i]) || !bits32Equal(got32[i], want32[i]) {
					t.Fatalf("%dx%d actives %v row %d: f64 gather %v, reference %v; f32 gather %x, reference %x (tier %s)",
						rows, cols, idx, i, got[i], want[i], math.Float32bits(got32[i]), math.Float32bits(want32[i]), SIMDTier())
				}
			}
		})
	})
}
