package mathx

import "sync/atomic"

// simdEpoch is bumped by every kernel-tier override (SetSIMDEnabled,
// SetAVX512Enabled) so lazily packed weight layouts built under one tier can
// detect that the tier changed and rebuild. Weight *mutation* is a separate
// concern: callers that mutate a packed matrix must drop their PackedGEMV
// and re-pack (see nn's invalidation hooks).
var simdEpoch atomic.Uint64

// SIMDEpoch returns the current kernel-tier epoch.
func SIMDEpoch() uint64 { return simdEpoch.Load() }

// PackedGEMV is a tile-packed read-only copy of a Matrix for the product
// m·x — of one vector (Apply) or of every stream of a wave in one pass over
// the tiles (ApplyBatch) — laid out so SIMD kernels can vectorize across
// output rows: tiles of `lanes` consecutive rows, column-major within the
// tile (data[(t*cols+k)*lanes + l] = m[t*lanes+l, k]). One ymm/zmm lane per
// output row turns the GEMV into dense vertical multiply-adds with
// contiguous stores — the per-lane summation association is exactly Dot's
// (aligned groups of four columns summed left-to-right, sequential tail),
// so Apply is bitwise-identical to MulVec on every tier, including the
// scalar fallback (lanes == 0), which simply calls Dot per row.
type PackedGEMV struct {
	lanes int // SIMD width at pack time: 8 (AVX-512), 4 (AVX2), 0 (scalar)
	rows  int
	cols  int
	data  []float64 // tiled rows; row tail (rows % lanes) reads src directly
	src   *Matrix
	epoch uint64
}

// Apply epilogue modes. The associations match the dense reference paths:
// GemvAdd computes dst + dot (MulVecAdd), GemvAddBias (dst + dot) + bias
// (MulVecAdd followed by a bias loop), GemvSetBias dot + bias (MulVec
// followed by a bias loop).
const (
	GemvSet = iota
	GemvAdd
	GemvAddBias
	GemvSetBias
)

// PackGEMV builds the packed layout for the current kernel tier. The pack
// keeps a reference to m for the row tail and the scalar fallback; it is
// valid only while m's values are unchanged — mutate m and the pack must be
// dropped.
func PackGEMV(m *Matrix) *PackedGEMV {
	p := &PackedGEMV{
		lanes: gemvLanes(),
		rows:  m.Rows,
		cols:  m.Cols,
		src:   m,
		epoch: simdEpoch.Load(),
	}
	if p.lanes > 0 {
		tiles := p.rows / p.lanes
		p.data = make([]float64, tiles*p.cols*p.lanes)
		idx := 0
		for t := 0; t < tiles; t++ {
			base := t * p.lanes
			for k := 0; k < p.cols; k++ {
				for l := 0; l < p.lanes; l++ {
					p.data[idx] = m.Data[(base+l)*p.cols+k]
					idx++
				}
			}
		}
	}
	return p
}

// Stale reports whether the kernel tier changed since the pack was built
// (the pack still computes identical bits, but would run the wrong tier's
// kernel — rebuild to honor the override).
func (p *PackedGEMV) Stale() bool { return p.epoch != simdEpoch.Load() }

// Apply computes dst = m·x combined per the mode epilogue, bitwise-identical
// to the MulVec/MulVecAdd + bias-loop reference. bias may be nil for
// GemvSet/GemvAdd.
func (p *PackedGEMV) Apply(dst, x, bias []float64, mode int) {
	p.ApplyBatch([][]float64{dst}, [][]float64{x}, bias, mode)
}

// ApplyBatch is Apply(dst[s], xs[s], bias, mode) for every stream s of a
// wave, bitwise-identical per stream, in one pass over the packed tiles:
// each tile is fetched once and serves every stream (blocks of eight or
// four streams per tile on the SIMD tiers), where per-stream Apply calls
// re-stream the whole matrix once per stream. Without a usable SIMD pack
// (scalar tier, or a stale pack whose tier is switched off) streams advance
// four at a time through the register tile MulRowsT runs on.
func (p *PackedGEMV) ApplyBatch(dst, xs [][]float64, bias []float64, mode int) {
	if len(dst) != len(xs) {
		panic("mathx: packed gemv batch size mismatch")
	}
	for s := range xs {
		if len(dst[s]) != p.rows || len(xs[s]) != p.cols {
			panic("mathx: packed gemv shape mismatch")
		}
	}
	if mode >= GemvAddBias && len(bias) != p.rows {
		panic("mathx: packed gemv bias length mismatch")
	}
	if len(xs) == 0 {
		return
	}
	done, s := 0, 0
	if p.lanes > 0 {
		if tiles := p.rows / p.lanes; tiles > 0 && gemvSIMD(p, dst, xs, bias, mode, tiles) {
			done = tiles * p.lanes
		}
	}
	if done == 0 {
		for ; s+4 <= len(xs); s += 4 {
			mulRows4(p.src.Data, p.rows, p.cols, dst[s], dst[s+1], dst[s+2], dst[s+3], xs[s], xs[s+1], xs[s+2], xs[s+3], bias, mode)
		}
	}
	// What no tile covered: the row tail of every stream after a SIMD pass,
	// every row of the streams past the last four-stream block without one.
	for ; s < len(xs); s++ {
		d, x := dst[s], xs[s]
		for i := done; i < p.rows; i++ {
			d[i] = gemvOut(d[i], Dot(p.src.Row(i), x), bias, i, mode)
		}
	}
}

// gemvOut combines one output element's old value d and fresh dot product s
// per the mode epilogue.
func gemvOut[T float32 | float64](d, s T, bias []T, i, mode int) T {
	switch mode {
	case GemvSet:
		return s
	case GemvAdd:
		return d + s
	case GemvAddBias:
		return (d + s) + bias[i]
	default: // GemvSetBias
		return s + bias[i]
	}
}
