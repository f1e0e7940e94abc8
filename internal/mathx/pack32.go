package mathx

// PackedGEMV32 is the f32 mirror of PackedGEMV: a tile-packed read-only
// copy of a Matrix32 for the product m·x — of one vector (Apply) or of every
// stream of a wave in one pass over the tiles (ApplyBatch) — tiles of `lanes`
// consecutive rows column-major within the tile
// (data[(t*cols+k)*lanes + l] = m[t*lanes+l, k]). The f32 tiles run at full
// native lane width — 16 rows per zmm on AVX-512, 8 per ymm on AVX2 —
// twice the f64 pack's, which is where the f32 tier's GEMV speedup comes
// from. The per-lane association is Dot32's on every tier, so Apply is
// bitwise-identical to Matrix32.MulVec everywhere, including the scalar
// fallback.
type PackedGEMV32 struct {
	lanes int // SIMD width at pack time: 16 (AVX-512), 8 (AVX2), 0 (scalar)
	rows  int
	cols  int
	data  []float32 // tiled rows; row tail (rows % lanes) reads src directly
	src   *Matrix32
	epoch uint64
}

// PackGEMV32 builds the packed f32 layout for the current kernel tier. The
// pack keeps a reference to m for the row tail and the scalar fallback; it
// is valid only while m's values are unchanged.
func PackGEMV32(m *Matrix32) *PackedGEMV32 {
	p := &PackedGEMV32{
		lanes: gemvLanes32(),
		rows:  m.Rows,
		cols:  m.Cols,
		src:   m,
		epoch: simdEpoch.Load(),
	}
	if p.lanes > 0 {
		tiles := p.rows / p.lanes
		p.data = make([]float32, tiles*p.cols*p.lanes)
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

// Stale reports whether the kernel tier changed since the pack was built.
func (p *PackedGEMV32) Stale() bool { return p.epoch != simdEpoch.Load() }

// Apply computes dst = m·x combined per the mode epilogue (the shared
// Gemv* constants from pack.go, with the same operand-order contract),
// bitwise-identical to the MulVec/MulVecAdd + bias-loop f32 reference.
// bias may be nil for GemvSet/GemvAdd.
func (p *PackedGEMV32) Apply(dst, x, bias []float32, mode int) {
	p.ApplyBatch([][]float32{dst}, [][]float32{x}, bias, mode)
}

// ApplyBatch is Apply(dst[s], xs[s], bias, mode) for every stream s of a
// wave, bitwise-identical per stream, in one pass over the packed tiles —
// the f32 mirror of PackedGEMV.ApplyBatch, blocks of eight or four streams
// per tile. Without a usable SIMD pack (scalar tier, or a stale pack whose
// tier is switched off) streams advance four at a time through the same
// register tile the f64 product falls back to.
func (p *PackedGEMV32) ApplyBatch(dst, xs [][]float32, bias []float32, mode int) {
	if len(dst) != len(xs) {
		panic("mathx: f32 packed gemv batch size mismatch")
	}
	for s := range xs {
		if len(dst[s]) != p.rows || len(xs[s]) != p.cols {
			panic("mathx: f32 packed gemv shape mismatch")
		}
	}
	if mode >= GemvAddBias && len(bias) != p.rows {
		panic("mathx: f32 packed gemv bias length mismatch")
	}
	if len(xs) == 0 {
		return
	}
	done, s := 0, 0
	if p.lanes > 0 {
		if tiles := p.rows / p.lanes; tiles > 0 && gemv32SIMD(p, dst, xs, bias, mode, tiles) {
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
			d[i] = gemvOut(d[i], Dot32(p.src.Row(i), x), bias, i, mode)
		}
	}
}
