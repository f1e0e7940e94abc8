//go:build amd64

package mathx

// gemm8f32avx is the AVX2 microkernel behind Matrix32.MulRowsT
// (gemm32_amd64.s): eight streams per ymm lane, Dot32-identical association
// per lane.
//
//go:noescape
func gemm8f32avx(w *float32, stride, rows int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemm16f32avx512 is the AVX-512 microkernel behind Matrix32.MulRowsT:
// sixteen streams per zmm lane, Dot32-identical association per lane.
//
//go:noescape
func gemm16f32avx512(w *float32, stride, rows int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemm8x2f32avx512 is the row-pair AVX-512 microkernel behind
// PackedGEMM32.MulRowsT: eight streams × two adjacent weight rows per zmm
// (lane 2s = stream s row j, lane 2s+1 = stream s row j+1), fed by
// VBROADCASTSD of the packed 64-bit weight pair. Each lane accumulates its
// (stream, row) product chain in Dot32's exact association — the pairing
// only doubles how much work one broadcast feeds, it never reorders a sum.
//
//go:noescape
func gemm8x2f32avx512(wp *float32, stride, pairs int, xt *float32, kn int, dst *float32, dstStride int, cont bool)

// gemv8f32avx runs the packed f32 single-vector product (gemm32_amd64.s):
// tiles of eight output rows per ymm, Dot32-identical association per lane,
// epilogue selected by mode (pack.go's Gemv* constants).
//
//go:noescape
func gemv8f32avx(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)

// gemv16f32avx512 is the 512-bit twin of gemv8f32avx: sixteen output rows
// per zmm.
//
//go:noescape
func gemv16f32avx512(p *float32, tiles, cols int, x *float32, dst *float32, bias *float32, mode int)

// vcombine8f32 is the fused elementwise combine kernel (gemm32_amd64.s):
// dst = (dst + u) + b, eight lanes per step, returning how many elements
// it handled (len&^7). Elementwise, so lane width never changes bits.
//
//go:noescape
func vcombine8f32(dst, u, b *float32, n int) int

// vcombine32SIMD runs the fused combine over the SIMD-divisible prefix and
// reports how much it covered; the caller finishes the tail.
func vcombine32SIMD(dst, u, b []float32) int {
	if !hasAVX || len(dst) < 8 {
		return 0
	}
	return vcombine8f32(&dst[0], &u[0], &b[0], len(dst))
}

// vgroupadd8f32 is the one-hot gather group kernel (gemm32_amd64.s):
// dst = [dst +] ((r0 + r1) + r2) + r3 truncated to rows addends, eight
// lanes per step over the 8-divisible prefix; returns the count handled.
//
//go:noescape
func vgroupadd8f32(dst, r0, r1, r2, r3 *float32, rows, n int, assign bool) int

// vgroupAdd32SIMD runs the gather-group combine over the SIMD-divisible
// prefix and reports how much it covered; the caller finishes the tail
// with the identical per-element expression.
func vgroupAdd32SIMD(dst, r0, r1, r2, r3 []float32, rows int, assign bool) int {
	if !hasAVX || len(dst) < 8 {
		return 0
	}
	return vgroupadd8f32(&dst[0], &r0[0], &r1[0], &r2[0], &r3[0], rows, len(dst), assign)
}

// gemvLanes32 returns the f32 packed-GEMV tile height for the effective
// tier — the full native f32 lane width, double gemvLanes's.
func gemvLanes32() int {
	switch {
	case hasAVX512:
		return 16
	case hasAVX:
		return 8
	default:
		return 0
	}
}

// GEMMBlock32 is GEMMBlock for the f32 kernels: 8, the AVX2 tile and the
// AVX-512 row-pair tile (16-wide blocks peel first), or 0 on the scalar
// tier. Below it Matrix32.MulRowsT has only the Go 4-wide tile and Dot32.
func GEMMBlock32() int {
	if hasAVX {
		return 8
	}
	return 0
}

// gemv32SIMD dispatches the packed f32 single-vector product to the tier
// the pack was built for; it reports false (pack unusable, caller falls
// back to the scalar rows) when that tier is no longer enabled.
func gemv32SIMD(p *PackedGEMV32, dst, x, bias []float32, mode int, tiles int) bool {
	if p.cols == 0 {
		return false
	}
	bp := &dst[0] // unread by modes without a bias; keeps the asm branch-free
	if bias != nil {
		bp = &bias[0]
	}
	switch p.lanes {
	case 16:
		if !hasAVX512 {
			return false
		}
		gemv16f32avx512(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	case 8:
		if !hasAVX {
			return false
		}
		gemv8f32avx(&p.data[0], tiles, p.cols, &x[0], &dst[0], bp, mode)
	default:
		return false
	}
	return true
}

// gemmChunkK32 is the packed-column chunk size for the f32 GEMM kernels:
// 8 lanes × 256 columns × 4 bytes = 8 KB of stack scratch per call (16 KB
// for the 16-lane kernel).
const gemmChunkK32 = 256

// mulRows8f32SIMD computes the eight-stream block dst(8×R, lane stride R) =
// [xs0;…;xs7]·mᵀ with the AVX2 kernel. Columns beyond gemmChunkK32 are
// processed in aligned chunks with the accumulator carried through dst, so
// the per-element association still matches Dot32 exactly.
func mulRows8f32SIMD(m *Matrix32, dst []float32, xs [][]float32) bool {
	if !hasAVX {
		return false
	}
	R, C := m.Rows, m.Cols
	x0, x1, x2, x3 := xs[0][:C], xs[1][:C], xs[2][:C], xs[3][:C]
	x4, x5, x6, x7 := xs[4][:C], xs[5][:C], xs[6][:C], xs[7][:C]
	var xt [8 * gemmChunkK32]float32
	for kc := 0; kc < C; kc += gemmChunkK32 {
		kn := C - kc
		if kn > gemmChunkK32 {
			kn = gemmChunkK32
		}
		for k := 0; k < kn; k++ {
			xt[8*k] = x0[kc+k]
			xt[8*k+1] = x1[kc+k]
			xt[8*k+2] = x2[kc+k]
			xt[8*k+3] = x3[kc+k]
			xt[8*k+4] = x4[kc+k]
			xt[8*k+5] = x5[kc+k]
			xt[8*k+6] = x6[kc+k]
			xt[8*k+7] = x7[kc+k]
		}
		gemm8f32avx(&m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
	}
	return true
}

// mulRows8x2f32SIMD computes the eight-stream block with the row-pair
// AVX-512 kernel over p's interleaved weights — same chunking and
// association contract as mulRows8f32SIMD at double the rows per pass. An
// odd final weight row is computed in Go with Dot32 itself, which IS the
// contract association.
func mulRows8x2f32SIMD(p *PackedGEMM32, dst []float32, xs [][]float32) bool {
	if !hasAVX512 {
		return false
	}
	R, C := p.m.Rows, p.m.Cols
	var xt [16 * gemmChunkK32]float32
	for kc := 0; kc < C && R >= 2; kc += gemmChunkK32 {
		kn := C - kc
		if kn > gemmChunkK32 {
			kn = gemmChunkK32
		}
		for s := 0; s < 8; s++ {
			x := xs[s][:C]
			for k := 0; k < kn; k++ {
				xt[16*k+2*s] = x[kc+k]
				xt[16*k+2*s+1] = x[kc+k]
			}
		}
		gemm8x2f32avx512(&p.pairs[2*kc], 2*C, R/2, &xt[0], kn, &dst[0], R, kc > 0)
	}
	if R&1 == 1 {
		row := p.m.Data[(R-1)*C : R*C]
		for s := 0; s < 8; s++ {
			dst[s*R+R-1] = Dot32(row, xs[s][:C])
		}
	}
	return true
}

// mulRows16f32SIMD computes the sixteen-stream block dst(16×R, lane stride
// R) = [xs0;…;xs15]·mᵀ with the AVX-512 kernel — same chunking and
// association contract as mulRows8f32SIMD, sixteen accumulator chains per
// weight row.
func mulRows16f32SIMD(m *Matrix32, dst []float32, xs [][]float32) bool {
	if !hasAVX512 {
		return false
	}
	R, C := m.Rows, m.Cols
	var xt [16 * gemmChunkK32]float32
	for kc := 0; kc < C; kc += gemmChunkK32 {
		kn := C - kc
		if kn > gemmChunkK32 {
			kn = gemmChunkK32
		}
		for l := 0; l < 16; l++ {
			x := xs[l][:C]
			for k := 0; k < kn; k++ {
				xt[16*k+l] = x[kc+k]
			}
		}
		gemm16f32avx512(&m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
	}
	return true
}
