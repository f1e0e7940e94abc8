//go:build amd64

package mathx

// gemv8f32avx runs the packed f32 single-vector product (gemv32_amd64.s):
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

// gemvbatch8f32avx runs the packed f32 product for n streams in one pass
// over the tiles (gemvbatch_amd64.s): xs and dsts point at n slice headers,
// every stream's result bitwise-identical to gemv8f32avx on that stream.
//
//go:noescape
func gemvbatch8f32avx(p *float32, tiles, cols int, xs, dsts *[]float32, n int, bias *float32, mode int)

// gemvbatch16f32avx512 is the 512-bit twin of gemvbatch8f32avx: sixteen
// output rows per zmm, stream blocks of eight.
//
//go:noescape
func gemvbatch16f32avx512(p *float32, tiles, cols int, xs, dsts *[]float32, n int, bias *float32, mode int)

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

// gemv32SIMD is gemvSIMD for the f32 pack: the single-vector kernel for
// one stream, the one-pass multi-stream kernel for more, false when the
// pack's tier is no longer enabled.
func gemv32SIMD(p *PackedGEMV32, dst, xs [][]float32, bias []float32, mode int, tiles int) bool {
	if p.cols == 0 || (p.lanes == 16 && !hasAVX512) || !hasAVX {
		return false
	}
	bp := &dst[0][0] // unread by modes without a bias; keeps the asm branch-free
	if bias != nil {
		bp = &bias[0]
	}
	switch n := len(xs); {
	case p.lanes == 16 && n == 1:
		gemv16f32avx512(&p.data[0], tiles, p.cols, &xs[0][0], &dst[0][0], bp, mode)
	case p.lanes == 16:
		gemvbatch16f32avx512(&p.data[0], tiles, p.cols, &xs[0], &dst[0], n, bp, mode)
	case n == 1:
		gemv8f32avx(&p.data[0], tiles, p.cols, &xs[0][0], &dst[0][0], bp, mode)
	default:
		gemvbatch8f32avx(&p.data[0], tiles, p.cols, &xs[0], &dst[0], n, bp, mode)
	}
	return true
}
