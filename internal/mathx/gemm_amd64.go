//go:build amd64

package mathx

// cpuHasAVX reports AVX support with OS-enabled YMM state (implemented in
// gemm_amd64.s).
func cpuHasAVX() bool

// cpuHasAVX512 reports AVX-512F support with OS-enabled ZMM and opmask
// state (implemented in gemm_amd64.s).
func cpuHasAVX512() bool

// gemm4avx is the AVX microkernel behind MulRowsT (gemm_amd64.s): four
// streams per ymm lane, Dot-identical association per lane.
//
//go:noescape
func gemm4avx(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)

// gemm8avx512 is the AVX-512 microkernel behind MulRowsT (gemm_amd64.s):
// eight streams per zmm lane, Dot-identical association per lane. It is the
// 512-bit twin of gemm4avx — same packed-column layout, twice the streams.
//
//go:noescape
func gemm8avx512(w *float64, stride, rows int, xt *float64, kn int, dst *float64, dstStride int, cont bool)

// chain4avx is the AVX microkernel behind chain4 (gemm_amd64.s): four
// accumulator chains (dst rows, stride c) advance over n vectorizable
// columns, one rounded multiply-add per step per element, steps ascending.
//
//go:noescape
func chain4avx(dst *float64, scal *float64, vp *float64, steps, n, c int)

// gemv4avx runs the packed single-vector product (gemm_amd64.s): tiles of
// four output rows per ymm, Dot-identical association per lane, epilogue
// selected by mode (see pack.go's Gemv* constants).
//
//go:noescape
func gemv4avx(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)

// gemv8avx512 is the 512-bit twin of gemv4avx: eight output rows per zmm.
//
//go:noescape
func gemv8avx512(p *float64, tiles, cols int, x *float64, dst *float64, bias *float64, mode int)

// gemvbatch4avx runs the packed product for n streams in one pass over the
// tiles (gemvbatch_amd64.s): xs and dsts point at n slice headers, every
// stream's result bitwise-identical to gemv4avx on that stream.
//
//go:noescape
func gemvbatch4avx(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)

// gemvbatch8avx512 is the 512-bit twin of gemvbatch4avx: eight output rows
// per zmm, stream blocks of eight.
//
//go:noescape
func gemvbatch8avx512(p *float64, tiles, cols int, xs, dsts *[]float64, n int, bias *float64, mode int)

// Kernel-tier state: the cpu* flags are immutable hardware facts, the
// *Enabled flags are test/benchmark overrides, and hasAVX/hasAVX512 are the
// effective tier the kernels consult. Overrides are not safe to flip
// concurrently with kernel use (they exist so equivalence suites can pin a
// tier); every flip bumps simdEpoch so cached packed layouts rebuild.
var (
	cpuAVX    = cpuHasAVX()
	cpuAVX512 = cpuHasAVX512()

	simdEnabled   = true
	avx512Enabled = true

	hasAVX    = cpuAVX
	hasAVX512 = cpuAVX512
)

func recomputeTier() {
	hasAVX = simdEnabled && cpuAVX
	hasAVX512 = simdEnabled && avx512Enabled && cpuAVX512
	simdEpoch.Add(1)
}

// SetSIMDEnabled force-disables (false) or re-enables (true, subject to CPU
// support) every SIMD kernel — AVX-512 included — returning the previous
// state. It exists so equivalence tests and benchmarks can cover the
// assembly and pure-Go paths on the same machine; it is not safe to call
// concurrently with kernel use.
func SetSIMDEnabled(on bool) bool {
	prev := simdEnabled
	simdEnabled = on
	recomputeTier()
	return prev
}

// SetAVX512Enabled force-disables (false) or re-enables (true, subject to
// CPU support and the master SetSIMDEnabled switch) the AVX-512 kernels
// only, returning the previous state. With AVX-512 off the kernels drop to
// the AVX2 tier — the combination pins each of the three tiers:
// scalar (SetSIMDEnabled(false)), avx2 (SIMD on, AVX-512 off), avx512
// (both on). Same concurrency caveat as SetSIMDEnabled.
func SetAVX512Enabled(on bool) bool {
	prev := avx512Enabled
	avx512Enabled = on
	recomputeTier()
	return prev
}

// SIMDTier names the effective kernel tier: "avx512", "avx2" or "scalar".
func SIMDTier() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX:
		return "avx2"
	default:
		return "scalar"
	}
}

// gemvLanes returns the packed-GEMV tile height for the effective tier.
func gemvLanes() int {
	switch {
	case hasAVX512:
		return 8
	case hasAVX:
		return 4
	default:
		return 0
	}
}

// gemvSIMD dispatches the packed product of len(xs) ≥ 1 validated streams
// to the tier the pack was built for — the single-vector kernel for one
// stream, the one-pass multi-stream kernel for more; it reports false (pack
// unusable, caller falls back to the portable rows) when that tier is no
// longer enabled.
func gemvSIMD(p *PackedGEMV, dst, xs [][]float64, bias []float64, mode int, tiles int) bool {
	if p.cols == 0 || (p.lanes == 8 && !hasAVX512) || !hasAVX {
		return false
	}
	bp := &dst[0][0] // unread by modes without a bias; keeps the asm branch-free
	if bias != nil {
		bp = &bias[0]
	}
	switch n := len(xs); {
	case p.lanes == 8 && n == 1:
		gemv8avx512(&p.data[0], tiles, p.cols, &xs[0][0], &dst[0][0], bp, mode)
	case p.lanes == 8:
		gemvbatch8avx512(&p.data[0], tiles, p.cols, &xs[0], &dst[0], n, bp, mode)
	case n == 1:
		gemv4avx(&p.data[0], tiles, p.cols, &xs[0][0], &dst[0][0], bp, mode)
	default:
		gemvbatch4avx(&p.data[0], tiles, p.cols, &xs[0], &dst[0], n, bp, mode)
	}
	return true
}

// gemmChunkK is the packed-column chunk size: 4 lanes × 256 columns = 8 KB
// of stack scratch per call (16 KB for the 8-lane kernel).
const gemmChunkK = 256

// mulRows4SIMD computes the four-stream block dst(4×R, lane stride R) =
// [x0;x1;x2;x3]·mᵀ with the AVX kernel. Columns beyond gemmChunkK are
// processed in aligned chunks with the accumulator carried through dst, so
// the per-element association still matches Dot exactly. Only the
// overwriting form is provided: accumulate-into-dst would need a different
// association (dst + full-dot), which the chunked kernel cannot reproduce —
// batched callers compute separate products and combine them elementwise
// instead.
func mulRows4SIMD(m *Matrix, dst []float64, x0, x1, x2, x3 []float64) bool {
	if !hasAVX {
		return false
	}
	R, C := m.Rows, m.Cols
	var xt [4 * gemmChunkK]float64
	for kc := 0; kc < C; kc += gemmChunkK {
		kn := C - kc
		if kn > gemmChunkK {
			kn = gemmChunkK
		}
		for k := 0; k < kn; k++ {
			xt[4*k] = x0[kc+k]
			xt[4*k+1] = x1[kc+k]
			xt[4*k+2] = x2[kc+k]
			xt[4*k+3] = x3[kc+k]
		}
		gemm4avx(&m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
	}
	return true
}

// mulRows8SIMD computes the eight-stream block dst(8×R, lane stride R) =
// [xs0;…;xs7]·mᵀ with the AVX-512 kernel — same chunking and association
// contract as mulRows4SIMD, eight accumulator chains per weight row.
func mulRows8SIMD(m *Matrix, dst []float64, xs [][]float64) bool {
	if !hasAVX512 {
		return false
	}
	R, C := m.Rows, m.Cols
	x0, x1, x2, x3 := xs[0][:C], xs[1][:C], xs[2][:C], xs[3][:C]
	x4, x5, x6, x7 := xs[4][:C], xs[5][:C], xs[6][:C], xs[7][:C]
	var xt [8 * gemmChunkK]float64
	for kc := 0; kc < C; kc += gemmChunkK {
		kn := C - kc
		if kn > gemmChunkK {
			kn = gemmChunkK
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
		gemm8avx512(&m.Data[kc], C, R, &xt[0], kn, &dst[0], R, kc > 0)
	}
	return true
}

// chain4SIMD runs the four-chain tile with the AVX microkernel, delegating
// the column tail (c % 4) to the scalar tile; it reports false when AVX is
// unavailable so chain4 falls back to pure Go.
func chain4SIMD(dst []float64, scal, vp []float64, steps, c int) bool {
	if !hasAVX || steps == 0 || c == 0 {
		return false
	}
	n := c &^ 3
	if n > 0 {
		chain4avx(&dst[0], &scal[0], &vp[0], steps, n, c)
	}
	if n < c {
		chain4cols(dst, scal, vp, steps, c, n)
	}
	return true
}
