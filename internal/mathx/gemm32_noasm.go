//go:build !amd64

package mathx

// Non-amd64 stubs for the f32 SIMD layer: every dispatch reports "not
// handled" so the callers run their scalar paths, which are the f32
// numeric contract's reference implementation. The tier switches and
// epoch machinery live in gemm_noasm.go.

func gemvLanes32() int { return 0 }

func GEMMBlock32() int { return 0 }

func gemv32SIMD(p *PackedGEMV32, dst, x, bias []float32, mode int, tiles int) bool {
	return false
}

func mulRows8f32SIMD(m *Matrix32, dst []float32, xs [][]float32) bool { return false }

func mulRows8x2f32SIMD(p *PackedGEMM32, dst []float32, xs [][]float32) bool { return false }

func vcombine32SIMD(dst, u, b []float32) int { return 0 }

func vgroupAdd32SIMD(dst, r0, r1, r2, r3 []float32, rows int, assign bool) int { return 0 }

func mulRows16f32SIMD(m *Matrix32, dst []float32, xs [][]float32) bool { return false }
