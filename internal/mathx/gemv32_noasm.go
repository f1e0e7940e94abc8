//go:build !amd64

package mathx

// Non-amd64 stubs for the f32 SIMD layer: every dispatch reports "not
// handled" so the callers run their scalar paths, which are the f32
// numeric contract's reference implementation. The tier switches and
// epoch machinery live in gemm_noasm.go.

func gemvLanes32() int { return 0 }

func gemv32SIMD(p *PackedGEMV32, dst, xs [][]float32, bias []float32, mode int, tiles int) bool {
	return false
}

func gatherSIMD32(dst []float32, wt *Matrix32, idx []int) int { return 0 }
