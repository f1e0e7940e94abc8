//go:build !amd64

package mathx

// mulRows4SIMD reports that no SIMD kernel is available on this
// architecture; mulRowsT falls back to the scalar register tile.
func mulRows4SIMD(m *Matrix, dst []float64, x0, x1, x2, x3 []float64) bool {
	return false
}

// mulRows8SIMD reports that no SIMD kernel is available on this
// architecture; MulRowsT falls back to the four-stream scalar tile.
func mulRows8SIMD(m *Matrix, dst []float64, xs [][]float64) bool {
	return false
}

// chain4SIMD reports that no SIMD kernel is available on this architecture;
// chain4 falls back to the scalar tile.
func chain4SIMD(dst []float64, scal, vp []float64, steps, c int) bool {
	return false
}

// gemvLanes reports a zero tile height: PackGEMV keeps no packed data and
// Apply always runs the scalar per-row Dot path.
func gemvLanes() int { return 0 }

// gemvSIMD reports that no packed-GEMV kernel is available.
func gemvSIMD(p *PackedGEMV, dst, xs [][]float64, bias []float64, mode int, tiles int) bool {
	return false
}

// gatherSIMD reports that no one-hot gather kernel covered anything.
func gatherSIMD(dst []float64, wt *Matrix, idx []int) int { return 0 }

// SetSIMDEnabled is a no-op without SIMD kernels; it reports false (the
// previous — and only — state).
func SetSIMDEnabled(on bool) bool {
	return false
}

// SetAVX512Enabled is a no-op without SIMD kernels; it reports false (the
// previous — and only — state).
func SetAVX512Enabled(on bool) bool {
	return false
}

// SIMDTier names the only kernel tier on this architecture.
func SIMDTier() string { return "scalar" }
