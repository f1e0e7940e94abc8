//go:build amd64

package mathx

// The one-hot gather kernels (onehot_amd64.s): dst = W·x for one stream's
// active set over the transposed weights, dst a chunk of registers at a
// time, in OneHotDot's association. n is the register-divisible prefix of
// dst and stride the row length of Wᵀ, both in bytes; aligned is the number
// of rows of Wᵀ in whole four-column groups.
//
//go:noescape
func gatherf64avx512(dst *float64, n int, wt *float64, stride int, idx *int, nidx, aligned int)

//go:noescape
func gatherf64avx(dst *float64, n int, wt *float64, stride int, idx *int, nidx, aligned int)

//go:noescape
func gatherf32avx512(dst *float32, n int, wt *float32, stride int, idx *int, nidx, aligned int)

//go:noescape
func gatherf32avx(dst *float32, n int, wt *float32, stride int, idx *int, nidx, aligned int)

// gatherSIMD runs the gather kernel of the effective tier over the
// register-divisible prefix of dst and reports how many elements it
// covered; the caller finishes the rest. idx must be non-empty and in
// range.
func gatherSIMD(dst []float64, wt *Matrix, idx []int) int {
	k := len(dst) &^ (gemvLanes() - 1) // 0 on the scalar tier
	switch {
	case k == 0:
	case hasAVX512:
		gatherf64avx512(&dst[0], 8*k, &wt.Data[0], 8*wt.Cols, &idx[0], len(idx), wt.Rows&^3)
	default:
		gatherf64avx(&dst[0], 8*k, &wt.Data[0], 8*wt.Cols, &idx[0], len(idx), wt.Rows&^3)
	}
	return k
}

// gatherSIMD32 is gatherSIMD for the f32 gather.
func gatherSIMD32(dst []float32, wt *Matrix32, idx []int) int {
	k := len(dst) &^ (gemvLanes32() - 1)
	switch {
	case k == 0:
	case hasAVX512:
		gatherf32avx512(&dst[0], 4*k, &wt.Data[0], 4*wt.Cols, &idx[0], len(idx), wt.Rows&^3)
	default:
		gatherf32avx(&dst[0], 4*k, &wt.Data[0], 4*wt.Cols, &idx[0], len(idx), wt.Rows&^3)
	}
	return k
}
