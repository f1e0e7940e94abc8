package mathx

// Float32 one-hot kernels: the same aligned-group association contract as
// onehot.go, in the f32 tier. Dot32 (and the f32 GEMV/GEMM kernels, which
// replicate it per output element) sums columns in aligned groups of four;
// for a one-hot x the inactive terms drop out exactly, so the gather must
// sum actives left-to-right within each aligned group and add the group
// subtotals to the accumulator in ascending group order to stay
// bitwise-identical to the dense f32 product.

// OneHotDot32 returns Dot32(row, x) for the implicit one-hot vector x that
// is 1 at the columns idx and 0 elsewhere, bitwise-identical to the dense
// f32 product. idx must be strictly ascending and within [0, len(row)).
func OneHotDot32(row []float32, idx []int) float32 {
	n := len(row) &^ 3
	var s float32
	i := 0
	for i < len(idx) {
		j := idx[i]
		if j >= n {
			s += row[j]
			i++
			continue
		}
		g := j&^3 + 4
		t := row[j]
		i++
		for i < len(idx) && idx[i] < g {
			t += row[idx[i]]
			i++
		}
		s += t
	}
	return s
}

// MulVecOneHot computes dst = m·x for the one-hot x described by idx,
// bitwise-identical to m.MulVec against the dense f32 encoding. It is the
// row-major reference for OneHotGather32.
func (m *Matrix32) MulVecOneHot(dst []float32, idx []int) {
	for i := 0; i < m.Rows; i++ {
		dst[i] = OneHotDot32(m.Data[i*m.Cols:(i+1)*m.Cols], idx)
	}
}

// OneHotGather32 computes dst = W·x for the one-hot x described by idx,
// given wt = Wᵀ — the f32 mirror of OneHotGather with the identical
// grouping contract. idx must be strictly ascending and within
// [0, wt.Rows).
func OneHotGather32(dst []float32, wt *Matrix32, idx []int) {
	if len(dst) != wt.Cols {
		panic("mathx: f32 one-hot gather shape mismatch")
	}
	checkActives(idx, wt.Rows)
	if len(idx) == 0 {
		clear(dst)
		return
	}
	gatherCols(dst, wt.Data, wt.Cols, idx, wt.Rows&^3, gatherSIMD32(dst, wt, idx))
}
