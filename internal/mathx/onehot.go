package mathx

// One-hot kernels: the LSTM's level-1 inputs are concatenated one-hot
// blocks (one active column per discretized feature, plus an optional noise
// flag), so the input projection W·x is a column gather, not a matrix
// product. The kernels here compute that gather without materializing the
// dense vector, while reproducing the dense kernels' per-element summation
// association bit for bit.
//
// The association contract: Dot (and therefore MulVec, MulRowsT and the
// SIMD GEMM kernels, which all replicate Dot per output element) sums the
// columns in aligned groups of four — s += ((t0+t1)+t2)+t3 per group, then
// a sequential tail. For a one-hot x the inactive terms of a group are
// exact zeros that drop out of the partial sums, so the dense result equals
// the active weights summed left-to-right *within* each aligned four-column
// group, with the group subtotals added to the accumulator in ascending
// group order, then the tail actives added one by one. OneHotDot and
// OneHotGather reproduce exactly that order; collapsing the gather to one
// flat left-to-right sum would NOT be bitwise-identical whenever two active
// columns share a four-column group (the flat sum associates
// (s+t0)+t1 where the dense kernel computes s+(t0+t1)).

// OneHotDot returns Dot(row, x) for the implicit one-hot vector x that is
// 1 at the columns idx and 0 elsewhere, bitwise-identical to the dense
// product. idx must be strictly ascending and within [0, len(row)).
func OneHotDot(row []float64, idx []int) float64 {
	n := len(row) &^ 3
	var s float64
	i := 0
	for i < len(idx) {
		j := idx[i]
		if j >= n {
			// Sequential tail: one rounded add per active column.
			s += row[j]
			i++
			continue
		}
		// Aligned four-column group: actives sum left-to-right before
		// joining the accumulator, exactly like Dot's group subtotal.
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
// bitwise-identical to m.MulVec against the dense encoding. It is the
// row-major reference for OneHotGather (which walks a transposed layout and
// is what the inference hot path uses).
func (m *Matrix) MulVecOneHot(dst []float64, idx []int) {
	for i := 0; i < m.Rows; i++ {
		dst[i] = OneHotDot(m.Data[i*m.Cols:(i+1)*m.Cols], idx)
	}
}

// OneHotGather computes dst = W·x for the one-hot x described by idx, given
// wt = Wᵀ (wt.Row(j) is column j of W, so wt.Rows == W.Cols == the dense
// input dimension and wt.Cols == W.Rows == len(dst)). Each active column is
// one contiguous row of wt, so the gather is a handful of vector adds
// instead of a full GEMV; the grouping described above keeps the result
// bitwise-identical to the dense product. idx must be strictly ascending
// and within [0, wt.Rows).
func OneHotGather(dst []float64, wt *Matrix, idx []int) {
	if len(dst) != wt.Cols {
		panic("mathx: one-hot gather shape mismatch")
	}
	n := wt.Rows &^ 3
	first := true
	i := 0
	for i < len(idx) {
		j := idx[i]
		var cnt int
		if j >= n {
			cnt = 1 // tail actives join the accumulator one by one
		} else {
			g := j&^3 + 4
			cnt = 1
			for i+cnt < len(idx) && idx[i+cnt] < g {
				cnt++
			}
		}
		gatherGroup(dst, wt, idx[i:i+cnt], first)
		first = false
		i += cnt
	}
	if first {
		Fill(dst, 0)
	}
}

// gatherGroup adds one aligned group's subtotal — the active columns
// summed left-to-right — into dst (or assigns it, for the first group,
// matching the accumulator's zero start). The SIMD prefix computes the
// same per-element expression — subtotal chained left-to-right, then
// dst + subtotal — so it is bitwise-identical to the scalar tail by
// construction (elementwise, nothing reassociates).
func gatherGroup(dst []float64, wt *Matrix, idx []int, assign bool) {
	r0 := wt.Row(idx[0])
	r1, r2, r3 := r0, r0, r0
	if len(idx) > 1 {
		r1 = wt.Row(idx[1])
	}
	if len(idx) > 2 {
		r2 = wt.Row(idx[2])
	}
	if len(idx) > 3 {
		r3 = wt.Row(idx[3])
	}
	k := vgroupAddSIMD(dst, r0, r1, r2, r3, len(idx), assign)
	switch len(idx) {
	case 1:
		if assign {
			copy(dst[k:], r0[k:len(dst)])
		} else {
			for ; k < len(dst); k++ {
				dst[k] += r0[k]
			}
		}
	case 2:
		if assign {
			for ; k < len(dst); k++ {
				dst[k] = r0[k] + r1[k]
			}
		} else {
			for ; k < len(dst); k++ {
				dst[k] += r0[k] + r1[k]
			}
		}
	case 3:
		if assign {
			for ; k < len(dst); k++ {
				dst[k] = r0[k] + r1[k] + r2[k]
			}
		} else {
			for ; k < len(dst); k++ {
				dst[k] += r0[k] + r1[k] + r2[k]
			}
		}
	default:
		if assign {
			for ; k < len(dst); k++ {
				dst[k] = r0[k] + r1[k] + r2[k] + r3[k]
			}
		} else {
			for ; k < len(dst); k++ {
				dst[k] += r0[k] + r1[k] + r2[k] + r3[k]
			}
		}
	}
}

// Transpose returns mᵀ as a fresh matrix (the layout OneHotGather wants).
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}
