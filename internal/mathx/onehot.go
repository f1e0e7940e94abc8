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
// bitwise-identical to the dense product. One kernel call covers the whole
// stream. idx must be strictly ascending and within [0, wt.Rows).
func OneHotGather(dst []float64, wt *Matrix, idx []int) {
	if len(dst) != wt.Cols {
		panic("mathx: one-hot gather shape mismatch")
	}
	checkActives(idx, wt.Rows)
	if len(idx) == 0 {
		clear(dst)
		return
	}
	gatherCols(dst, wt.Data, wt.Cols, idx, wt.Rows&^3, gatherSIMD(dst, wt, idx))
}

// checkActives panics on an active column outside [0, rows): the kernels
// read the rows the indices name without bounds checks.
func checkActives(idx []int, rows int) {
	for _, j := range idx {
		if uint(j) >= uint(rows) {
			panic("mathx: one-hot index out of range")
		}
	}
}

// gatherCols is the portable gather over dst[from:] for a non-empty active
// set — the scalar tier's whole gather and the SIMD tiers' tail: per aligned
// group, its actives summed left-to-right, then added to dst (assigned, for
// the first group), groups in ascending order, each active past the aligned
// columns a group of its own. data is Wᵀ's row-major storage with rows of
// stride elements.
func gatherCols[T float32 | float64](dst, data []T, stride int, idx []int, aligned, from int) {
	d := dst[from:]
	var r [4][]T
	for i, first := 0, true; i < len(idx); first = false {
		end := min(idx[i]&^3+4, aligned)
		n := 0
		for ; i < len(idx) && n < len(r) && (n == 0 || idx[i] < end); i++ {
			r[n] = data[idx[i]*stride+from:][:len(d)]
			n++
		}
		r0, r1, r2, r3 := r[0], r[1], r[2], r[3]
		switch {
		case n == 1 && first:
			copy(d, r0)
		case n == 1:
			for k := range d {
				d[k] += r0[k]
			}
		case n == 2 && first:
			for k := range d {
				d[k] = r0[k] + r1[k]
			}
		case n == 2:
			for k := range d {
				d[k] += r0[k] + r1[k]
			}
		case n == 3 && first:
			for k := range d {
				d[k] = r0[k] + r1[k] + r2[k]
			}
		case n == 3:
			for k := range d {
				d[k] += r0[k] + r1[k] + r2[k]
			}
		case first:
			for k := range d {
				d[k] = r0[k] + r1[k] + r2[k] + r3[k]
			}
		default:
			for k := range d {
				d[k] += r0[k] + r1[k] + r2[k] + r3[k]
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
