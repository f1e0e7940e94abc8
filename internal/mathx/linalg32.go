package mathx

import "fmt"

// Float32 mirrors of the inference-side linear algebra. The f32 tier is a
// separate numeric contract from the f64 kernels: every f32 kernel — scalar
// Go, AVX2 and AVX-512 assembly alike — computes the SAME single-precision
// algorithm with the SAME summation association (Dot32's aligned groups of
// four summed left-to-right, then a sequential tail), so the three kernel
// tiers are bitwise-identical to each other in float32. Against the f64
// reference the results differ by rounding only; the detection stack gates
// that difference at the verdict level (see the f32 conformance suite).
//
// None of the f32 kernels use FMA: Go does not contract x*y+z on amd64, so
// the scalar mul-then-add chains match VMULPS/VADDPS exactly, and emulating
// an f32 FMA through float64 would double-round.

// Matrix32 is a dense row-major matrix of float32 values, the inference
// mirror of Matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32 // len == Rows*Cols, row-major
}

// NewMatrix32 allocates a zeroed rows x cols matrix.
func NewMatrix32(rows, cols int) *Matrix32 {
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// ToMatrix32 converts m elementwise with one float64→float32 rounding per
// element — the deterministic weight conversion behind the f32 inference
// snapshot.
func ToMatrix32(m *Matrix) *Matrix32 {
	out := NewMatrix32(m.Rows, m.Cols)
	for i, v := range m.Data {
		out.Data[i] = float32(v)
	}
	return out
}

// At returns the element at (i, j).
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at (i, j).
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// MulVec computes dst = m * x (GEMV), the f32 mirror of Matrix.MulVec.
func (m *Matrix32) MulVec(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: f32 gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = Dot32(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MulVecAdd computes dst += m * x without zeroing dst first.
func (m *Matrix32) MulVecAdd(dst, x []float32) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mathx: f32 gemv shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] += Dot32(m.Data[i*m.Cols:(i+1)*m.Cols], x)
	}
}

// MulVecT computes dst = mᵀ * x: dst[j] = Σ_i m[i,j]*x[i], accumulated as a
// plain sequential chain per output element exactly like Matrix.MulVecT.
func (m *Matrix32) MulVecT(dst, x []float32) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("mathx: f32 gemv-T shape mismatch (%dx%d by %d into %d)",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		Axpy32(dst, x[i], m.Data[i*m.Cols:(i+1)*m.Cols])
	}
}

// Transpose returns mᵀ as a fresh matrix (the layout OneHotGather32 wants).
func (m *Matrix32) Transpose() *Matrix32 {
	out := NewMatrix32(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// Dot32 returns the inner product of a and b in float32, with the same
// 4-way-unrolled association as the f64 Dot — the association every f32
// SIMD kernel replicates lane for lane.
func Dot32(a, b []float32) float32 {
	var s float32
	n := len(a) &^ 3
	for i := 0; i < n; i += 4 {
		s += a[i]*b[i] + a[i+1]*b[i+1] + a[i+2]*b[i+2] + a[i+3]*b[i+3]
	}
	for i := n; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy32 computes dst += a*x elementwise in float32.
func Axpy32(dst []float32, a float32, x []float32) {
	n := len(dst) &^ 3
	for i := 0; i < n; i += 4 {
		dst[i] += a * x[i]
		dst[i+1] += a * x[i+1]
		dst[i+2] += a * x[i+2]
		dst[i+3] += a * x[i+3]
	}
	for i := n; i < len(dst); i++ {
		dst[i] += a * x[i]
	}
}

// Fill32 assigns v to every element of dst.
func Fill32(dst []float32, v float32) {
	for i := range dst {
		dst[i] = v
	}
}

// ArgMax32 returns the index of the maximum element, or -1 for empty input.
func ArgMax32(v []float32) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
