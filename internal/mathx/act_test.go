package mathx

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// actInputs builds input sets that exercise every branch of the scalar
// references: the tanh polynomial/rational/saturated regions, the sigmoid
// sign split, exp's overflow/underflow/denormal edges, and non-finite
// values.
func actInputs(rng *rand.Rand, n int) []float64 {
	xs := make([]float64, 0, n+32)
	special := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.624, 0.625, 0.626, -0.625,
		44.0, 44.014845965556524, 44.1, -44.1, 88.02, -88.03,
		700, -700, 708.3, -708.3, 709.7, 709.8, -745.2, -746,
		1000, -1000, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 5e-324,
	}
	xs = append(xs, special...)
	for len(xs) < n+len(special) {
		switch rng.Intn(4) {
		case 0: // gate pre-activation regime
			xs = append(xs, rng.NormFloat64()*4)
		case 1: // tanh polynomial region
			xs = append(xs, (rng.Float64()*2-1)*0.625)
		case 2: // wide
			xs = append(xs, (rng.Float64()*2-1)*100)
		default: // extreme
			xs = append(xs, (rng.Float64()*2-1)*800)
		}
	}
	return xs
}

func testActKernel(t *testing.T, name string, vec func(dst, src []float64), ref func(float64) float64) {
	t.Helper()
	forEachTier(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(1234))
		for trial := 0; trial < 50; trial++ {
			xs := actInputs(rng, 1+rng.Intn(200))
			want := make([]float64, len(xs))
			for i, x := range xs {
				want[i] = ref(x)
			}
			got := make([]float64, len(xs))
			vec(got, xs)
			for i := range xs {
				if !bitsEqual(got[i], want[i]) {
					t.Fatalf("%s trial=%d: x=%g (bits %016x): got %g (%016x), want %g (%016x)",
						name, trial, xs[i], math.Float64bits(xs[i]),
						got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
				}
			}
			// In-place operation must produce the same bits.
			inplace := append([]float64(nil), xs...)
			vec(inplace, inplace)
			for i := range xs {
				if !bitsEqual(inplace[i], want[i]) {
					t.Fatalf("%s trial=%d in-place: x=%g: got %016x, want %016x",
						name, trial, xs[i], math.Float64bits(inplace[i]), math.Float64bits(want[i]))
				}
			}
		}
	})
}

func TestVExpMatchesMathExp(t *testing.T) {
	testActKernel(t, "VExp", VExp, math.Exp)
}

func TestVSigmoidMatchesSigmoid(t *testing.T) {
	testActKernel(t, "VSigmoid", VSigmoid, Sigmoid)
}

func TestVTanhMatchesMathTanh(t *testing.T) {
	testActKernel(t, "VTanh", VTanh, math.Tanh)
}

// BenchmarkActivations times the vectorized activation kernels at both
// precisions on every kernel tier, over a 96-wide block (the three sigmoid
// gates of a 32-unit layer) and a 1024-wide one (all four gates at H = 256).
func BenchmarkActivations(b *testing.B) {
	forEachTier(b, func(b *testing.B) {
		for _, n := range []int{96, 1024} {
			benchActivation(b, "sigmoid/f64", n, VSigmoid)
			benchActivation(b, "tanh/f64", n, VTanh)
			benchActivation(b, "exp/f64", n, VExp)
			benchActivation(b, "sigmoid/f32", n, VSigmoid32)
			benchActivation(b, "tanh/f32", n, VTanh32)
			benchActivation(b, "exp/f32", n, VExp32)
		}
	})
}

func benchActivation[T float32 | float64](b *testing.B, name string, n int, kernel func(dst, src []T)) {
	rng := NewRNG(11)
	src, dst := make([]T, n), make([]T, n)
	for i := range src {
		src[i] = T(rng.Norm())
	}
	b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kernel(dst, src)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/elem")
	})
}
