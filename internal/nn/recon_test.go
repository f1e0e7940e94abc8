package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// reconNets builds one small instance of each reconstruction
// architecture over the stage family's window shape.
func reconNets(t, d int) map[string]ReconNet {
	return map[string]ReconNet{
		"ae":      NewAutoEncoder(t, d, 12, 3),
		"seq2seq": NewSeq2Seq(t, d, t/2, 12, 5),
		"cnn":     NewConvNet(t, d, 2, 10, 7),
	}
}

func randWindows(rng *mathx.RNG, n, t, d int) [][]float64 {
	xs := make([][]float64, n)
	for i := range xs {
		xs[i] = make([]float64, t*d)
		for j := range xs[i] {
			xs[i][j] = rng.Range(-2, 2)
		}
	}
	return xs
}

// TestReconBatchMatchesSequential: the batched scorer must reproduce the
// sequential Score bit-for-bit per window, for every architecture, batch
// width and kernel tier — the property the engine's batched WindowStage
// dispatch rests on.
func TestReconBatchMatchesSequential(t *testing.T) {
	const T, D = 4, 17
	rng := mathx.NewRNG(99)
	for name, net := range reconNets(T, D) {
		t.Run(name, func(t *testing.T) {
			for _, n := range []int{1, 2, 5, 16} {
				xs := randWindows(rng, n, T, D)
				forEachKernelTier(t, func(t *testing.T) {
					batch := net.NewBatch(n)
					got := make([]float64, n)
					batch.Score(got, xs)
					scratch := make([]float64, net.ScratchLen())
					for i := range xs {
						want := net.Score(xs[i], scratch)
						if math.Float64bits(got[i]) != math.Float64bits(want) {
							t.Fatalf("n=%d window %d: batch %v, sequential %v", n, i, got[i], want)
						}
					}
				})
			}
		})
	}
}

// TestReconScoreMatchesStepwise: AutoEncoder.Score, which computes the
// decoder's input product once per window, must equal the plain
// formulation — one full stepInfer per decoder step — bit for bit on
// every kernel tier, and the batched scorer must equal Score per row.
func TestReconScoreMatchesStepwise(t *testing.T) {
	const T, D, H = 4, 17, 12
	m := NewAutoEncoder(T, D, H, 3)
	stepwise := func(x []float64) float64 {
		z := make([]float64, numGates*H)
		h, c := make([]float64, H), make([]float64, H)
		hd, cd := make([]float64, H), make([]float64, H)
		pred := make([]float64, D)
		for t := 0; t < T; t++ {
			m.Enc.stepInfer(z, x[t*D:(t+1)*D], h, c)
		}
		var sum float64
		for t := 0; t < T; t++ {
			m.Dec.stepInfer(z, h, hd, cd)
			m.Out.forwardInfer(pred, hd)
			sum += sqErr(pred, x[t*D:(t+1)*D])
		}
		return sum / float64(T*D)
	}
	rng := mathx.NewRNG(17)
	scratch := make([]float64, m.ScratchLen())
	for _, n := range []int{1, 3, 8} {
		xs := randWindows(rng, n, T, D)
		forEachKernelTier(t, func(t *testing.T) {
			got := make([]float64, n)
			m.NewBatch(n).Score(got, xs)
			for i, x := range xs {
				want := stepwise(x)
				if seq := m.Score(x, scratch); math.Float64bits(seq) != math.Float64bits(want) {
					t.Fatalf("n=%d window %d: Score %v, stepwise %v", n, i, seq, want)
				}
				if math.Float64bits(got[i]) != math.Float64bits(want) {
					t.Fatalf("n=%d window %d: batch %v, stepwise %v", n, i, got[i], want)
				}
			}
		})
	}
}

// TestReconBatchReuse: a batch scorer fed different windows across calls
// (including narrower late batches, the shard's ragged tail) must not
// leak state between calls.
func TestReconBatchReuse(t *testing.T) {
	const T, D = 4, 17
	rng := mathx.NewRNG(41)
	for name, net := range reconNets(T, D) {
		t.Run(name, func(t *testing.T) {
			batch := net.NewBatch(8)
			scratch := make([]float64, net.ScratchLen())
			for call := 0; call < 3; call++ {
				n := []int{8, 3, 5}[call]
				xs := randWindows(rng, n, T, D)
				got := make([]float64, n)
				batch.Score(got, xs)
				for i := range xs {
					want := net.Score(xs[i], scratch)
					if math.Float64bits(got[i]) != math.Float64bits(want) {
						t.Fatalf("call %d window %d: batch %v, sequential %v", call, i, got[i], want)
					}
				}
			}
		})
	}
}

// TestReconGradientsNumeric checks every architecture's analytic
// backward pass — the lock-step trainer on a one-window minibatch —
// against central finite differences of the loss, on every parameter
// tensor. The loss surface is smooth except for the CNN's ReLU
// kink; the tolerance absorbs the usual finite-difference noise.
func TestReconGradientsNumeric(t *testing.T) {
	const T, D = 4, 5
	nets := map[string]ReconNet{
		"ae":      NewAutoEncoder(T, D, 6, 3),
		"seq2seq": NewSeq2Seq(T, D, 2, 6, 5),
		"cnn":     NewConvNet(T, D, 2, 6, 7),
	}
	rng := mathx.NewRNG(17)
	x := make([]float64, T*D)
	for i := range x {
		x[i] = rng.Range(-1, 1)
	}
	loss := func(net ReconNet, g reconGrads) float64 {
		zeroGrads(g)
		l := make([]float64, 1)
		net.newTrainer(1).trainBatch([][]float64{x}, g, l)
		return l[0]
	}
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			g := net.newGrads()
			loss(net, g)
			analytic := g.slices()
			params := net.params()
			scratchG := net.newGrads()
			const eps = 1e-6
			for pi, p := range params {
				// Check a strided subset: full sweeps over every weight are
				// slow and add nothing once representatives pass.
				stride := len(p.Data)/7 + 1
				for j := 0; j < len(p.Data); j += stride {
					orig := p.Data[j]
					p.Data[j] = orig + eps
					lp := loss(net, scratchG)
					p.Data[j] = orig - eps
					lm := loss(net, scratchG)
					p.Data[j] = orig
					numeric := (lp - lm) / (2 * eps)
					got := analytic[pi][j]
					diff := math.Abs(got - numeric)
					scale := math.Max(1, math.Max(math.Abs(got), math.Abs(numeric)))
					if diff/scale > 1e-5 {
						t.Errorf("%s param %d[%d]: analytic %v, numeric %v", name, pi, j, got, numeric)
					}
				}
			}
		})
	}
}

// TestTrainReconLossDecreases: a few epochs of Adam on structured
// windows must cut the reconstruction loss well below its starting
// point, deterministically from the seed, for every architecture.
func TestTrainReconLossDecreases(t *testing.T) {
	const T, D = 4, 17
	rng := mathx.NewRNG(3)
	// Structured data: smooth per-feature ramps plus small noise, so
	// there is something to learn.
	samples := make([][]float64, 64)
	for i := range samples {
		s := make([]float64, T*D)
		phase := rng.Range(0, 1)
		for ts := 0; ts < T; ts++ {
			for f := 0; f < D; f++ {
				s[ts*D+f] = math.Sin(phase+float64(ts)*0.5+float64(f)*0.3) + rng.Range(-0.05, 0.05)
			}
		}
		samples[i] = s
	}
	for name, net := range reconNets(T, D) {
		t.Run(name, func(t *testing.T) {
			scratch := make([]float64, net.ScratchLen())
			var before float64
			for _, s := range samples {
				before += net.Score(s, scratch)
			}
			before /= float64(len(samples))
			final, err := TrainRecon(net, samples, ReconTrainConfig{Epochs: 40, BatchSize: 16, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			var after float64
			for _, s := range samples {
				after += net.Score(s, scratch)
			}
			after /= float64(len(samples))
			t.Logf("%s: mean score %.5f -> %.5f (train loss %.5f)", name, before, after, final)
			if !(after < before*0.5) {
				t.Errorf("%s: training did not reduce reconstruction error: %v -> %v", name, before, after)
			}
			if net.Validate() != nil {
				t.Errorf("%s: net invalid after training: %v", name, net.Validate())
			}
		})
	}
}

// TestTrainReconDeterministic: same seed, same data → bitwise-identical
// weights; the stage registry's fingerprinting depends on it.
func TestTrainReconDeterministic(t *testing.T) {
	const T, D = 4, 17
	rng := mathx.NewRNG(5)
	samples := randWindows(rng, 40, T, D)
	train := func() *AutoEncoder {
		net := NewAutoEncoder(T, D, 10, 11)
		if _, err := TrainRecon(net, samples, ReconTrainConfig{Epochs: 3, BatchSize: 8, Seed: 2}); err != nil {
			t.Fatal(err)
		}
		return net
	}
	a, b := train(), train()
	for i := range a.Enc.W.Data {
		if math.Float64bits(a.Enc.W.Data[i]) != math.Float64bits(b.Enc.W.Data[i]) {
			t.Fatalf("training not deterministic at Enc.W[%d]", i)
		}
	}
	for i := range a.Out.B {
		if math.Float64bits(a.Out.B[i]) != math.Float64bits(b.Out.B[i]) {
			t.Fatalf("training not deterministic at Out.B[%d]", i)
		}
	}
}

// TestTrainReconAllocations: TrainRecon allocates only its per-call
// scratch — nothing per window, minibatch, timestep or epoch — so a
// 4× larger sample set over 4× the epochs makes the same allocations.
func TestTrainReconAllocations(t *testing.T) {
	const T, D = 4, 17
	samples := randWindows(mathx.NewRNG(9), 64, T, D)
	for name, net := range reconNets(T, D) {
		t.Run(name, func(t *testing.T) {
			allocs := func(n, epochs int) float64 {
				return testing.AllocsPerRun(3, func() {
					if _, err := TrainRecon(net, samples[:n], ReconTrainConfig{Epochs: epochs, BatchSize: 8}); err != nil {
						t.Fatal(err)
					}
				})
			}
			if small, large := allocs(16, 1), allocs(64, 4); small != large {
				t.Errorf("16 windows × 1 epoch: %v allocations; 64 windows × 4 epochs: %v", small, large)
			}
		})
	}
}

// BenchmarkTrainRecon trains each reconstruction net at the stage
// family's shape (4×17 windows, H = 32, the CNN's 32 filters of length 2)
// on 450 windows × 20 epochs — one stage's training in the all-levels
// stack. Run with -benchmem.
func BenchmarkTrainRecon(b *testing.B) {
	const T, D, H = 4, 17, 32
	samples := randWindows(mathx.NewRNG(1), 450, T, D)
	for _, k := range []struct {
		name string
		mk   func() ReconNet
	}{
		{"ae", func() ReconNet { return NewAutoEncoder(T, D, H, 1) }},
		{"seq2seq", func() ReconNet { return NewSeq2Seq(T, D, T/2, H, 1) }},
		{"cnn", func() ReconNet { return NewConvNet(T, D, 2, 32, 1) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := TrainRecon(k.mk(), samples, ReconTrainConfig{Epochs: 20, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
