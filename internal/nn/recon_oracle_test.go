package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// The per-window reference trainer of the reconstruction nets, kept as
// the bitwise oracle of the lock-step trainer (reconTrainer): one
// forwardBackward per window on the allocating stepForward/stepBackward
// and Dense.Forward/Backward primitives, and trainReconOracle, the
// minibatch loop that drove it. For the same windows in the same order
// the lock-step pass must reproduce every gradient, every loss and so
// every trained parameter bit for bit, on every kernel tier.

// oracleNet is a ReconNet with its per-window reference pass.
type oracleNet interface {
	ReconNet
	forwardBackward(x []float64, g reconGrads) float64
}

// forwardBackward runs one window through the autoencoder, accumulates
// parameter gradients of the mean-squared-error loss into g, and returns
// the window's loss.
func (m *AutoEncoder) forwardBackward(x []float64, g reconGrads) float64 {
	ag := g.(*encDecGrads)
	H := m.Enc.HiddenSize
	T, D := m.T, m.D

	encCaches := make([]*lstmStepCache, T)
	h := make([]float64, H)
	c := make([]float64, H)
	for t := 0; t < T; t++ {
		cache := m.Enc.stepForward(x[t*D:(t+1)*D], h, c)
		encCaches[t] = cache
		h, c = cache.h, cache.c
	}
	code := h

	decCaches := make([]*lstmStepCache, T)
	preds := make([][]float64, T)
	hd := make([]float64, H)
	cd := make([]float64, H)
	var loss float64
	for t := 0; t < T; t++ {
		cache := m.Dec.stepForward(code, hd, cd)
		decCaches[t] = cache
		hd, cd = cache.h, cache.c
		pred := make([]float64, D)
		m.Out.Forward(pred, cache.h)
		preds[t] = pred
		loss += sqErr(pred, x[t*D:(t+1)*D])
	}
	inv := 1 / float64(T*D)

	dh := make([]float64, H)
	dc := make([]float64, H)
	dCode := make([]float64, H)
	dLogits := make([]float64, D)
	for t := T - 1; t >= 0; t-- {
		for j := 0; j < D; j++ {
			dLogits[j] = 2 * inv * (preds[t][j] - x[t*D+j])
		}
		dhOut := m.Out.Backward(dLogits, decCaches[t].h, ag.out)
		mathx.Axpy(dh, 1, dhOut)
		dx, dhPrev, dcPrev := m.Dec.stepBackward(decCaches[t], dh, dc, ag.dec)
		mathx.Axpy(dCode, 1, dx)
		dh, dc = dhPrev, dcPrev
	}

	dhE := dCode // every decoder step read the encoder's final hidden state
	dcE := make([]float64, H)
	for t := T - 1; t >= 0; t-- {
		_, dhPrev, dcPrev := m.Enc.stepBackward(encCaches[t], dhE, dcE, ag.enc)
		dhE, dcE = dhPrev, dcPrev
	}
	return loss * inv
}

// forwardBackward runs one window through the predictor, accumulates
// gradients of the mean-squared prediction error into g (backpropagating
// through the free-running feedback path), and returns the window's loss.
func (m *Seq2Seq) forwardBackward(x []float64, g reconGrads) float64 {
	sg := g.(*encDecGrads)
	H := m.Enc.HiddenSize
	T, D, W := m.T, m.D, m.Warm

	encCaches := make([]*lstmStepCache, W)
	h := make([]float64, H)
	c := make([]float64, H)
	for t := 0; t < W; t++ {
		cache := m.Enc.stepForward(x[t*D:(t+1)*D], h, c)
		encCaches[t] = cache
		h, c = cache.h, cache.c
	}

	decCaches := make([]*lstmStepCache, T)
	preds := make([][]float64, T)
	hd, cd := h, c
	u := x[(W-1)*D : W*D]
	var loss float64
	for t := W; t < T; t++ {
		cache := m.Dec.stepForward(u, hd, cd)
		decCaches[t] = cache
		hd, cd = cache.h, cache.c
		pred := make([]float64, D)
		m.Out.Forward(pred, cache.h)
		preds[t] = pred
		loss += sqErr(pred, x[t*D:(t+1)*D])
		u = pred
	}
	inv := 1 / float64((T-W)*D)

	dh := make([]float64, H)
	dc := make([]float64, H)
	dLogits := make([]float64, D)
	dPredNext := make([]float64, D) // ∂L/∂pred_t via the t+1 input path
	for t := T - 1; t >= W; t-- {
		for j := 0; j < D; j++ {
			dLogits[j] = 2*inv*(preds[t][j]-x[t*D+j]) + dPredNext[j]
		}
		dhOut := m.Out.Backward(dLogits, decCaches[t].h, sg.out)
		mathx.Axpy(dh, 1, dhOut)
		dx, dhPrev, dcPrev := m.Dec.stepBackward(decCaches[t], dh, dc, sg.dec)
		if t > W {
			copy(dPredNext, dx) // this step's input was pred_{t-1}
		}
		dh, dc = dhPrev, dcPrev
	}

	// dh/dc are now ∂L/∂(encoder final state), handed across the bridge.
	for t := W - 1; t >= 0; t-- {
		_, dhPrev, dcPrev := m.Enc.stepBackward(encCaches[t], dh, dc, sg.enc)
		dh, dc = dhPrev, dcPrev
	}
	return loss * inv
}

// forwardBackward runs one window through the CNN, accumulates gradients
// of the mean-squared prediction error into g, and returns the window's
// loss.
func (m *ConvNet) forwardBackward(x []float64, g reconGrads) float64 {
	cg := g.(*convGrads)
	P := m.positions()
	F := m.Filters.Rows
	D := m.D

	acts := make([][]float64, P)
	preds := make([][]float64, P)
	var loss float64
	for p := 0; p < P; p++ {
		win := x[p*D : p*D+m.K*D]
		a := make([]float64, F)
		m.Filters.MulVec(a, win)
		for f := 0; f < F; f++ {
			a[f] += m.Bias[f]
		}
		relu(a)
		acts[p] = a
		pred := make([]float64, D)
		m.Out.Forward(pred, a)
		preds[p] = pred
		loss += sqErr(pred, x[(p+m.K)*D:(p+m.K+1)*D])
	}
	inv := 1 / float64(P*D)

	dLogits := make([]float64, D)
	for p := 0; p < P; p++ {
		tgt := x[(p+m.K)*D : (p+m.K+1)*D]
		for j := 0; j < D; j++ {
			dLogits[j] = 2 * inv * (preds[p][j] - tgt[j])
		}
		dA := m.Out.Backward(dLogits, acts[p], cg.out)
		for f := 0; f < F; f++ {
			if acts[p][f] <= 0 { // ReLU inactive: no gradient
				dA[f] = 0
			}
		}
		cg.dW.AddOuter(1, dA, x[p*D:p*D+m.K*D])
		for f := 0; f < F; f++ {
			cg.dB[f] += dA[f]
		}
	}
	return loss * inv
}

// zeroGrads clears a gradient accumulator.
func zeroGrads(g reconGrads) {
	for _, s := range g.slices() {
		mathx.Fill(s, 0)
	}
}

// trainReconOracle is TrainRecon driven window by window through the
// reference pass.
func trainReconOracle(net oracleNet, samples [][]float64, cfg ReconTrainConfig) (float64, error) {
	cfg.defaults()
	rng := mathx.NewRNG(cfg.Seed)
	opt := NewAdam(cfg.LR)
	params := net.params()
	g := net.newGrads()
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(idx))
			zeroGrads(g)
			for _, k := range idx[start:end] {
				sum += net.forwardBackward(samples[k], g)
			}
			scaleAndClip(g.slices(), 1/float64(end-start), cfg.ClipNorm)
			if err := opt.Step(params, g.slices()); err != nil {
				return 0, err
			}
			net.invalidate()
		}
		epochLoss = sum / float64(len(idx))
	}
	return epochLoss, nil
}

// checkTrainBatch runs xs through tr as one minibatch and through the
// oracle window by window, and requires bit-identical per-window losses
// and gradient tensors.
func checkTrainBatch(t *testing.T, net oracleNet, tr reconTrainer, xs [][]float64) {
	t.Helper()
	got, want := net.newGrads(), net.newGrads()
	loss := make([]float64, len(xs))
	tr.trainBatch(xs, got, loss)
	for i, x := range xs {
		if l := net.forwardBackward(x, want); math.Float64bits(loss[i]) != math.Float64bits(l) {
			t.Fatalf("%d windows: window %d loss %v, oracle %v", len(xs), i, loss[i], l)
		}
	}
	gs, ws := got.slices(), want.slices()
	for k := range ws {
		for j := range ws[k] {
			if math.Float64bits(gs[k][j]) != math.Float64bits(ws[k][j]) {
				t.Fatalf("%d windows: gradient tensor %d[%d] = %v, oracle %v", len(xs), k, j, gs[k][j], ws[k][j])
			}
		}
	}
}

// TestReconTrainBatchMatchesOracle: every gradient tensor and every
// per-window loss of the lock-step pass equals the oracle's bit for bit,
// for every architecture, for batch widths on both sides of the 4- and
// 8-wide kernel blocks, each followed by a ragged minibatch through the
// same trainer, on every kernel tier.
func TestReconTrainBatchMatchesOracle(t *testing.T) {
	const T, D = 4, 17
	for name, net := range reconNets(T, D) {
		t.Run(name, func(t *testing.T) {
			forEachKernelTier(t, func(t *testing.T) {
				rng := mathx.NewRNG(7)
				for _, b := range []int{1, 3, 8, 32} {
					tr := net.newTrainer(b)
					for _, n := range []int{b, (b + 1) / 2} {
						checkTrainBatch(t, net.(oracleNet), tr, randWindows(rng, n, T, D))
					}
				}
			})
		})
	}
}

// TestTrainReconMatchesOracle: TrainRecon end to end — shuffle, ragged
// last minibatch, clipping, Adam — leaves the same parameters and returns
// the same loss, bit for bit, as the oracle-driven loop.
func TestTrainReconMatchesOracle(t *testing.T) {
	const T, D = 4, 17
	samples := randWindows(mathx.NewRNG(13), 37, T, D)
	cfg := ReconTrainConfig{Epochs: 3, BatchSize: 8, ClipNorm: 0.5, Seed: 4}
	nets, oracles := reconNets(T, D), reconNets(T, D)
	for name, net := range nets {
		t.Run(name, func(t *testing.T) {
			got, err := TrainRecon(net, samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := trainReconOracle(oracles[name].(oracleNet), samples, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("loss %v, oracle %v", got, want)
			}
			ps, ws := net.params(), oracles[name].params()
			for k := range ws {
				for j := range ws[k].Data {
					if math.Float64bits(ps[k].Data[j]) != math.Float64bits(ws[k].Data[j]) {
						t.Fatalf("param %d (%s)[%d] = %v, oracle %v", k, ws[k].Name, j, ps[k].Data[j], ws[k].Data[j])
					}
				}
			}
		})
	}
}

// FuzzReconTrainBatch draws a network — one of the three reconstruction
// architectures or, as the fourth kind, the classifier — its shape (T, D,
// H, the seq2seq warm-up or CNN kernel length), the window count, the
// minibatch width and the seed, and requires the lock-step trainer to
// match the oracle bit for bit on every minibatch, on every kernel tier.
// Every LSTM of every kind trains on the one lstmTrace.
func FuzzReconTrainBatch(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(17), uint8(32), uint8(9), uint8(4), uint64(1))
	f.Add(uint8(1), uint8(4), uint8(17), uint8(32), uint8(9), uint8(8), uint64(2))
	f.Add(uint8(2), uint8(4), uint8(17), uint8(32), uint8(9), uint8(3), uint64(3))
	f.Add(uint8(3), uint8(6), uint8(17), uint8(32), uint8(9), uint8(4), uint64(5))
	f.Fuzz(func(t *testing.T, kind, tt, d, h, n, b uint8, seed uint64) {
		T := 2 + int(tt)%7
		D := 1 + int(d)%20
		H := 1 + int(h)%36
		N := 1 + int(n)%20
		B := 1 + int(b)%N
		if kind%4 == 3 {
			fuzzClassifierBatch(t, T, D, H, N, B, seed)
			return
		}
		cut := 1 + int(seed%uint64(T-1)) // warm-up or kernel length, in [1, T)
		mk := func() oracleNet {
			switch kind % 4 {
			case 0:
				return NewAutoEncoder(T, D, H, seed)
			case 1:
				return NewSeq2Seq(T, D, cut, H, seed)
			}
			return NewConvNet(T, D, cut, H, seed)
		}
		xs := randWindows(mathx.NewRNG(seed), N, T, D)
		forEachKernelTier(t, func(t *testing.T) {
			net := mk()
			tr := net.newTrainer(B)
			for start := 0; start < N; start += B {
				checkTrainBatch(t, net, tr, xs[start:min(start+B, N)])
			}
		})
	})
}
