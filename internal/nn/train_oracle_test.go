package nn

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// The per-window reference trainer of the classifier, kept as the bitwise
// oracle of the lock-step trainer (batchTrainer over lstmTrace): the
// allocating one-timestep LSTM forward and backward (stepForward,
// stepBackward), the dense head's Forward/Backward, lossForwardBackward —
// truncated BPTT over one window — and trainOracle, Train's minibatch
// loop driven window by window on one goroutine. The reconstruction nets'
// oracle (recon_oracle_test.go) is built from the same primitives. For the
// same windows in the same order the lock-step pass must reproduce every
// gradient, every loss and so every trained parameter bit for bit, on
// every kernel tier.

// lstmStepCache holds everything the backward pass needs for one timestep.
type lstmStepCache struct {
	x     []float64 // input at t
	hPrev []float64 // h_{t-1}
	cPrev []float64 // c_{t-1}
	gates []float64 // post-activation (i,f,o,g), length 4H
	c     []float64 // c_t
	tanhC []float64 // τ(c_t)
	h     []float64 // h_t
}

// stepForward advances one timestep. x, hPrev and cPrev are not retained by
// the layer; the returned cache aliases the slices it allocates.
func (l *LSTMLayer) stepForward(x, hPrev, cPrev []float64) *lstmStepCache {
	H := l.HiddenSize
	z := make([]float64, numGates*H)
	l.W.MulVec(z, x)
	l.U.MulVecAdd(z, hPrev)
	for i := range z {
		z[i] += l.B[i]
	}
	gates := z // reuse storage: overwrite pre-activations with activations
	for h := 0; h < H; h++ {
		gates[gateI*H+h] = mathx.Sigmoid(z[gateI*H+h])
		gates[gateF*H+h] = mathx.Sigmoid(z[gateF*H+h])
		gates[gateO*H+h] = mathx.Sigmoid(z[gateO*H+h])
		gates[gateG*H+h] = math.Tanh(z[gateG*H+h])
	}
	c := make([]float64, H)
	tanhC := make([]float64, H)
	h := make([]float64, H)
	for j := 0; j < H; j++ {
		c[j] = gates[gateF*H+j]*cPrev[j] + gates[gateI*H+j]*gates[gateG*H+j]
		tanhC[j] = math.Tanh(c[j])
		h[j] = gates[gateO*H+j] * tanhC[j]
	}
	return &lstmStepCache{
		x: x, hPrev: hPrev, cPrev: cPrev,
		gates: gates, c: c, tanhC: tanhC, h: h,
	}
}

// stepBackward backpropagates one timestep. dh is ∂L/∂h_t (including the
// contribution flowing back from t+1), dc is ∂L/∂c_t carried from t+1.
// It accumulates parameter gradients into g and returns ∂L/∂x_t, ∂L/∂h_{t-1}
// and ∂L/∂c_{t-1}.
func (l *LSTMLayer) stepBackward(cache *lstmStepCache, dh, dc []float64, g *lstmGrads) (dx, dhPrev, dcPrev []float64) {
	H := l.HiddenSize
	dz := make([]float64, numGates*H)
	dcPrev = make([]float64, H)
	for j := 0; j < H; j++ {
		i := cache.gates[gateI*H+j]
		f := cache.gates[gateF*H+j]
		o := cache.gates[gateO*H+j]
		gg := cache.gates[gateG*H+j]
		tc := cache.tanhC[j]

		do := dh[j] * tc
		dcj := dc[j] + dh[j]*o*(1-tc*tc)

		di := dcj * gg
		df := dcj * cache.cPrev[j]
		dg := dcj * i
		dcPrev[j] = dcj * f

		dz[gateI*H+j] = di * i * (1 - i)
		dz[gateF*H+j] = df * f * (1 - f)
		dz[gateO*H+j] = do * o * (1 - o)
		dz[gateG*H+j] = dg * (1 - gg*gg)
	}

	g.dW.AddOuter(1, dz, cache.x)
	g.dU.AddOuter(1, dz, cache.hPrev)
	for i, v := range dz {
		g.dB[i] += v
	}

	dx = make([]float64, l.InputSize)
	l.W.MulVecT(dx, dz)
	dhPrev = make([]float64, H)
	l.U.MulVecT(dhPrev, dz)
	return dx, dhPrev, dcPrev
}

// Forward computes logits = W·h + b into dst.
func (d *Dense) Forward(dst, h []float64) {
	d.W.MulVec(dst, h)
	for i := range dst {
		dst[i] += d.B[i]
	}
}

// Backward accumulates gradients for dLogits at input h and returns
// ∂L/∂h.
func (d *Dense) Backward(dLogits, h []float64, g *denseGrads) []float64 {
	g.dW.AddOuter(1, dLogits, h)
	for i, v := range dLogits {
		g.dB[i] += v
	}
	dh := make([]float64, d.InputSize)
	d.W.MulVecT(dh, dLogits)
	return dh
}

// lossForwardBackward runs truncated BPTT over one window starting from a
// zero state, accumulating gradients into g. It returns the summed
// cross-entropy loss and the number of scored steps.
func (c *Classifier) lossForwardBackward(seq *Sequence, g *GradBuffer) (loss float64, steps int) {
	T := len(seq.Inputs)
	if T == 0 {
		return 0, 0
	}
	L := len(c.Layers)
	caches := make([][]*lstmStepCache, L)
	for i := range caches {
		caches[i] = make([]*lstmStepCache, T)
	}
	hidden := make([][]float64, L)
	cell := make([][]float64, L)
	for i, l := range c.Layers {
		hidden[i] = make([]float64, l.HiddenSize)
		cell[i] = make([]float64, l.HiddenSize)
	}
	probs := make([][]float64, T)
	tops := make([][]float64, T) // last-layer h per step, for dense backward

	// Forward.
	logits := make([]float64, c.Out.OutputSize)
	for t := 0; t < T; t++ {
		cur := seq.Inputs[t]
		for i, l := range c.Layers {
			cache := l.stepForward(cur, hidden[i], cell[i])
			caches[i][t] = cache
			hidden[i] = cache.h
			cell[i] = cache.c
			cur = cache.h
		}
		tops[t] = cur
		if seq.Targets[t] >= 0 {
			c.Out.Forward(logits, cur)
			p := make([]float64, len(logits))
			mathx.Softmax(p, logits)
			probs[t] = p
			loss += -math.Log(math.Max(p[seq.Targets[t]], 1e-12))
			steps++
		}
	}

	// Backward through time.
	dh := make([][]float64, L)
	dc := make([][]float64, L)
	for i, l := range c.Layers {
		dh[i] = make([]float64, l.HiddenSize)
		dc[i] = make([]float64, l.HiddenSize)
	}
	for t := T - 1; t >= 0; t-- {
		if probs[t] != nil {
			dLogits := make([]float64, len(probs[t]))
			copy(dLogits, probs[t])
			dLogits[seq.Targets[t]] -= 1 // softmax cross-entropy gradient
			dhOut := c.Out.Backward(dLogits, tops[t], g.dense)
			mathx.Axpy(dh[L-1], 1, dhOut)
		}
		for i := L - 1; i >= 0; i-- {
			dx, dhPrev, dcPrev := c.Layers[i].stepBackward(caches[i][t], dh[i], dc[i], g.lstm[i])
			dh[i] = dhPrev
			dc[i] = dcPrev
			if i > 0 {
				mathx.Axpy(dh[i-1], 1, dx)
			}
		}
	}
	g.Steps += steps
	return loss, steps
}

// trainOracle is Train driven window by window through the reference
// pass, on one goroutine, into one gradient buffer.
func trainOracle(c *Classifier, seqs []Sequence, cfg TrainConfig) (float64, error) {
	cfg.defaults()
	windows := MakeWindows(seqs, cfg.Window)
	rng := mathx.NewRNG(cfg.Seed)
	opt := NewAdam(cfg.LR)
	params := c.Params()
	g := c.NewGradBuffer()
	var finalLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		if cfg.LRDecayEpoch > 0 && epoch == cfg.LRDecayEpoch && cfg.LRDecayFactor > 0 {
			opt.LR *= cfg.LRDecayFactor
		}
		rng.Shuffle(len(windows), func(i, j int) {
			windows[i], windows[j] = windows[j], windows[i]
		})
		var epochLoss float64
		var epochSteps int
		for start := 0; start < len(windows); start += cfg.BatchSize {
			g.Zero()
			var batchLoss float64
			for i := start; i < min(start+cfg.BatchSize, len(windows)); i++ {
				loss, steps := c.lossForwardBackward(&windows[i], g)
				batchLoss += loss
				epochSteps += steps
			}
			g.ClipAndScale(cfg.ClipNorm)
			if err := opt.Step(params, g.Slices()); err != nil {
				return 0, err
			}
			c.InvalidateInference()
			epochLoss += batchLoss
		}
		if epochSteps > 0 {
			finalLoss = epochLoss / float64(epochSteps)
		}
	}
	return finalLoss, nil
}

// checkClassifierBatch runs batch through bt as one minibatch and through
// the oracle window by window, and requires bit-identical per-window
// losses, scored-step counts and gradient tensors.
func checkClassifierBatch(t *testing.T, c *Classifier, bt *batchTrainer, batch []Sequence) {
	t.Helper()
	loss, steps := bt.run(batch)
	want := c.NewGradBuffer()
	var wantLoss float64
	for i := range batch {
		l, _ := c.lossForwardBackward(&batch[i], want)
		if math.Float64bits(bt.loss[i]) != math.Float64bits(l) {
			t.Fatalf("%d windows: window %d loss %v, oracle %v", len(batch), i, bt.loss[i], l)
		}
		wantLoss += l
	}
	if math.Float64bits(loss) != math.Float64bits(wantLoss) || steps != want.Steps || bt.grads.Steps != want.Steps {
		t.Fatalf("%d windows: loss/steps (%v, %d, buffer %d), oracle (%v, %d)",
			len(batch), loss, steps, bt.grads.Steps, wantLoss, want.Steps)
	}
	gs, ws := bt.grads.Slices(), want.Slices()
	for k := range ws {
		for j := range ws[k] {
			if math.Float64bits(gs[k][j]) != math.Float64bits(ws[k][j]) {
				t.Fatalf("%d windows: gradient tensor %d[%d] = %v, oracle %v", len(batch), k, j, gs[k][j], ws[k][j])
			}
		}
	}
}

// fuzzClassifierBatch is FuzzReconTrainBatch's classifier kind: a stack
// of 1–3 LSTM layers of up to H units over D inputs, N windows of ragged
// lengths in [1, T] with some negative (unscored) targets, trained in
// minibatches of B through one trainer, bitwise against the oracle on
// every kernel tier.
func fuzzClassifierBatch(t *testing.T, T, D, H, N, B int, seed uint64) {
	rng := mathx.NewRNG(seed)
	hidden := make([]int, 1+seed%3)
	for i := range hidden {
		hidden[i] = 1 + rng.Intn(H)
	}
	K := 1 + rng.Intn(9)
	batch := make([]Sequence, N)
	for w := range batch {
		for i := 1 + rng.Intn(T); i > 0; i-- {
			x := make([]float64, D)
			for j := range x {
				x[j] = rng.Range(-1, 1)
			}
			tgt := rng.Intn(K)
			if rng.Bernoulli(0.25) {
				tgt = -1
			}
			batch[w].Inputs = append(batch[w].Inputs, x)
			batch[w].Targets = append(batch[w].Targets, tgt)
		}
	}
	forEachKernelTier(t, func(t *testing.T) {
		c, err := NewClassifier(D, hidden, K, seed)
		if err != nil {
			t.Fatal(err)
		}
		bt := newBatchTrainer(c, B, T)
		defer bt.stop()
		for start := 0; start < N; start += B {
			checkClassifierBatch(t, c, bt, batch[start:min(start+B, N)])
		}
	})
}
