package nn

import (
	"fmt"
	"math"

	"icsdetect/internal/mathx"
)

// ReconTrainConfig controls TrainRecon. The zero value selects the
// defaults below.
type ReconTrainConfig struct {
	// Epochs is the number of passes over the sample set (default 20).
	Epochs int
	// BatchSize is the minibatch width (default 32).
	BatchSize int
	// LR is the Adam learning rate (default 1e-3).
	LR float64
	// ClipNorm is the global gradient-norm clip (default 5; <0 disables).
	ClipNorm float64
	// Seed drives the shuffle order (deterministic training).
	Seed uint64
}

func (c *ReconTrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 20
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 32
	}
	if c.LR <= 0 {
		c.LR = 1e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 5
	}
}

// TrainRecon fits a reconstruction network to normal-traffic window
// samples by minibatch Adam on the mean-squared reconstruction error,
// mirroring the classifier trainer's discipline: deterministic shuffle
// from the seed, per-batch gradient averaging with a global-norm clip,
// and inference-cache invalidation after every optimizer step. Each
// minibatch runs as one lock-step pass of all its windows (the net's
// reconTrainer), bitwise identical to running the per-window reference
// over the windows in order; all scratch is allocated here, once. It
// returns the final epoch's mean loss.
func TrainRecon(net ReconNet, samples [][]float64, cfg ReconTrainConfig) (float64, error) {
	cfg.defaults()
	if len(samples) == 0 {
		return 0, fmt.Errorf("nn: no samples to train reconstruction network")
	}
	t, d := net.InputDims()
	for i, s := range samples {
		if len(s) != t*d {
			return 0, fmt.Errorf("nn: sample %d has %d values, want %d×%d", i, len(s), t, d)
		}
	}
	rng := mathx.NewRNG(cfg.Seed)
	opt := NewAdam(cfg.LR)
	params := net.params()
	g := net.newGrads()
	grads := g.slices()
	maxB := min(cfg.BatchSize, len(samples))
	tr := net.newTrainer(maxB)
	batch := make([][]float64, 0, maxB)
	loss := make([]float64, maxB)
	idx := make([]int, len(samples))
	for i := range idx {
		idx[i] = i
	}
	var epochLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var sum float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			batch = batch[:0]
			for _, k := range idx[start:min(start+cfg.BatchSize, len(idx))] {
				batch = append(batch, samples[k])
			}
			for _, s := range grads {
				mathx.Fill(s, 0)
			}
			tr.trainBatch(batch, g, loss[:len(batch)])
			for _, l := range loss[:len(batch)] {
				sum += l
			}
			scaleAndClip(grads, 1/float64(len(batch)), cfg.ClipNorm)
			if err := opt.Step(params, grads); err != nil {
				return 0, err
			}
			net.invalidate()
		}
		epochLoss = sum / float64(len(idx))
	}
	return epochLoss, nil
}

// scaleAndClip averages the accumulated gradients by scale, then applies
// a global-norm clip — the same discipline as GradBuffer.ClipAndScale.
func scaleAndClip(grads [][]float64, scale, clipNorm float64) {
	var norm float64
	for _, s := range grads {
		for i := range s {
			s[i] *= scale
			norm += s[i] * s[i]
		}
	}
	norm = math.Sqrt(norm)
	if clipNorm > 0 && norm > clipNorm {
		k := clipNorm / norm
		for _, s := range grads {
			for i := range s {
				s[i] *= k
			}
		}
	}
}

// reconTrainer is one network's lock-step minibatch trainer. It holds the
// network and all the scratch a minibatch needs; the network never holds
// it, so the scratch lives exactly as long as one TrainRecon call.
//
// Its contract is lstmTrace's, which its LSTMs train on: for the same
// windows in the same order it accumulates the identical gradients and
// losses, bit for bit, as the per-window reference (recon_oracle_test.go).
// The dense heads and the CNN follow the trace's discipline: products run
// through the kernels whose per-element association equals the
// reference's GEMV primitives (MulRowsT ↔ MulVec, MulRows ↔ MulVecT),
// elementwise formulas keep the reference's expression shapes, and weight
// gradients are replayed after the backward sweep by one AddOuterSeq per
// tensor over the whole minibatch, in the reference's accumulation order.
type reconTrainer interface {
	// trainBatch runs the windows xs forward and backward in one
	// lock-step pass, accumulates their gradients into g (windows
	// ascending) and writes each window's loss into loss. len(xs) must
	// not exceed the maxBatch the trainer was built for.
	trainBatch(xs [][]float64, g reconGrads, loss []float64)
}

// encDecTrainer is the lock-step core shared by the two encoder-decoder
// nets: both LSTM traces plus the dense head's predictions and loss
// gradients, cached in the decoder's step order.
type encDecTrainer struct {
	enc, dec    lstmTrace
	out         *Dense
	preds, dlog []float64   // [n·S_dec·D]
	tmp         []float64   // [n·D] head product rows
	dst         []float64   // [n·H] head and decoder input-gradient rows
	rows, ins   [][]float64 // [n]
}

func newEncDecTrainer(enc, dec *LSTMLayer, out *Dense, maxB, encSteps, decSteps int) encDecTrainer {
	D := out.OutputSize
	return encDecTrainer{
		enc: newLSTMTrace(enc, maxB, encSteps), dec: newLSTMTrace(dec, maxB, decSteps), out: out,
		preds: make([]float64, maxB*decSteps*D), dlog: make([]float64, maxB*decSteps*D),
		tmp:  make([]float64, maxB*D),
		dst:  make([]float64, maxB*dec.HiddenSize),
		rows: make([][]float64, maxB), ins: make([][]float64, maxB),
	}
}

// encode runs the encoder over timesteps [0, steps) of the windows xs,
// each T·D channels-last.
func (tr *encDecTrainer) encode(xs [][]float64, steps int) {
	D := tr.enc.l.InputSize
	rows := tr.rows[:len(xs)]
	tr.enc.start(len(xs), nil)
	for t := 0; t < steps; t++ {
		for w, x := range xs {
			rows[w] = x[t*D : (t+1)*D]
		}
		tr.enc.forward(t, rows, nil)
	}
}

// headForward computes the head's predictions for decoder step t of n
// windows (W·h + b, the reference's order), caches them at their step rows
// and returns the rows.
func (tr *encDecTrainer) headForward(n, t int) [][]float64 {
	D, H := tr.out.OutputSize, tr.dec.l.HiddenSize
	rows, tmp := tr.rows[:n], tr.tmp[:n*D]
	for w := range rows {
		s := tr.dec.at(w, t)
		rows[w] = tr.dec.hs[s*H : (s+1)*H]
	}
	tr.out.W.MulRowsT(tmp, rows)
	for w := range rows {
		s := tr.dec.at(w, t)
		pred := tr.preds[s*D : (s+1)*D]
		for j := range pred {
			pred[j] = tmp[w*D+j] + tr.out.B[j]
		}
		rows[w] = pred
	}
	return rows
}

// headBackward adds dlog·W of decoder step t, whose loss gradients are in
// dlog already, into n windows' decoder dh carries.
func (tr *encDecTrainer) headBackward(n, t int) {
	D, H := tr.out.OutputSize, tr.dec.l.HiddenSize
	rows, dst := tr.rows[:n], tr.dst[:n*H]
	for w := range rows {
		s := tr.dec.at(w, t)
		rows[w] = tr.dlog[s*D : (s+1)*D]
	}
	tr.out.W.MulRows(dst, rows)
	mathx.Axpy(tr.dec.dh[:n*H], 1, dst)
}

// accumulate replays the head, decoder and encoder rows into g.
func (tr *encDecTrainer) accumulate(g *encDecGrads) {
	N, D := tr.dec.rows, tr.out.OutputSize
	g.out.dW.AddOuterSeq(tr.dlog[:N*D], tr.dec.hs[:N*tr.dec.l.HiddenSize], N)
	addRows(g.out.dB, tr.dlog[:N*D])
	tr.dec.accumulate(g.dec)
	tr.enc.accumulate(g.enc)
}

type aeTrainer struct {
	m *AutoEncoder
	encDecTrainer
	zw []float64 // [n·4H] each window's decoder input product W·code
}

func (m *AutoEncoder) newTrainer(maxB int) reconTrainer {
	return &aeTrainer{m, newEncDecTrainer(m.Enc, m.Dec, m.Out, maxB, m.T, m.T),
		make([]float64, maxB*numGates*m.Dec.HiddenSize)}
}

func (tr *aeTrainer) trainBatch(xs [][]float64, g reconGrads, loss []float64) {
	m := tr.m
	n, T, D, H := len(xs), m.T, m.D, m.Enc.HiddenSize
	enc, dec := &tr.enc, &tr.dec
	tr.encode(xs, T)
	// Every decoder step reads the code, the encoder's final h, so its
	// input product W·code is computed once per window.
	codes := tr.ins[:n]
	for w := range codes {
		codes[w] = enc.final(w)
	}
	zw := tr.zw[:n*numGates*H]
	m.Dec.W.MulRowsT(zw, codes)
	dec.start(n, nil)
	mathx.Fill(loss, 0)
	for t := 0; t < T; t++ {
		dec.forward(t, codes, zw)
		for w, pred := range tr.headForward(n, t) {
			loss[w] += sqErr(pred, xs[w][t*D:(t+1)*D])
		}
	}
	inv := 1 / float64(T*D)
	for t := T - 1; t >= 0; t-- {
		for w, x := range xs {
			s := dec.at(w, t)
			pred, dl := tr.preds[s*D:(s+1)*D], tr.dlog[s*D:(s+1)*D]
			for j := range dl {
				dl[j] = 2 * inv * (pred[j] - x[t*D+j])
			}
		}
		tr.headBackward(n, t)
		dx := tr.dst[:n*H]
		dec.backward(t, dx)
		mathx.Axpy(enc.dh[:n*H], 1, dx) // ∂L/∂code sums over the decoder steps
	}
	for t := T - 1; t >= 0; t-- {
		enc.backward(t, nil)
	}
	tr.accumulate(g.(*encDecGrads))
	for w := range loss {
		loss[w] *= inv
	}
}

type s2sTrainer struct {
	m *Seq2Seq
	encDecTrainer
	next []float64 // [n·D] ∂L/∂pred_t through step t+1's input
}

func (m *Seq2Seq) newTrainer(maxB int) reconTrainer {
	return &s2sTrainer{m, newEncDecTrainer(m.Enc, m.Dec, m.Out, maxB, m.Warm, m.T-m.Warm),
		make([]float64, maxB*m.D)}
}

func (tr *s2sTrainer) trainBatch(xs [][]float64, g reconGrads, loss []float64) {
	m := tr.m
	n, T, D, W, H := len(xs), m.T, m.D, m.Warm, m.Enc.HiddenSize
	enc, dec := &tr.enc, &tr.dec
	tr.encode(xs, W)
	dec.start(n, enc)
	ins := tr.ins[:n]
	for w, x := range xs {
		ins[w] = x[(W-1)*D : W*D]
	}
	mathx.Fill(loss, 0)
	for t := W; t < T; t++ {
		dec.forward(t-W, ins, nil)
		preds := tr.headForward(n, t-W)
		for w, pred := range preds {
			loss[w] += sqErr(pred, xs[w][t*D:(t+1)*D])
		}
		copy(ins, preds) // free-running: each prediction is the next input
	}
	inv := 1 / float64((T-W)*D)
	next := tr.next[:n*D]
	mathx.Fill(next, 0)
	for t := T - 1; t >= W; t-- {
		for w, x := range xs {
			s := dec.at(w, t-W)
			pred, dl, nx := tr.preds[s*D:(s+1)*D], tr.dlog[s*D:(s+1)*D], next[w*D:(w+1)*D]
			for j := range dl {
				dl[j] = 2*inv*(pred[j]-x[t*D+j]) + nx[j]
			}
		}
		tr.headBackward(n, t-W)
		if t > W {
			dec.backward(t-W, next) // this step's input was pred_{t-1}
		} else {
			dec.backward(t-W, nil)
		}
	}
	// The decoder's carries are ∂L/∂(encoder final state), across the bridge.
	copy(enc.dh[:n*H], dec.dh[:n*H])
	copy(enc.dc[:n*H], dec.dc[:n*H])
	for t := W - 1; t >= 0; t-- {
		enc.backward(t, nil)
	}
	tr.accumulate(g.(*encDecGrads))
	for w := range loss {
		loss[w] *= inv
	}
}

// cnnTrainer is the CNN's lock-step trainer: every position of every
// window is one row of the conv GEMM and of the head GEMM, in the
// reference's order (windows ascending, positions ascending).
type cnnTrainer struct {
	m           *ConvNet
	acts, dA    []float64   // [n·P·F] post-ReLU activations and their gradients
	cols        []float64   // [n·P·K·D] each position's input window, copied for the filter gradient
	preds, dlog []float64   // [n·P·D]
	rows        [][]float64 // [n·P]
}

func (m *ConvNet) newTrainer(maxB int) reconTrainer {
	N, F := maxB*m.positions(), m.Filters.Rows
	return &cnnTrainer{
		m:    m,
		acts: make([]float64, N*F), dA: make([]float64, N*F),
		cols:  make([]float64, N*m.Filters.Cols),
		preds: make([]float64, N*m.D), dlog: make([]float64, N*m.D),
		rows: make([][]float64, N),
	}
}

func (tr *cnnTrainer) trainBatch(xs [][]float64, g reconGrads, loss []float64) {
	m := tr.m
	cg := g.(*convGrads)
	P, F, D, KD := m.positions(), m.Filters.Rows, m.D, m.Filters.Cols
	N := len(xs) * P
	acts, dA, cols := tr.acts[:N*F], tr.dA[:N*F], tr.cols[:N*KD]
	preds, dlog, rows := tr.preds[:N*D], tr.dlog[:N*D], tr.rows[:N]
	mathx.Conv1DBatch(acts, m.Filters, m.Bias, xs, D, P, rows)
	relu(acts)
	for w, x := range xs {
		for p := 0; p < P; p++ {
			r := w*P + p
			copy(cols[r*KD:(r+1)*KD], x[p*D:p*D+KD])
			rows[r] = acts[r*F : (r+1)*F]
		}
	}
	m.Out.W.MulRowsT(preds, rows)
	inv := 1 / float64(P*D)
	for w, x := range xs {
		loss[w] = 0
		for p := 0; p < P; p++ {
			r := w*P + p
			pred, dl := preds[r*D:(r+1)*D], dlog[r*D:(r+1)*D]
			tgt := x[(p+m.K)*D : (p+m.K+1)*D]
			for j := range pred {
				pred[j] += m.Out.B[j]
			}
			loss[w] += sqErr(pred, tgt)
			for j := range dl {
				dl[j] = 2 * inv * (pred[j] - tgt[j])
			}
			rows[r] = dl
		}
		loss[w] *= inv
	}
	m.Out.W.MulRows(dA, rows)
	for i, a := range acts {
		if a <= 0 { // ReLU inactive: no gradient
			dA[i] = 0
		}
	}
	cg.out.dW.AddOuterSeq(dlog, acts, N)
	addRows(cg.out.dB, dlog)
	cg.dW.AddOuterSeq(dA, cols, N)
	addRows(cg.dB, dA)
}
