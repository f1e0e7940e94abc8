package nn

import (
	"math"

	"icsdetect/internal/mathx"
)

// batchTrainer is the scratch state of the batched gradient engine: a whole
// minibatch of truncated-BPTT windows advances lock-step, one matrix-matrix
// pass per layer per timestep, through both the forward and the backward
// sweep. All buffers are allocated once per Train call, so the steady-state
// training loop is allocation-free.
//
// The engine's contract is bitwise equivalence with the per-window
// reference (lossForwardBackward applied window by window): for the same
// windows in the same order it produces the identical GradBuffer and loss,
// bit for bit. Three structural decisions make that possible:
//
//   - Every matrix product runs through a kernel whose per-element
//     association equals the reference primitive's (MulRowsT ↔ MulVec for
//     the forward, MulRows ↔ MulVecT for the input gradients), and every
//     elementwise formula is written in exactly the reference expression
//     shape, so each scalar is the same sequence of rounded operations.
//
//   - Weight-gradient accumulation — the only place where batching would
//     naturally reorder a floating-point reduction across windows — is
//     deferred: the lock-step backward sweep only caches dz (and dLogits)
//     rows, and after the sweep AddOuterSeq replays each window's rank-1
//     updates in the reference order, window ascending, timestep
//     descending. Per-tensor chains are untouched; the GEMM still wins
//     because the gradient matrix streams once per window instead of once
//     per timestep.
//
//   - Per-window caches store time REVERSED: timestep t of a T-step window
//     lives at block k = T-1-t. The deferred accumulation therefore reads
//     every us/vs sequence as one contiguous ascending run — dz, inputs,
//     and (offset by one block) the h history that forms each layer's
//     recurrent inputs — with the extra block k = T holding the zero
//     initial state.
type batchTrainer struct {
	c     *Classifier
	grads *GradBuffer
	buf   batchScratch[float64] // lock-step gate/logit rows, always maxB wide

	maxB int

	gates [][][]float64 // [L][B] length T*4H, post-activation (i,f,o,g)
	cells [][][]float64 // [L][B] length (T+1)*H
	hs    [][][]float64 // [L][B] length (T+1)*H
	tanhC [][][]float64 // [L][B] length T*H
	dz    [][][]float64 // [L][B] length T*4H, backward gate gradients
	xbuf  [][]float64   // [B] length T*I, window inputs (reversed)
	probs [][]float64   // [B] length T*K, softmax rows at scored steps
	dlog  [][]float64   // [B] length T*K, dLogits rows in backward order
	htop  [][]float64   // [B] length T*Htop, matching top-layer h rows
	loss  []float64     // [B] per-window summed loss
	sc    []int         // [B] scored-step count, doubles as dlog cursor

	dh, dc [][][]float64 // [L][B] length H: BPTT carries
	hp     [][]float64   // second row-pointer list (buf.xs is the first)
	rows   [][]float64   // row-pointer list for the backward GEMMs
	dst    []float64     // contiguous GEMM output scratch, B*maxH
	act    []int         // active-window index scratch
	sact   []int         // scored-window index scratch
}

// newBatchTrainer sizes the engine for minibatches of up to maxB windows of
// up to maxT timesteps on classifier c.
func newBatchTrainer(c *Classifier, maxB, maxT int) *batchTrainer {
	if maxB < 1 {
		maxB = 1
	}
	L := len(c.Layers)
	I := c.InputSize()
	K := c.Out.OutputSize
	Htop := c.Layers[L-1].HiddenSize
	maxH := 0
	gateWidths := make([]int, L)
	for i, l := range c.Layers {
		maxH = max(maxH, l.HiddenSize)
		gateWidths[i] = numGates * l.HiddenSize
	}
	bt := &batchTrainer{
		c:     c,
		grads: c.NewGradBuffer(),
		buf:   newBatchScratch[float64](maxB, gateWidths, K),
		maxB:  maxB,
		gates: make([][][]float64, L),
		cells: make([][][]float64, L),
		hs:    make([][][]float64, L),
		tanhC: make([][][]float64, L),
		dz:    make([][][]float64, L),
		dh:    make([][][]float64, L),
		dc:    make([][][]float64, L),
		xbuf:  make([][]float64, maxB),
		probs: make([][]float64, maxB),
		dlog:  make([][]float64, maxB),
		htop:  make([][]float64, maxB),
		loss:  make([]float64, maxB),
		sc:    make([]int, maxB),
		hp:    make([][]float64, maxB),
		rows:  make([][]float64, 0, maxB),
		dst:   make([]float64, maxB*maxH),
		act:   make([]int, 0, maxB),
		sact:  make([]int, 0, maxB),
	}
	bt.buf.grow(maxB)
	for l, layer := range c.Layers {
		H := layer.HiddenSize
		G := numGates * H
		bt.gates[l] = make([][]float64, maxB)
		bt.cells[l] = make([][]float64, maxB)
		bt.hs[l] = make([][]float64, maxB)
		bt.tanhC[l] = make([][]float64, maxB)
		bt.dz[l] = make([][]float64, maxB)
		bt.dh[l] = make([][]float64, maxB)
		bt.dc[l] = make([][]float64, maxB)
		for w := 0; w < maxB; w++ {
			bt.gates[l][w] = make([]float64, maxT*G)
			bt.cells[l][w] = make([]float64, (maxT+1)*H)
			bt.hs[l][w] = make([]float64, (maxT+1)*H)
			bt.tanhC[l][w] = make([]float64, maxT*H)
			bt.dz[l][w] = make([]float64, maxT*G)
			bt.dh[l][w] = make([]float64, H)
			bt.dc[l][w] = make([]float64, H)
		}
	}
	for w := 0; w < maxB; w++ {
		bt.xbuf[w] = make([]float64, maxT*I)
		bt.probs[w] = make([]float64, maxT*K)
		bt.dlog[w] = make([]float64, maxT*K)
		bt.htop[w] = make([]float64, maxT*Htop)
	}
	return bt
}

// run computes one minibatch's gradients into bt.grads and returns the
// summed loss and scored-step count, bitwise identical to running
// lossForwardBackward over the windows in order into one buffer.
func (bt *batchTrainer) run(batch []Sequence) (float64, int) {
	c := bt.c
	I := c.InputSize()
	bt.grads.Zero()
	maxT := 0
	for w := range batch {
		T := len(batch[w].Inputs)
		maxT = max(maxT, T)
		xb := bt.xbuf[w]
		for t := 0; t < T; t++ {
			copy(xb[(T-1-t)*I:(T-t)*I], batch[w].Inputs[t])
		}
		bt.loss[w] = 0
		bt.sc[w] = 0
		for l, layer := range c.Layers {
			H := layer.HiddenSize
			mathx.Fill(bt.hs[l][w][T*H:(T+1)*H], 0)
			mathx.Fill(bt.cells[l][w][T*H:(T+1)*H], 0)
			mathx.Fill(bt.dh[l][w], 0)
			mathx.Fill(bt.dc[l][w], 0)
		}
	}
	bt.forward(batch, maxT)
	bt.backward(batch, maxT)
	bt.accumulate(batch)
	var loss float64
	var steps int
	for w := range batch {
		loss += bt.loss[w]
		steps += bt.sc[w]
	}
	return loss, steps
}

// forward runs the lock-step forward sweep, caching gates, cell states,
// tanh(c), hidden vectors, and the softmax rows of scored steps. Ragged
// batches are handled by shrinking the active set as shorter windows end.
func (bt *batchTrainer) forward(batch []Sequence, maxT int) {
	c := bt.c
	I := c.InputSize()
	K := c.Out.OutputSize
	for t := 0; t < maxT; t++ {
		act := bt.act[:0]
		for w := range batch {
			if len(batch[w].Inputs) > t {
				act = append(act, w)
			}
		}
		n := len(act)
		xs := bt.buf.xs[:n]
		for a, w := range act {
			T := len(batch[w].Inputs)
			xs[a] = bt.xbuf[w][(T-1-t)*I : (T-t)*I]
		}
		for l, layer := range c.Layers {
			H := layer.HiddenSize
			G := numGates * H
			z := bt.buf.z[l][:n*G]
			zu := bt.buf.zu[l][:n*G]
			// z = X·Wᵀ + H_prev·Uᵀ + B, combined in stepForward's exact
			// order (Wx, then +Uh, then +B) so the sums stay bitwise
			// identical to the per-window GEMV path.
			layer.W.MulRowsT(z, xs)
			hp := bt.hp[:n]
			for a, w := range act {
				T := len(batch[w].Inputs)
				hp[a] = bt.hs[l][w][(T-t)*H : (T-t+1)*H]
			}
			layer.U.MulRowsT(zu, hp)
			for a, w := range act {
				row := z[a*G : (a+1)*G]
				urow := zu[a*G : (a+1)*G]
				for j := range row {
					row[j] += urow[j]
					row[j] += layer.B[j]
				}
				T := len(batch[w].Inputs)
				k := T - 1 - t
				hRow := bt.hs[l][w][k*H : (k+1)*H]
				lstmCellForward(bt.gates[l][w][k*G:(k+1)*G], row,
					bt.cells[l][w][(k+1)*H:(k+2)*H], bt.cells[l][w][k*H:(k+1)*H],
					bt.tanhC[l][w][k*H:(k+1)*H], hRow)
				xs[a] = hRow // the next layer reads this layer's fresh h
			}
		}
		// Batched dense head and loss on the scored subset.
		sact := bt.sact[:0]
		hps := bt.hp[:0]
		for a, w := range act {
			if batch[w].Targets[t] >= 0 {
				sact = append(sact, w)
				hps = append(hps, xs[a])
			}
		}
		if len(sact) == 0 {
			continue
		}
		logits := bt.buf.logits[:len(sact)*K]
		c.Out.W.MulRowsT(logits, hps)
		for a, w := range sact {
			row := logits[a*K : (a+1)*K]
			for j := range row {
				row[j] += c.Out.B[j]
			}
			T := len(batch[w].Inputs)
			k := T - 1 - t
			p := bt.probs[w][k*K : (k+1)*K]
			mathx.Softmax(p, row)
			bt.loss[w] += -math.Log(math.Max(p[batch[w].Targets[t]], 1e-12))
		}
	}
}

// backward runs the lock-step BPTT sweep. It computes and caches the dz and
// dLogits rows every weight gradient needs (accumulation itself is
// deferred to accumulate, which replays them in the reference order) and
// propagates the dh/dc carries with the batched input-gradient kernel.
func (bt *batchTrainer) backward(batch []Sequence, maxT int) {
	c := bt.c
	L := len(c.Layers)
	K := c.Out.OutputSize
	Htop := c.Layers[L-1].HiddenSize
	for t := maxT - 1; t >= 0; t-- {
		act := bt.act[:0]
		for w := range batch {
			if len(batch[w].Inputs) > t {
				act = append(act, w)
			}
		}
		// Dense backward on the scored subset: pack dLogits = p - onehot
		// and the matching top-layer h row, then dhOut = dLogits·W flows
		// into the top carry.
		sact := bt.sact[:0]
		dls := bt.rows[:0]
		for _, w := range act {
			tgt := batch[w].Targets[t]
			if tgt < 0 {
				continue
			}
			T := len(batch[w].Inputs)
			k := T - 1 - t
			cur := bt.sc[w]
			row := bt.dlog[w][cur*K : (cur+1)*K]
			copy(row, bt.probs[w][k*K:(k+1)*K])
			row[tgt] -= 1 // softmax cross-entropy gradient
			copy(bt.htop[w][cur*Htop:(cur+1)*Htop], bt.hs[L-1][w][k*Htop:(k+1)*Htop])
			bt.sc[w] = cur + 1
			sact = append(sact, w)
			dls = append(dls, row)
		}
		if len(sact) > 0 {
			dst := bt.dst[:len(sact)*Htop]
			c.Out.W.MulRows(dst, dls)
			for a, w := range sact {
				mathx.Axpy(bt.dh[L-1][w], 1, dst[a*Htop:(a+1)*Htop])
			}
		}
		for l := L - 1; l >= 0; l-- {
			layer := c.Layers[l]
			H := layer.HiddenSize
			G := numGates * H
			dzs := bt.rows[:0]
			for _, w := range act {
				T := len(batch[w].Inputs)
				k := T - 1 - t
				dzr := bt.dz[l][w][k*G : (k+1)*G]
				lstmGateGrads(dzr, bt.gates[l][w][k*G:(k+1)*G], bt.tanhC[l][w][k*H:(k+1)*H],
					bt.cells[l][w][(k+1)*H:(k+2)*H], bt.dh[l][w], bt.dc[l][w])
				dzs = append(dzs, dzr)
			}
			// dh_{t-1} = dz·U overwrites the carry; dx = dz·W flows into
			// the layer below (the reference computes dx for layer 0 too
			// but discards it, so skipping it changes nothing).
			dst := bt.dst[:len(act)*H]
			layer.U.MulRows(dst, dzs)
			for a, w := range act {
				copy(bt.dh[l][w], dst[a*H:(a+1)*H])
			}
			if l > 0 {
				Hin := c.Layers[l-1].HiddenSize
				dst := bt.dst[:len(act)*Hin]
				layer.W.MulRows(dst, dzs)
				for a, w := range act {
					mathx.Axpy(bt.dh[l-1][w], 1, dst[a*Hin:(a+1)*Hin])
				}
			}
		}
	}
}

// accumulate replays every window's cached gradient rows into bt.grads with
// the chained outer-product kernel, window ascending and timestep
// descending — the reference accumulation order, so every per-element chain
// is bitwise identical to the sequential trainer's. Thanks to the reversed
// cache layout each us/vs pair is one contiguous run: dz rows pair with the
// reversed inputs (layer 0) or the previous layer's h history (deeper
// layers), and dU pairs dz with the same window's h history offset by one
// block, whose final block is the zero initial state.
func (bt *batchTrainer) accumulate(batch []Sequence) {
	c := bt.c
	L := len(c.Layers)
	I := c.InputSize()
	K := c.Out.OutputSize
	Htop := c.Layers[L-1].HiddenSize
	g := bt.grads
	for w := range batch {
		T := len(batch[w].Inputs)
		if ns := bt.sc[w]; ns > 0 {
			g.dense.dW.AddOuterSeq(bt.dlog[w][:ns*K], bt.htop[w][:ns*Htop], ns)
			addRows(g.dense.dB, bt.dlog[w][:ns*K])
		}
		for l, layer := range c.Layers {
			H := layer.HiddenSize
			G := numGates * H
			lg := g.lstm[l]
			dz := bt.dz[l][w][:T*G]
			if l == 0 {
				lg.dW.AddOuterSeq(dz, bt.xbuf[w][:T*I], T)
			} else {
				Hin := c.Layers[l-1].HiddenSize
				lg.dW.AddOuterSeq(dz, bt.hs[l-1][w][:T*Hin], T)
			}
			lg.dU.AddOuterSeq(dz, bt.hs[l][w][H:(T+1)*H], T)
			addRows(lg.dB, dz)
		}
		g.Steps += bt.sc[w]
	}
}

// lstmCellForward is the training forward's gate epilogue, shared by the
// classifier's and the reconstruction nets' batched trainers: it
// activates the combined pre-activation row z into gates (σ on i, f, o;
// τ on g), then writes c = f⊙cPrev + i⊙g, τ(c) and h = o⊙τ(c). Per
// element these are stepForward's operations in its expression shapes —
// the vector activations are bitwise equal to the scalar Sigmoid/Tanh —
// so the cached rows match the per-window reference bit for bit.
func lstmCellForward(gates, z, cPrev, c, tanhC, h []float64) {
	H := len(c)
	mathx.VSigmoid(gates[:3*H], z[:3*H])
	mathx.VTanh(gates[3*H:4*H], z[3*H:4*H])
	gi := gates[gateI*H : gateI*H+H]
	gf := gates[gateF*H : gateF*H+H]
	gO := gates[gateO*H : gateO*H+H]
	gg := gates[gateG*H : gateG*H+H]
	for j := 0; j < H; j++ {
		c[j] = gf[j]*cPrev[j] + gi[j]*gg[j]
	}
	mathx.VTanh(tanhC[:H], c[:H])
	for j := 0; j < H; j++ {
		h[j] = gO[j] * tanhC[j]
	}
}

// lstmGateGrads is the gate-gradient loop of one BPTT step, shared by
// both batched trainers and written in stepBackward's exact expression
// shapes: from the cached activated gates, τ(c_t) and c_{t-1} and the
// carries dh = ∂L/∂h_t and dc = ∂L/∂c_t it writes the pre-activation
// gradient dz and updates dc in place to ∂L/∂c_{t-1}.
func lstmGateGrads(dz, gates, tanhC, cPrev, dh, dc []float64) {
	H := len(dh)
	for j := 0; j < H; j++ {
		gi := gates[gateI*H+j]
		f := gates[gateF*H+j]
		o := gates[gateO*H+j]
		gg := gates[gateG*H+j]
		tcj := tanhC[j]

		do := dh[j] * tcj
		dcj := dc[j] + dh[j]*o*(1-tcj*tcj)

		di := dcj * gg
		df := dcj * cPrev[j]
		dg := dcj * gi
		dc[j] = dcj * f

		dz[gateI*H+j] = di * gi * (1 - gi)
		dz[gateF*H+j] = df * f * (1 - f)
		dz[gateO*H+j] = do * o * (1 - o)
		dz[gateG*H+j] = dg * (1 - gg*gg)
	}
}

// addRows adds each len(dst)-wide row of rows into dst, rows ascending —
// the bias-gradient chain of a sequence of per-step updates.
func addRows(dst, rows []float64) {
	w := len(dst)
	for s := 0; w > 0 && s+w <= len(rows); s += w {
		for j, v := range rows[s : s+w] {
			dst[j] += v
		}
	}
}
