package nn

import (
	"math"
	"runtime"
	"slices"
	"sync"

	"icsdetect/internal/mathx"
)

// lstmTrace is one LSTM layer's cache for a lock-step pass over a
// minibatch of windows — the one BPTT implementation every trainer (the
// classifier's and the reconstruction nets') stacks its layers from.
//
// Its contract is bitwise equivalence with the per-window reference
// (train_oracle_test.go): for the same windows in the same order it
// accumulates the identical gradients, bit for bit. Three structural
// decisions make that possible:
//
//   - Every matrix product runs through a kernel whose per-element
//     association equals the reference primitive's (MulRowsT ↔ MulVec for
//     the forward, MulRows ↔ MulVecT for the input gradients), and every
//     elementwise formula keeps the reference's expression shape, so each
//     scalar is the same sequence of rounded operations.
//
//   - Weight-gradient accumulation — the only place where batching would
//     naturally reorder a floating-point reduction across windows — is
//     deferred: the lock-step backward sweep only caches dz rows, and
//     replay adds them after the sweep, one AddOuterSeq per tensor per
//     pass. Passes replayed in turn chain, so a minibatch swept as several
//     passes replays as one.
//
//   - Rows are step-major in the reference's accumulation order: window
//     w's timestep t is row off[w] + lens[w]-1-t, so windows ascend, time
//     descends and the windows lie end to end. Windows may differ in
//     length (a sequence's remainder window is shorter); at timestep t
//     only the windows longer than t are active.
type lstmTrace struct {
	l             *LSTMLayer
	n, rows       int         // windows and rows of the current pass
	lens, off     []int       // [maxB] window lengths and first rows
	act           []int       // [maxB] the windows active at a timestep
	in            []float64   // [rows·I] the input each step read
	hprev         []float64   // [rows·H] the h_{t-1} each step read
	hs, cs, tanhC []float64   // [rows·H] h_t, c_t, τ(c_t)
	gates, dz     []float64   // [rows·4H] activated gates, gate gradients
	c0            []float64   // [maxB·H] initial cell state
	dh, dc        []float64   // [maxB·H] BPTT carries, by window
	z, zu         []float64   // [maxB·4H] lock-step pre-activation rows
	dst           []float64   // [maxB·H] lock-step dz·U rows
	hp, dzs       [][]float64 // [maxB] GEMM row lists
}

// newLSTMTrace sizes a trace for up to maxB windows of up to steps
// timesteps, laid out as windows of exactly steps timesteps until reshape
// says otherwise.
func newLSTMTrace(l *LSTMLayer, maxB, steps int) lstmTrace {
	H, G, N := l.HiddenSize, numGates*l.HiddenSize, maxB*steps
	tr := lstmTrace{
		l:    l,
		lens: make([]int, maxB), off: make([]int, maxB), act: make([]int, 0, maxB),
		in:    make([]float64, N*l.InputSize),
		hprev: make([]float64, N*H),
		hs:    make([]float64, N*H), cs: make([]float64, N*H), tanhC: make([]float64, N*H),
		gates: make([]float64, N*G), dz: make([]float64, N*G),
		c0: make([]float64, maxB*H),
		dh: make([]float64, maxB*H), dc: make([]float64, maxB*H),
		z: make([]float64, maxB*G), zu: make([]float64, maxB*G),
		dst: make([]float64, maxB*H),
		hp:  make([][]float64, maxB), dzs: make([][]float64, maxB),
	}
	for w := range tr.lens {
		tr.lens[w] = steps
	}
	tr.reshape(tr.lens)
	return tr
}

// reshape lays out windows of the given lengths end to end.
func (tr *lstmTrace) reshape(lens []int) {
	row := 0
	for w, T := range lens {
		tr.lens[w], tr.off[w] = T, row
		row += T
	}
}

// at is the cache row of window w's timestep t.
func (tr *lstmTrace) at(w, t int) int { return tr.off[w] + tr.lens[w] - 1 - t }

// h is window w's hidden state after timestep t.
func (tr *lstmTrace) h(w, t int) []float64 {
	H, s := tr.l.HiddenSize, tr.at(w, t)
	return tr.hs[s*H : (s+1)*H]
}

// final is window w's hidden state after its last step.
func (tr *lstmTrace) final(w int) []float64 { return tr.h(w, tr.lens[w]-1) }

// active lists, ascending, the windows of the current pass that have a
// timestep t. The list is the trace's scratch: every call for the same t
// returns the same windows.
func (tr *lstmTrace) active(t int) []int {
	act := tr.act[:0]
	for w, T := range tr.lens[:tr.n] {
		if T > t {
			act = append(act, w)
		}
	}
	return act
}

// start begins a pass over the first n windows of the layout: it sets
// their initial state — zero, or the final (h, c) of from's windows when
// a decoder takes over from an encoder — and clears the BPTT carries.
func (tr *lstmTrace) start(n int, from *lstmTrace) {
	H := tr.l.HiddenSize
	tr.n, tr.rows = n, tr.off[n-1]+tr.lens[n-1]
	for w := 0; w < n; w++ {
		s := tr.at(w, 0)
		h0, c0 := tr.hprev[s*H:(s+1)*H], tr.c0[w*H:(w+1)*H]
		if from == nil {
			mathx.Fill(h0, 0)
			mathx.Fill(c0, 0)
			continue
		}
		fs := from.off[w] // the row of from's last timestep
		copy(h0, from.hs[fs*H:(fs+1)*H])
		copy(c0, from.cs[fs*H:(fs+1)*H])
	}
	mathx.Fill(tr.dh[:n*H], 0)
	mathx.Fill(tr.dc[:n*H], 0)
}

// cPrev is the c_{t-1} window w's timestep t read.
func (tr *lstmTrace) cPrev(w, t int) []float64 {
	H := tr.l.HiddenSize
	if t == 0 {
		return tr.c0[w*H : (w+1)*H]
	}
	s := tr.at(w, t) + 1
	return tr.cs[s*H : (s+1)*H]
}

// forward advances every active window by timestep t on the inputs xs,
// one row per active window: z = W·x, + U·h_{t-1}, + b in the reference's
// order, then the gate epilogue. wx, when non-nil, already holds each
// window's W·x row — the autoencoder decoder's input is constant per
// window.
func (tr *lstmTrace) forward(t int, xs [][]float64, wx []float64) {
	l := tr.l
	act := tr.active(t)
	n, H, I, G := len(act), l.HiddenSize, l.InputSize, numGates*l.HiddenSize
	z, zu, hp := tr.z[:n*G], tr.zu[:n*G], tr.hp[:n]
	if wx != nil {
		copy(z, wx)
	} else {
		l.W.MulRowsT(z, xs)
	}
	for a, w := range act {
		s := tr.at(w, t)
		copy(tr.in[s*I:(s+1)*I], xs[a])
		hp[a] = tr.hprev[s*H : (s+1)*H]
		if t > 0 {
			copy(hp[a], tr.hs[(s+1)*H:(s+2)*H])
		}
	}
	l.U.MulRowsT(zu, hp)
	for a, w := range act {
		s := tr.at(w, t)
		row, urow := z[a*G:(a+1)*G], zu[a*G:(a+1)*G]
		for j := range row {
			row[j] += urow[j]
			row[j] += l.B[j]
		}
		lstmCellForward(tr.gates[s*G:(s+1)*G], row, tr.cPrev(w, t),
			tr.cs[s*H:(s+1)*H], tr.tanhC[s*H:(s+1)*H], tr.hs[s*H:(s+1)*H])
	}
}

// backward runs timestep t's BPTT step for the active windows: the
// gate-gradient loop caches dz and carries dc, dh_{t-1} = dz·U overwrites
// the dh carry and, when dx is non-nil, it receives the input-gradient
// rows dz·W, one per active window.
func (tr *lstmTrace) backward(t int, dx []float64) {
	act := tr.active(t)
	H, G := tr.l.HiddenSize, numGates*tr.l.HiddenSize
	dzs, dst := tr.dzs[:len(act)], tr.dst[:len(act)*H]
	for a, w := range act {
		s := tr.at(w, t)
		dzs[a] = tr.dz[s*G : (s+1)*G]
		lstmGateGrads(dzs[a], tr.gates[s*G:(s+1)*G], tr.tanhC[s*H:(s+1)*H], tr.cPrev(w, t),
			tr.dh[w*H:(w+1)*H], tr.dc[w*H:(w+1)*H])
	}
	tr.l.U.MulRows(dst, dzs)
	for a, w := range act {
		copy(tr.dh[w*H:(w+1)*H], dst[a*H:(a+1)*H])
	}
	if dx != nil {
		tr.l.W.MulRows(dx, dzs)
	}
}

// accumulate replays the pass's cached rows into g, rows in the reference
// order.
func (tr *lstmTrace) accumulate(g *lstmGrads) {
	for k := 0; k < lstmTensors; k++ {
		tr.replay(g, k)
	}
}

// lstmTensors is the number of an LSTM layer's gradient tensors: dW, dU
// and dB, in lstmGrads.slices order.
const lstmTensors = 3

// replay adds the pass's cached rows into g's tensor k (0 dW, 1 dU,
// 2 dB), rows in the reference order. Each element's chain carries
// through g, so replaying consecutive passes in turn is one chain over
// all their rows.
func (tr *lstmTrace) replay(g *lstmGrads, k int) {
	N, H, I, G := tr.rows, tr.l.HiddenSize, tr.l.InputSize, numGates*tr.l.HiddenSize
	switch k {
	case 0:
		g.dW.AddOuterSeq(tr.dz[:N*G], tr.in[:N*I], N)
	case 1:
		g.dU.AddOuterSeq(tr.dz[:N*G], tr.hprev[:N*H], N)
	default:
		addRows(g.dB, tr.dz[:N*G])
	}
}

// lstmCellForward is the training forward's gate epilogue: it activates
// the combined pre-activation row z into gates (σ on i, f, o; τ on g),
// then writes c = f⊙cPrev + i⊙g, τ(c) and h = o⊙τ(c). Per element these
// are the reference step's operations in its expression shapes — the
// vector activations are bitwise equal to the scalar Sigmoid/Tanh — so
// the cached rows match the per-window reference bit for bit.
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

// lstmGateGrads is the gate-gradient loop of one BPTT step, written in
// the reference step's exact expression shapes: from the cached activated
// gates, τ(c_t) and c_{t-1} and the carries dh = ∂L/∂h_t and
// dc = ∂L/∂c_t it writes the pre-activation gradient dz and updates dc in
// place to ∂L/∂c_{t-1}.
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

// batchTrainer is the classifier's minibatch trainer. It cuts each
// minibatch into up to P contiguous groups of windows, in window order,
// and sweeps each group lock-step, forward then backward, through its own
// groupSweep: group 0 on the caller, the others on worker goroutines.
// After the join it replays the cached rows into the GradBuffer, each
// tensor whole on one goroutine, the tensors dealt across the goroutines,
// each replay chaining the groups' rows in group order.
//
// The result is bitwise that of one lock-step pass over the whole
// minibatch, at any P. A window's sweep reads nothing of the other
// windows in its pass. AddOuterSeq and addRows carry each element's chain
// through the tensor, so the groups' rows chained in group order are the
// same chain as one call over all of them, and the loss is summed per
// window in window order.
//
// P is min(GOMAXPROCS, maxB), read when the trainer is made; P = 1 runs
// everything on the caller. The P-1 workers live until stop. All buffers
// are allocated here and the hand-offs carry plain values, so the
// steady-state training loop is allocation-free.
type batchTrainer struct {
	grads  *GradBuffer
	groups []*groupSweep // [P]
	share  [][]int       // the gradient tensors each goroutine replays, by Slices index
	loss   []float64     // [maxB] per-window summed loss

	batch []Sequence // the current minibatch
	n     int        // and the number of groups it is cut into

	work []chan trainJob // [P-1] hand-offs to workers 1..P-1
	// done receives one value per finished worker job. It has a slot per
	// worker, so no worker blocks on it after a panic on the caller.
	done   chan struct{}
	exited sync.WaitGroup
}

// trainJob is what a worker does next: sweep its group or replay its
// share of the tensors.
type trainJob uint8

const (
	sweepJob trainJob = iota
	replayJob
)

// newBatchTrainer sizes the trainer for minibatches of up to maxB windows
// of up to maxT timesteps on classifier c and starts its workers.
func newBatchTrainer(c *Classifier, maxB, maxT int) *batchTrainer {
	maxB = max(maxB, 1)
	P := min(runtime.GOMAXPROCS(0), maxB)
	bt := &batchTrainer{
		grads: c.NewGradBuffer(),
		loss:  make([]float64, maxB),
		done:  make(chan struct{}, P-1),
	}
	bt.share = replayShares(bt.grads.Slices(), P)
	for i := 0; i < P; i++ {
		bt.groups = append(bt.groups, newGroupSweep(c, (maxB+P-1)/P, maxT))
	}
	for i := 1; i < P; i++ {
		work := make(chan trainJob)
		bt.work = append(bt.work, work)
		bt.exited.Add(1)
		go bt.worker(i, work)
	}
	return bt
}

// replayShares deals the gradient tensors to up to P goroutines, largest
// first, each to the goroutine with the fewest elements so far.
func replayShares(tensors [][]float64, P int) [][]int {
	order := make([]int, len(tensors))
	for k := range order {
		order[k] = k
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(tensors[b]) - len(tensors[a]) })
	share, load := make([][]int, min(P, len(tensors))), make([]int, min(P, len(tensors)))
	for _, k := range order {
		i := 0
		for j := range load {
			if load[j] < load[i] {
				i = j
			}
		}
		share[i] = append(share[i], k)
		load[i] += len(tensors[k])
	}
	for _, ks := range share {
		slices.Sort(ks) // a layer's tensors in turn, while its rows are warm
	}
	return share
}

// run computes one minibatch's gradients into bt.grads and returns the
// summed loss and scored-step count, bitwise identical to running the
// per-window reference over the windows in order into one buffer.
func (bt *batchTrainer) run(batch []Sequence) (float64, int) {
	bt.batch, bt.n = batch, min(len(bt.groups), len(batch))
	bt.do(sweepJob, bt.n)
	bt.do(replayJob, len(bt.share))
	var loss float64
	for _, v := range bt.loss[:len(batch)] {
		loss += v
	}
	scored := 0
	for _, sw := range bt.groups[:bt.n] {
		scored += sw.scored
	}
	bt.grads.Steps = scored
	return loss, scored
}

// do runs job on goroutines 0..on-1, 0 being the caller, and returns once
// all of them have finished it.
func (bt *batchTrainer) do(job trainJob, on int) {
	for _, work := range bt.work[:on-1] {
		work <- job
	}
	bt.exec(0, job)
	for i := 1; i < on; i++ {
		<-bt.done
	}
}

// exec is goroutine i's part of job.
func (bt *batchTrainer) exec(i int, job trainJob) {
	if job == replayJob {
		for _, k := range bt.share[i] {
			bt.replay(k)
		}
		return
	}
	n := len(bt.batch)
	lo, hi := i*n/bt.n, (i+1)*n/bt.n
	bt.groups[i].sweep(bt.batch[lo:hi], bt.loss[lo:hi])
}

// replay sets gradient tensor k to the chain of every group's cached
// rows, groups in window order.
func (bt *batchTrainer) replay(k int) {
	mathx.Fill(bt.grads.Slices()[k], 0)
	for _, sw := range bt.groups[:bt.n] {
		sw.replay(bt.grads, k)
	}
}

// worker runs worker i's jobs until stop.
func (bt *batchTrainer) worker(i int, work <-chan trainJob) {
	defer bt.exited.Done()
	for job := range work {
		bt.exec(i, job)
		bt.done <- struct{}{}
	}
}

// stop ends the workers and returns once they have exited.
func (bt *batchTrainer) stop() {
	for _, work := range bt.work {
		close(work)
	}
	bt.exited.Wait()
}

// groupSweep is one group's lock-step pass: one lstmTrace per stacked
// layer under the dense softmax head. It owns only the head — its
// forward, loss and gradient rows.
//
// A step with a negative target is not scored. The head caches each
// scored step's dLogits and top-layer h row compactly, window ascending
// and time descending (window w's from row soff[w]), so its weight
// gradient is one AddOuterSeq too.
type groupSweep struct {
	out    *Dense
	layers []lstmTrace

	lens     []int     // [B] window lengths
	loss     []float64 // [B] per-window summed loss: the group's part of batchTrainer.loss
	soff, sc []int     // [B] first scored row, scored steps replayed so far
	scored   int       // scored steps of the current pass

	probs  []float64   // [rows·K] softmax rows at scored steps, by trace row
	dlog   []float64   // [scored·K] dLogits rows
	htop   []float64   // [scored·Htop] the matching top-layer h rows
	logits []float64   // [B·K] lock-step logit rows
	dst    []float64   // [B·maxH] head and input-gradient rows
	xs     [][]float64 // [B] each active window's input row
	rows   [][]float64 // [B] each scored window's head row
	sact   []int       // [B] the scored windows
}

// newGroupSweep sizes a sweep for up to maxB windows of up to maxT
// timesteps on classifier c.
func newGroupSweep(c *Classifier, maxB, maxT int) *groupSweep {
	K := c.Out.OutputSize
	Htop := c.Out.InputSize
	maxH := 0
	sw := &groupSweep{
		out:    c.Out,
		lens:   make([]int, maxB),
		soff:   make([]int, maxB),
		sc:     make([]int, maxB),
		probs:  make([]float64, maxB*maxT*K),
		dlog:   make([]float64, maxB*maxT*K),
		htop:   make([]float64, maxB*maxT*Htop),
		logits: make([]float64, maxB*K),
		xs:     make([][]float64, maxB),
		rows:   make([][]float64, maxB),
		sact:   make([]int, 0, maxB),
	}
	for _, l := range c.Layers {
		sw.layers = append(sw.layers, newLSTMTrace(l, maxB, maxT))
		maxH = max(maxH, l.HiddenSize)
	}
	sw.dst = make([]float64, maxB*maxH)
	return sw
}

// sweep runs batch's lock-step forward and backward passes: it leaves
// each window's summed loss in loss and caches the gradient rows for
// replay.
func (sw *groupSweep) sweep(batch []Sequence, loss []float64) {
	n, maxT := len(batch), 0
	sw.loss, sw.scored = loss, 0
	for w := range batch {
		sw.lens[w] = len(batch[w].Inputs)
		maxT = max(maxT, sw.lens[w])
		sw.loss[w], sw.soff[w], sw.sc[w] = 0, sw.scored, 0
		for _, tgt := range batch[w].Targets {
			if tgt >= 0 {
				sw.scored++
			}
		}
	}
	for l := range sw.layers {
		sw.layers[l].reshape(sw.lens[:n])
		sw.layers[l].start(n, nil)
	}
	sw.forward(batch, maxT)
	sw.backward(batch, maxT)
}

// replay adds the last sweep's cached rows into g's tensor k, indexed as
// in GradBuffer.Slices.
func (sw *groupSweep) replay(g *GradBuffer, k int) {
	if l := k / lstmTensors; l < len(sw.layers) {
		sw.layers[l].replay(g.lstm[l], k%lstmTensors)
		return
	}
	K, Htop := sw.out.OutputSize, sw.out.InputSize
	if k == lstmTensors*len(sw.layers) {
		g.dense.dW.AddOuterSeq(sw.dlog[:sw.scored*K], sw.htop[:sw.scored*Htop], sw.scored)
		return
	}
	addRows(g.dense.dB, sw.dlog[:sw.scored*K])
}

// forward runs the lock-step forward sweep through the stacked traces and
// the head, caching the softmax rows of scored steps.
func (sw *groupSweep) forward(batch []Sequence, maxT int) {
	out := sw.out
	K := out.OutputSize
	top := &sw.layers[len(sw.layers)-1]
	for t := 0; t < maxT; t++ {
		act := top.active(t)
		xs := sw.xs[:len(act)]
		for a, w := range act {
			xs[a] = batch[w].Inputs[t]
		}
		for l := range sw.layers {
			tr := &sw.layers[l]
			tr.forward(t, xs, nil)
			for a, w := range act {
				xs[a] = tr.h(w, t) // the next layer reads this layer's fresh h
			}
		}
		sact, hs := sw.sact[:0], sw.rows[:0]
		for a, w := range act {
			if batch[w].Targets[t] >= 0 {
				sact = append(sact, w)
				hs = append(hs, xs[a])
			}
		}
		if len(sact) == 0 {
			continue
		}
		logits := sw.logits[:len(sact)*K]
		out.W.MulRowsT(logits, hs)
		for a, w := range sact {
			row := logits[a*K : (a+1)*K]
			for j := range row {
				row[j] += out.B[j]
			}
			s := top.at(w, t)
			p := sw.probs[s*K : (s+1)*K]
			mathx.Softmax(p, row)
			sw.loss[w] += -math.Log(math.Max(p[batch[w].Targets[t]], 1e-12))
		}
	}
}

// backward runs the lock-step BPTT sweep: at each timestep the head's
// dLogits = p - onehot rows are cached for the replay and dLogits·W flows
// into the top trace's carries, then each trace steps back and hands its
// input-gradient rows to the carries of the layer below.
func (sw *groupSweep) backward(batch []Sequence, maxT int) {
	out := sw.out
	K, Htop := out.OutputSize, out.InputSize
	top := &sw.layers[len(sw.layers)-1]
	for t := maxT - 1; t >= 0; t-- {
		act := top.active(t)
		sact, dls := sw.sact[:0], sw.rows[:0]
		for _, w := range act {
			tgt := batch[w].Targets[t]
			if tgt < 0 {
				continue
			}
			r, s := sw.soff[w]+sw.sc[w], top.at(w, t)
			sw.sc[w]++
			row := sw.dlog[r*K : (r+1)*K]
			copy(row, sw.probs[s*K:(s+1)*K])
			row[tgt] -= 1 // softmax cross-entropy gradient
			copy(sw.htop[r*Htop:(r+1)*Htop], top.hs[s*Htop:(s+1)*Htop])
			sact = append(sact, w)
			dls = append(dls, row)
		}
		if len(sact) > 0 {
			dst := sw.dst[:len(sact)*Htop]
			out.W.MulRows(dst, dls)
			for a, w := range sact {
				mathx.Axpy(top.dh[w*Htop:(w+1)*Htop], 1, dst[a*Htop:(a+1)*Htop])
			}
		}
		for l := len(sw.layers) - 1; l >= 0; l-- {
			if l == 0 {
				// The reference computes layer 0's dx too but discards
				// it, so skipping it changes nothing.
				sw.layers[0].backward(t, nil)
				break
			}
			below := &sw.layers[l-1]
			Hin := below.l.HiddenSize
			dx := sw.dst[:len(act)*Hin]
			sw.layers[l].backward(t, dx)
			for a, w := range act {
				mathx.Axpy(below.dh[w*Hin:(w+1)*Hin], 1, dx[a*Hin:(a+1)*Hin])
			}
		}
	}
}
