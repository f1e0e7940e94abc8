package nn

import (
	"fmt"

	"icsdetect/internal/mathx"
)

// Reconstruction-error networks for the continuous-telemetry detection
// stages (internal/recon): an LSTM autoencoder, a seq2seq predictor
// (after Kim et al., arXiv:1911.04831) and a 1D-CNN predictor (after
// Kravchik & Shabtai, arXiv:1806.08110). Each consumes one standardized
// window sample — T timesteps × D features, channels-last, exactly the
// layout baselines.Windowizer produces — and scores it by mean squared
// reconstruction/prediction error.
//
// Every network has two inference paths with one bitwise contract:
// Score (the sequential per-window path, packed GEMV kernels) and
// NewBatch().Score (the engine's micro-batched path: the multi-stream
// packed product for the LSTM nets, the MulRowsT GEMM for the CNN) must
// produce identical bits for every window on every kernel tier. The
// contract is inherited from the LSTM step kernels (stepInfer vs
// stepInferBatch), the dense head (forwardInfer vs forwardInferBatch and
// MulRowsT+bias, all dot+bias), and Conv1D/Conv1DBatch — and pinned by
// tests in recon_test.go. Error accumulation uses the same loop order on
// both paths (timesteps ascending, features ascending, one divide at the
// end).

// ReconBatch scores a batch of window samples. The signature matches
// baselines.ScoreBatch so a ReconNet slots straight into the batched
// WindowStage dispatch. Implementations are not safe for concurrent use;
// the engine allocates one per shard.
type ReconBatch interface {
	Score(dst []float64, xs [][]float64)
}

// ReconNet is a reconstruction-error network over fixed-shape window
// samples. The Score path is safe for concurrent use (scratch is
// caller-owned); training mutates the network and must not run
// concurrently with scoring.
type ReconNet interface {
	// InputDims returns the expected window shape (timesteps, features);
	// Score's x has length T*D, channels-last.
	InputDims() (t, d int)
	// ScratchLen is the length of the scratch Score needs.
	ScratchLen() int
	// Score returns the window's mean squared reconstruction error.
	Score(x, scratch []float64) float64
	// NewBatch allocates a batched scorer for up to maxBatch windows.
	NewBatch(maxBatch int) ReconBatch
	// Validate reports structural corruption after deserialization.
	Validate() error

	// Training internals (unexported: implementations live in this
	// package so they can reuse the LSTM kernels). newTrainer allocates
	// TrainRecon's lock-step scratch for minibatches of up to maxBatch
	// windows (recon_train.go).
	params() []Param
	newGrads() reconGrads
	newTrainer(maxBatch int) reconTrainer
	invalidate()
}

// reconGrads is a gradient accumulator matching one ReconNet's params().
type reconGrads interface {
	slices() [][]float64
}

// sqErr accumulates the squared error between a prediction and its
// target in ascending feature order — the shared association both
// inference paths use.
func sqErr(pred, tgt []float64) float64 {
	var s float64
	for i := range pred {
		d := pred[i] - tgt[i]
		s += d * d
	}
	return s
}

// ---------------------------------------------------------------------------
// LSTM autoencoder

// AutoEncoder compresses a window through an LSTM encoder into the final
// hidden state, then decodes it repeat-vector style: the decoder LSTM
// reads the code at every step and a shared dense head reconstructs each
// timestep. Score is the mean squared reconstruction error over the
// whole window.
type AutoEncoder struct {
	T, D int
	Enc  *LSTMLayer // D → H
	Dec  *LSTMLayer // H → H
	Out  *Dense     // H → D
}

// NewAutoEncoder allocates an autoencoder for T×D windows with hidden
// width hidden, deterministically initialized from seed.
func NewAutoEncoder(t, d, hidden int, seed uint64) *AutoEncoder {
	rng := mathx.NewRNG(seed)
	return &AutoEncoder{
		T:   t,
		D:   d,
		Enc: NewLSTMLayer(d, hidden, rng),
		Dec: NewLSTMLayer(hidden, hidden, rng),
		Out: NewDense(hidden, d, rng),
	}
}

// InputDims returns the window shape.
func (m *AutoEncoder) InputDims() (int, int) { return m.T, m.D }

// ScratchLen is the scratch Score needs: the shared 4H gate buffer, the
// decoder's 4H input product, the four H-wide state vectors and the D-wide
// reconstruction.
func (m *AutoEncoder) ScratchLen() int { return (2*numGates+4)*m.Enc.HiddenSize + m.D }

// Score returns the window's mean squared reconstruction error. The
// decoder reads the same code at every step, so its input product W·code
// is computed once and copied into the gate buffer before each step's
// U·h + b — the bits stepInfer's GemvSet pass would write there each time.
func (m *AutoEncoder) Score(x, scratch []float64) float64 {
	H := m.Enc.HiddenSize
	z, rest := scratch[:numGates*H], scratch[numGates*H:]
	zw, rest := rest[:numGates*H], rest[numGates*H:]
	h, rest := rest[:H], rest[H:]
	c, rest := rest[:H], rest[H:]
	hd, rest := rest[:H], rest[H:]
	cd, rest := rest[:H], rest[H:]
	pred := rest[:m.D]
	mathx.Fill(h, 0)
	mathx.Fill(c, 0)
	mathx.Fill(hd, 0)
	mathx.Fill(cd, 0)
	for t := 0; t < m.T; t++ {
		m.Enc.stepInfer(z, x[t*m.D:(t+1)*m.D], h, c)
	}
	lazyPack(&m.Dec.packW, m.Dec.W).Apply(zw, h, nil, mathx.GemvSet)
	decU := lazyPack(&m.Dec.packU, m.Dec.U)
	var sum float64
	for t := 0; t < m.T; t++ {
		copy(z, zw)
		decU.Apply(z, hd, m.Dec.B, mathx.GemvAddBias)
		m.Dec.gatesCellUpdate(z, hd, cd)
		m.Out.forwardInfer(pred, hd)
		sum += sqErr(pred, x[t*m.D:(t+1)*m.D])
	}
	return sum / float64(m.T*m.D)
}

// lstmReconBatch is the scratch of the engine-side batched LSTM scorers
// (autoencoder and seq2seq): one gate row, encoder and decoder state and
// prediction row per window, as the row tables stepInferBatch walks.
type lstmReconBatch struct {
	zs, hs, cs, hds, cds [][]float64
	preds, ins           [][]float64
	errs                 []float64
}

func newLSTMReconBatch(maxBatch, h, d int) lstmReconBatch {
	return lstmReconBatch{
		zs: stateRows(maxBatch, numGates*h),
		hs: stateRows(maxBatch, h), cs: stateRows(maxBatch, h),
		hds: stateRows(maxBatch, h), cds: stateRows(maxBatch, h),
		preds: stateRows(maxBatch, d),
		ins:   make([][]float64, maxBatch),
		errs:  make([]float64, maxBatch),
	}
}

// aeBatch is the engine-side batched autoencoder scorer; zws holds each
// window's decoder input product W·code.
type aeBatch struct {
	m *AutoEncoder
	lstmReconBatch
	zws [][]float64
}

// NewBatch allocates a batched scorer for up to maxBatch windows.
func (m *AutoEncoder) NewBatch(maxBatch int) ReconBatch {
	H := m.Enc.HiddenSize
	return &aeBatch{m, newLSTMReconBatch(maxBatch, H, m.D), stateRows(maxBatch, numGates*H)}
}

// stateRows allocates n H-wide rows over one backing array.
func stateRows(n, h int) [][]float64 {
	backing := make([]float64, n*h)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = backing[i*h : (i+1)*h]
	}
	return rows
}

// Score scores len(xs) windows into dst, bitwise-identical to the
// sequential Score per window.
func (b *aeBatch) Score(dst []float64, xs [][]float64) {
	m := b.m
	n := len(xs)
	zs, hs, cs, hds, cds := b.zs[:n], b.hs[:n], b.cs[:n], b.hds[:n], b.cds[:n]
	preds, ins := b.preds[:n], b.ins[:n]
	for i := 0; i < n; i++ {
		mathx.Fill(hs[i], 0)
		mathx.Fill(cs[i], 0)
		mathx.Fill(hds[i], 0)
		mathx.Fill(cds[i], 0)
		b.errs[i] = 0
	}
	for t := 0; t < m.T; t++ {
		for i := 0; i < n; i++ {
			ins[i] = xs[i][t*m.D : (t+1)*m.D]
		}
		m.Enc.stepInferBatch(zs, ins, hs, cs)
	}
	zws := b.zws[:n]
	lazyPack(&m.Dec.packW, m.Dec.W).ApplyBatch(zws, hs, nil, mathx.GemvSet)
	for t := 0; t < m.T; t++ {
		for i := 0; i < n; i++ {
			copy(zs[i], zws[i])
		}
		m.Dec.stepInferBatch(zs, nil, hds, cds)
		m.Out.forwardInferBatch(preds, hds)
		for i := 0; i < n; i++ {
			b.errs[i] += sqErr(preds[i], xs[i][t*m.D:(t+1)*m.D])
		}
	}
	for i := 0; i < n; i++ {
		dst[i] = b.errs[i] / float64(m.T*m.D)
	}
}

// Validate reports structural corruption after deserialization.
func (m *AutoEncoder) Validate() error {
	if m.T <= 0 || m.D <= 0 || m.Enc == nil || m.Dec == nil || m.Out == nil {
		return fmt.Errorf("nn: autoencoder missing components")
	}
	if err := m.Enc.validate(); err != nil {
		return err
	}
	if err := m.Dec.validate(); err != nil {
		return err
	}
	if err := m.Out.validate(); err != nil {
		return err
	}
	H := m.Enc.HiddenSize
	if m.Enc.InputSize != m.D || m.Dec.InputSize != H || m.Dec.HiddenSize != H ||
		m.Out.InputSize != H || m.Out.OutputSize != m.D {
		return fmt.Errorf("nn: autoencoder shape mismatch")
	}
	return nil
}

func (m *AutoEncoder) params() []Param {
	return append(append(m.Enc.params(), m.Dec.params()...), m.Out.params()...)
}

// encDecGrads accumulates gradients for an encoder-decoder network; the
// slice order matches the params() order of AutoEncoder and Seq2Seq.
type encDecGrads struct {
	enc, dec *lstmGrads
	out      *denseGrads
}

func (g *encDecGrads) slices() [][]float64 {
	return append(append(g.enc.slices(), g.dec.slices()...), g.out.slices()...)
}

func (m *AutoEncoder) newGrads() reconGrads {
	return &encDecGrads{enc: newLSTMGrads(m.Enc), dec: newLSTMGrads(m.Dec), out: newDenseGrads(m.Out)}
}

func (m *AutoEncoder) invalidate() {
	m.Enc.invalidate()
	m.Dec.invalidate()
	m.Out.pack.Store(nil)
}

// ---------------------------------------------------------------------------
// Seq2seq predictor

// Seq2Seq warms an encoder LSTM on the first Warm timesteps of a window,
// hands its (h, c) state to a decoder LSTM, and free-runs the decoder
// over the remaining steps: each decoder step reads the previous
// observed-or-predicted frame and a dense head predicts the next one.
// Training and inference both free-run (no teacher forcing), so the
// scored error matches the trained objective. Score is the mean squared
// prediction error over the T-Warm predicted steps.
type Seq2Seq struct {
	T, D, Warm int
	Enc        *LSTMLayer // D → H
	Dec        *LSTMLayer // D → H
	Out        *Dense     // H → D
}

// NewSeq2Seq allocates a seq2seq predictor for T×D windows warming on
// warm steps, deterministically initialized from seed.
func NewSeq2Seq(t, d, warm, hidden int, seed uint64) *Seq2Seq {
	rng := mathx.NewRNG(seed)
	return &Seq2Seq{
		T:    t,
		D:    d,
		Warm: warm,
		Enc:  NewLSTMLayer(d, hidden, rng),
		Dec:  NewLSTMLayer(d, hidden, rng),
		Out:  NewDense(hidden, d, rng),
	}
}

// InputDims returns the window shape.
func (m *Seq2Seq) InputDims() (int, int) { return m.T, m.D }

// ScratchLen is the scratch Score needs.
func (m *Seq2Seq) ScratchLen() int { return (numGates+4)*m.Enc.HiddenSize + m.D }

// Score returns the window's mean squared prediction error.
func (m *Seq2Seq) Score(x, scratch []float64) float64 {
	H := m.Enc.HiddenSize
	z, rest := scratch[:numGates*H], scratch[numGates*H:]
	h, rest := rest[:H], rest[H:]
	c, rest := rest[:H], rest[H:]
	hd, rest := rest[:H], rest[H:]
	cd, rest := rest[:H], rest[H:]
	pred := rest[:m.D]
	mathx.Fill(h, 0)
	mathx.Fill(c, 0)
	for t := 0; t < m.Warm; t++ {
		m.Enc.stepInfer(z, x[t*m.D:(t+1)*m.D], h, c)
	}
	copy(hd, h)
	copy(cd, c)
	u := x[(m.Warm-1)*m.D : m.Warm*m.D]
	var sum float64
	for t := m.Warm; t < m.T; t++ {
		m.Dec.stepInfer(z, u, hd, cd)
		m.Out.forwardInfer(pred, hd)
		sum += sqErr(pred, x[t*m.D:(t+1)*m.D])
		u = pred
	}
	return sum / float64((m.T-m.Warm)*m.D)
}

// s2sBatch is the engine-side batched seq2seq scorer.
type s2sBatch struct {
	m *Seq2Seq
	lstmReconBatch
}

// NewBatch allocates a batched scorer for up to maxBatch windows.
func (m *Seq2Seq) NewBatch(maxBatch int) ReconBatch {
	return &s2sBatch{m, newLSTMReconBatch(maxBatch, m.Enc.HiddenSize, m.D)}
}

// Score scores len(xs) windows into dst, bitwise-identical to the
// sequential Score per window.
func (b *s2sBatch) Score(dst []float64, xs [][]float64) {
	m := b.m
	n := len(xs)
	zs, hs, cs, hds, cds := b.zs[:n], b.hs[:n], b.cs[:n], b.hds[:n], b.cds[:n]
	preds, ins := b.preds[:n], b.ins[:n]
	for i := 0; i < n; i++ {
		mathx.Fill(hs[i], 0)
		mathx.Fill(cs[i], 0)
		b.errs[i] = 0
	}
	for t := 0; t < m.Warm; t++ {
		for i := 0; i < n; i++ {
			ins[i] = xs[i][t*m.D : (t+1)*m.D]
		}
		m.Enc.stepInferBatch(zs, ins, hs, cs)
	}
	for i := 0; i < n; i++ {
		copy(hds[i], hs[i])
		copy(cds[i], cs[i])
		ins[i] = xs[i][(m.Warm-1)*m.D : m.Warm*m.D]
	}
	for t := m.Warm; t < m.T; t++ {
		m.Dec.stepInferBatch(zs, ins, hds, cds)
		m.Out.forwardInferBatch(preds, hds)
		for i := 0; i < n; i++ {
			b.errs[i] += sqErr(preds[i], xs[i][t*m.D:(t+1)*m.D])
		}
		// Free-running: each prediction is the next step's input.
		ins = preds
	}
	for i := 0; i < n; i++ {
		dst[i] = b.errs[i] / float64((m.T-m.Warm)*m.D)
	}
}

// Validate reports structural corruption after deserialization.
func (m *Seq2Seq) Validate() error {
	if m.T <= 0 || m.D <= 0 || m.Warm <= 0 || m.Warm >= m.T ||
		m.Enc == nil || m.Dec == nil || m.Out == nil {
		return fmt.Errorf("nn: seq2seq missing components or bad warmup")
	}
	if err := m.Enc.validate(); err != nil {
		return err
	}
	if err := m.Dec.validate(); err != nil {
		return err
	}
	if err := m.Out.validate(); err != nil {
		return err
	}
	H := m.Enc.HiddenSize
	if m.Enc.InputSize != m.D || m.Dec.InputSize != m.D || m.Dec.HiddenSize != H ||
		m.Out.InputSize != H || m.Out.OutputSize != m.D {
		return fmt.Errorf("nn: seq2seq shape mismatch")
	}
	return nil
}

func (m *Seq2Seq) params() []Param {
	return append(append(m.Enc.params(), m.Dec.params()...), m.Out.params()...)
}

func (m *Seq2Seq) newGrads() reconGrads {
	return &encDecGrads{enc: newLSTMGrads(m.Enc), dec: newLSTMGrads(m.Dec), out: newDenseGrads(m.Out)}
}

func (m *Seq2Seq) invalidate() {
	m.Enc.invalidate()
	m.Dec.invalidate()
	m.Out.pack.Store(nil)
}

// ---------------------------------------------------------------------------
// 1D-CNN predictor

// ConvNet slides K-timestep convolution filters over the window
// (channels-last, via mathx.Conv1D), applies ReLU, and predicts the
// frame following each window position through a shared dense head.
// Score is the mean squared prediction error over the T-K predicted
// frames.
type ConvNet struct {
	T, D, K int
	Filters *mathx.Matrix // F × K*D
	Bias    []float64     // F
	Out     *Dense        // F → D
}

// NewConvNet allocates a 1D-CNN predictor with filters filters of length
// kernel timesteps for T×D windows, deterministically initialized from
// seed.
func NewConvNet(t, d, kernel, filters int, seed uint64) *ConvNet {
	rng := mathx.NewRNG(seed)
	m := &ConvNet{
		T:       t,
		D:       d,
		K:       kernel,
		Filters: mathx.NewMatrix(filters, kernel*d),
		Bias:    make([]float64, filters),
	}
	xavierInit(m.Filters, kernel*d, filters, rng)
	m.Out = NewDense(filters, d, rng)
	return m
}

// positions is the number of predicted frames per window.
func (m *ConvNet) positions() int { return m.T - m.K }

// InputDims returns the window shape.
func (m *ConvNet) InputDims() (int, int) { return m.T, m.D }

// ScratchLen is the scratch Score needs: the post-conv activation plane
// plus the predicted frames.
func (m *ConvNet) ScratchLen() int {
	p := m.positions()
	return p*m.Filters.Rows + p*m.D
}

// Score returns the window's mean squared prediction error.
func (m *ConvNet) Score(x, scratch []float64) float64 {
	P := m.positions()
	F := m.Filters.Rows
	conv := scratch[:P*F]
	preds := scratch[P*F : P*F+P*m.D]
	mathx.Conv1D(conv, m.Filters, m.Bias, x, m.D)
	relu(conv)
	var rbuf [8][]float64
	rows := rbuf[:0]
	if P > len(rbuf) {
		rows = make([][]float64, 0, P)
	}
	for p := 0; p < P; p++ {
		rows = append(rows, conv[p*F:(p+1)*F])
	}
	m.Out.W.MulRowsT(preds, rows)
	var sum float64
	for p := 0; p < P; p++ {
		row := preds[p*m.D : (p+1)*m.D]
		for j := range row {
			row[j] += m.Out.B[j]
		}
		sum += sqErr(row, x[(p+m.K)*m.D:(p+m.K+1)*m.D])
	}
	return sum / float64(P*m.D)
}

// relu clamps negatives to zero in place.
func relu(v []float64) {
	for i, x := range v {
		if x < 0 {
			v[i] = 0
		}
	}
}

// cnnBatch is the engine-side batched CNN scorer: every position of every
// window stacks into one conv GEMM and one head GEMM.
type cnnBatch struct {
	m     *ConvNet
	conv  []float64 // maxBatch×P×F
	preds []float64 // maxBatch×P×D
	rows  [][]float64
}

// NewBatch allocates a batched scorer for up to maxBatch windows.
func (m *ConvNet) NewBatch(maxBatch int) ReconBatch {
	P := m.positions()
	return &cnnBatch{
		m:     m,
		conv:  make([]float64, maxBatch*P*m.Filters.Rows),
		preds: make([]float64, maxBatch*P*m.D),
		rows:  make([][]float64, 0, maxBatch*P),
	}
}

// Score scores len(xs) windows into dst, bitwise-identical to the
// sequential Score per window.
func (b *cnnBatch) Score(dst []float64, xs [][]float64) {
	m := b.m
	P := m.positions()
	F := m.Filters.Rows
	n := len(xs)
	conv := b.conv[:n*P*F]
	preds := b.preds[:n*P*m.D]
	mathx.Conv1DBatch(conv, m.Filters, m.Bias, xs, m.D, P, b.rows)
	relu(conv)
	rows := b.rows[:0]
	for r := 0; r < n*P; r++ {
		rows = append(rows, conv[r*F:(r+1)*F])
	}
	m.Out.W.MulRowsT(preds, rows)
	for i := 0; i < n; i++ {
		var sum float64
		for p := 0; p < P; p++ {
			row := preds[(i*P+p)*m.D : (i*P+p+1)*m.D]
			for j := range row {
				row[j] += m.Out.B[j]
			}
			sum += sqErr(row, xs[i][(p+m.K)*m.D:(p+m.K+1)*m.D])
		}
		dst[i] = sum / float64(P*m.D)
	}
}

// Validate reports structural corruption after deserialization.
func (m *ConvNet) Validate() error {
	if m.T <= 0 || m.D <= 0 || m.K <= 0 || m.K >= m.T || m.Filters == nil || m.Out == nil {
		return fmt.Errorf("nn: convnet missing components or bad kernel")
	}
	if m.Filters.Rows <= 0 || !shaped(m.Filters, m.Filters.Rows, m.K*m.D) || len(m.Bias) != m.Filters.Rows {
		return fmt.Errorf("nn: convnet filter shape mismatch")
	}
	if err := m.Out.validate(); err != nil {
		return err
	}
	if m.Out.InputSize != m.Filters.Rows || m.Out.OutputSize != m.D {
		return fmt.Errorf("nn: convnet head shape mismatch")
	}
	return nil
}

func (m *ConvNet) params() []Param {
	return append([]Param{
		{Name: "Filters", Data: m.Filters.Data},
		{Name: "Bias", Data: m.Bias},
	}, m.Out.params()...)
}

// convGrads accumulates gradients matching ConvNet.params() order.
type convGrads struct {
	dW  *mathx.Matrix
	dB  []float64
	out *denseGrads
}

func (g *convGrads) slices() [][]float64 {
	return append([][]float64{g.dW.Data, g.dB}, g.out.slices()...)
}

func (m *ConvNet) newGrads() reconGrads {
	return &convGrads{
		dW:  mathx.NewMatrix(m.Filters.Rows, m.Filters.Cols),
		dB:  make([]float64, len(m.Bias)),
		out: newDenseGrads(m.Out),
	}
}

func (m *ConvNet) invalidate() {
	m.Out.pack.Store(nil)
}
