package core

import (
	"math"

	"icsdetect/internal/dataset"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
)

// PackageContext is the encoded form of one package as it moves through the
// detection pipeline: the raw packages, the discretized feature vector c(t)
// and the signature s(x(t)). It is produced once per package by
// Session.ClassifyOnly and shared by every stage.
type PackageContext struct {
	// Prev is the previous package of the stream (nil at stream start); it
	// supplies the interval feature.
	Prev *dataset.Package
	// Cur is the package being classified.
	Cur *dataset.Package
	// C is the discretized feature vector c(t). The session reuses the
	// backing array across packages, so C is valid only for the current
	// Check/Advance step — stages that need encoded input across steps
	// must copy it (SeriesStage copies into its recurrent input at
	// Advance/Queue time).
	C []int
	// Sig is the signature s(x(t)) = g(c(t)).
	Sig string
}

// StageState is the per-stream state owned by one pipeline stage. Stages
// that keep no stream state return a shared no-op value.
type StageState interface {
	// Reset returns the state to stream start.
	Reset()
}

// StageResult is one stage's opinion on one package, before fusion. A
// stage that has no opinion yet (the LSTM before its first step, a window
// level mid-cycle) leaves Scored false and abstains from the vote.
type StageResult struct {
	// Scored reports whether the stage evaluated the package at all.
	Scored bool
	// Flagged reports whether the stage considers the package anomalous.
	Flagged bool
	// Score is the stage's anomaly score; meaningful only when Scored.
	Score float64
	// Rank is the 0-based top-k rank for ranking stages, -1 otherwise.
	Rank int
}

// StageDetector is one pluggable level of the detection stack. The
// canonical stack wires the Bloom package-content level and the LSTM
// time-series level; the promoted Table IV baselines (internal/baselines)
// and embedder-registered kinds slot in the same way. Sessions and the
// concurrent engine drive any stage slice identically:
//
//   - Check evaluates the package into a StageResult; the session's fusion
//     policy combines the results into the Verdict (first-hit
//     short-circuits after the first flag, majority/weighted run every
//     stage and vote).
//   - Advance runs for every stage on every package after the verdict is
//     final, whatever the verdict was: anomalous packages still feed the
//     time-series input with the noise flag set (§V-A-3).
//
// Stage values themselves are immutable and safe for concurrent use; all
// per-stream mutability lives in the StageState, so one goroutine per
// stream (or per shard of streams) needs no locking.
type StageDetector interface {
	// Name identifies the stage in diagnostics, counters and evidence.
	Name() string
	// Level is the verdict level the stage attributes detections to.
	Level() Level
	// NewState allocates fresh per-stream state for this stage.
	NewState() StageState
	// Check evaluates the package into r. It must not mutate st: state
	// only moves in Advance.
	Check(st StageState, pc *PackageContext, r *StageResult)
	// Advance feeds the package into the stream state once v is final.
	Advance(st StageState, pc *PackageContext, v *Verdict)
}

// nopState is the shared state of stateless stages.
type nopState struct{}

func (nopState) Reset() {}

// PackageStage is the package content level F_p as a pipeline stage: a
// stateless membership test against the Bloom-filter signature store.
type PackageStage struct {
	Detector *PackageDetector
}

// Name implements StageDetector.
func (s *PackageStage) Name() string { return StageBloom }

// Level implements StageDetector.
func (s *PackageStage) Level() Level { return LevelPackage }

// NewState implements StageDetector; the stage keeps no stream state.
func (s *PackageStage) NewState() StageState { return nopState{} }

// Check implements F_p: flag iff the signature is not in the filter.
func (s *PackageStage) Check(_ StageState, pc *PackageContext, r *StageResult) {
	r.Scored = true
	if s.Detector.Anomalous(pc.Sig) {
		r.Flagged = true
		r.Score = 1
	}
}

// Advance implements StageDetector; nothing to advance.
func (s *PackageStage) Advance(StageState, *PackageContext, *Verdict) {}

// SeriesStage is the time-series level F_t as a pipeline stage: the stacked
// LSTM predicts the next signature's class distribution and the stage flags
// packages whose signature ranks outside the top-k predicted set.
type SeriesStage struct {
	DB       *signature.DB
	Detector *TimeSeriesDetector
	Input    *InputEncoder
	// F32 runs the stage on the float32 inference tier: the model's frozen
	// f32 snapshot (nn.InferModel32) with f32 recurrent state, scores and
	// kernels. Verdicts are gated against the f64 goldens by the
	// conformance suite; within f32 every kernel tier and the batched path
	// are bitwise-identical, exactly like the f64 contract.
	F32 bool
}

// seriesState is the per-stream recurrent state of the time-series stage.
// Exactly one of the f64 pair (rnn, scores) and the f32 pair (rnn32,
// scores32) is allocated, per the stage's precision.
type seriesState struct {
	rnn *nn.State
	// scores holds the prediction for the *current* package, written by the
	// previous package's Advance as raw logits — on the sequential path
	// (StepLogits) and the batched path (StepBatchLogits) alike, so both
	// rank the exact same values and verdicts are bitwise identical.
	// Ranking logits rather than softmax probabilities also avoids the
	// rounding collapse where two distinct logits map to equal (or
	// underflowed) probabilities and perturb tie-breaking, and it skips
	// Classes() exponentials per package.
	scores []float64
	// rnn32/scores32 are the float32 twins used when the stage runs the
	// f32 inference tier.
	rnn32    *nn.State32
	scores32 []float32
	// xi is the reusable sparse LSTM input: the active one-hot column
	// indices, strictly ascending. The dense vector is never materialized
	// on the streaming path — the model's one-hot fast path gathers the
	// weight columns directly (bitwise-identical to the dense product).
	xi []int
	// scored reports whether scores holds a valid prediction (false before
	// the first package has been fed).
	scored bool
}

// Reset implements StageState.
func (st *seriesState) Reset() {
	if st.rnn != nil {
		st.rnn.Reset()
	}
	if st.rnn32 != nil {
		st.rnn32.Reset()
	}
	st.scored = false
	for i := range st.scores {
		st.scores[i] = 0
	}
	for i := range st.scores32 {
		st.scores32[i] = 0
	}
}

// Name implements StageDetector.
func (s *SeriesStage) Name() string { return StageLSTM }

// Level implements StageDetector.
func (s *SeriesStage) Level() Level { return LevelTimeSeries }

// NewState implements StageDetector.
func (s *SeriesStage) NewState() StageState {
	st := &seriesState{xi: make([]int, 0, len(s.Input.Buckets)+1)}
	if s.F32 {
		m := s.Detector.Model.Infer32()
		st.rnn32 = m.NewState()
		st.scores32 = make([]float32, m.Classes())
	} else {
		st.rnn = s.Detector.Model.NewState()
		st.scores = make([]float64, s.Detector.Model.Classes())
	}
	return st
}

// Check implements F_t: a package whose signature ranks outside the top-k
// predicted set S(k) is anomalous. The first package of a stream is never
// scored (no prediction exists yet).
func (s *SeriesStage) Check(state StageState, pc *PackageContext, r *StageResult) {
	st := state.(*seriesState)
	s.check(st, pc, r, s.Detector.K)
}

// check is the k-parameterized body of Check, shared with the dynamic-k
// stage wrapper.
func (s *SeriesStage) check(st *seriesState, pc *PackageContext, r *StageResult, k int) {
	if !st.scored {
		return
	}
	r.Scored = true
	class, ok := s.DB.ClassOf(pc.Sig)
	if !ok {
		// The signature passed the Bloom filter (a filter false positive)
		// but is not in the database, so it cannot be among the top-k
		// predicted signatures.
		r.Flagged = true
		r.Score = math.Inf(1)
		return
	}
	if s.F32 {
		r.Rank = rankOf32(st.scores32, class)
	} else {
		r.Rank = rankOf(st.scores, class)
	}
	r.Score = float64(r.Rank)
	if r.Rank >= k {
		r.Flagged = true
	}
}

// encodeStep writes the step input for the classified package into the
// stream's input buffer and marks the stream scored. It is the shared
// pre-step half of both advancement paths — sequential Advance and the
// batched seriesAdvanceBatch.Queue — so the two can never diverge on what
// feeds the model: the extra input feature carries this package's verdict
// (§V-A-3: "the additional feature of any packages classified as anomalies
// will be set to 1").
func (s *SeriesStage) encodeStep(st *seriesState, pc *PackageContext, v *Verdict) {
	st.xi = s.Input.EncodeSparse(st.xi, pc.C, v.Anomaly)
	st.scored = true
}

// Advance feeds the package into the recurrent model for the classification
// of future packages, through the one-hot fast path (bitwise-identical to
// the dense StepLogits on the equivalent encoding).
func (s *SeriesStage) Advance(state StageState, pc *PackageContext, v *Verdict) {
	st := state.(*seriesState)
	s.encodeStep(st, pc, v)
	if s.F32 {
		s.Detector.Model.Infer32().StepLogitsOneHot(st.rnn32, st.xi, st.scores32)
		return
	}
	s.Detector.Model.StepLogitsOneHot(st.rnn, st.xi, st.scores)
}

// NewAdvanceBatch implements AdvanceBatchStage: the LSTM step of many
// independent streams advances through one batched matrix-matrix pass
// (nn.StepBatchLogits) instead of one matrix-vector pass per package. On
// the f32 tier the pass runs on the frozen f32 snapshot instead.
func (s *SeriesStage) NewAdvanceBatch(maxBatch int) AdvanceBatch {
	if s.F32 {
		return newSeriesAdvanceBatch32(s, maxBatch)
	}
	return newSeriesAdvanceBatch(s, maxBatch)
}

// seriesAdvanceBatch defers the recurrent steps of queued streams into one
// batched LSTM pass: the engine's micro-batch primitive for the
// time-series level.
type seriesAdvanceBatch struct {
	stage  *SeriesStage
	buf    *nn.BatchBuffer
	rnns   []*nn.State
	idxs   [][]int
	scores [][]float64
	n      int
}

func newSeriesAdvanceBatch(s *SeriesStage, maxBatch int) *seriesAdvanceBatch {
	if maxBatch < 1 {
		maxBatch = 1
	}
	return &seriesAdvanceBatch{
		stage:  s,
		buf:    s.Detector.Model.NewBatchBuffer(maxBatch),
		rnns:   make([]*nn.State, maxBatch),
		idxs:   make([][]int, maxBatch),
		scores: make([][]float64, maxBatch),
	}
}

// Len returns the number of queued streams.
func (b *seriesAdvanceBatch) Len() int { return b.n }

// Cap returns the batch capacity.
func (b *seriesAdvanceBatch) Cap() int { return len(b.rnns) }

// Queue completes everything about the classified package except the LSTM
// step, which Flush performs for all queued streams at once.
func (b *seriesAdvanceBatch) Queue(state StageState, pc *PackageContext, v *Verdict) {
	if b.n == len(b.rnns) {
		panic("core: advance batch queue on a full batch")
	}
	st := state.(*seriesState)
	b.stage.encodeStep(st, pc, v)
	b.rnns[b.n] = st.rnn
	b.idxs[b.n] = st.xi
	b.scores[b.n] = st.scores
	b.n++
}

// Flush advances every queued stream's recurrent state through one batched
// pass — sparse one-hot inputs, same bits as the sequential path — and
// empties the batch, dropping its references to the flushed streams so a
// released stream's state is not kept alive by a slot nothing overwrites.
func (b *seriesAdvanceBatch) Flush() {
	if b.n == 0 {
		return
	}
	b.stage.Detector.Model.StepBatchLogitsOneHot(b.buf, b.rnns[:b.n], b.idxs[:b.n], b.scores[:b.n])
	clear(b.rnns[:b.n])
	clear(b.idxs[:b.n])
	clear(b.scores[:b.n])
	b.n = 0
}

// seriesAdvanceBatch32 is the float32 twin of seriesAdvanceBatch: queued
// streams advance through one batched pass on the f32 inference snapshot,
// bitwise-identical to the sequential f32 Advance.
type seriesAdvanceBatch32 struct {
	stage  *SeriesStage
	model  *nn.InferModel32
	buf    *nn.BatchBuffer32
	rnns   []*nn.State32
	idxs   [][]int
	scores [][]float32
	n      int
}

func newSeriesAdvanceBatch32(s *SeriesStage, maxBatch int) *seriesAdvanceBatch32 {
	if maxBatch < 1 {
		maxBatch = 1
	}
	m := s.Detector.Model.Infer32()
	return &seriesAdvanceBatch32{
		stage:  s,
		model:  m,
		buf:    m.NewBatchBuffer(maxBatch),
		rnns:   make([]*nn.State32, maxBatch),
		idxs:   make([][]int, maxBatch),
		scores: make([][]float32, maxBatch),
	}
}

// Len returns the number of queued streams.
func (b *seriesAdvanceBatch32) Len() int { return b.n }

// Cap returns the batch capacity.
func (b *seriesAdvanceBatch32) Cap() int { return len(b.rnns) }

// Queue completes everything about the classified package except the f32
// LSTM step, which Flush performs for all queued streams at once.
func (b *seriesAdvanceBatch32) Queue(state StageState, pc *PackageContext, v *Verdict) {
	if b.n == len(b.rnns) {
		panic("core: advance batch queue on a full batch")
	}
	st := state.(*seriesState)
	b.stage.encodeStep(st, pc, v)
	b.rnns[b.n] = st.rnn32
	b.idxs[b.n] = st.xi
	b.scores[b.n] = st.scores32
	b.n++
}

// Flush advances every queued stream through one batched f32 pass and
// empties the batch, dropping its references to the flushed streams.
func (b *seriesAdvanceBatch32) Flush() {
	if b.n == 0 {
		return
	}
	b.model.StepBatchLogitsOneHot(b.buf, b.rnns[:b.n], b.idxs[:b.n], b.scores[:b.n])
	clear(b.rnns[:b.n])
	clear(b.idxs[:b.n])
	clear(b.scores[:b.n])
	b.n = 0
}

var _ AdvanceBatchStage = (*SeriesStage)(nil)

// Compile-time interface checks for the built-in stages.
var (
	_ StageDetector = (*PackageStage)(nil)
	_ StageDetector = (*SeriesStage)(nil)
)
