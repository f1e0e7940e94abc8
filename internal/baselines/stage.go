package baselines

import (
	"fmt"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
)

// VectorScorer is a Scorer that can score the standardized numeric sample
// of a window directly, without a fully populated Window — the
// allocation-free streaming path. scratch must have ScratchLen elements.
type VectorScorer interface {
	Scorer
	ScratchLen() int
	ScoreVector(x, scratch []float64) float64
}

// DiscreteScorer is a Scorer that can score a window from its
// concatenated per-package discretized vectors (Window.Discrete) directly
// — the allocation-free streaming path of the signature-based levels. key
// is reusable byte scratch: the scorer may overwrite and grow it, and
// returns it for the next call.
type DiscreteScorer interface {
	Scorer
	ScoreDiscrete(c []int, key []byte) (float64, []byte)
}

// BatchVectorScorer is a VectorScorer that can score many samples in one
// batched kernel pass, bitwise-identically to ScoreVector per row.
type BatchVectorScorer interface {
	VectorScorer
	NewScoreBatch(maxBatch int) ScoreBatch
}

// ScoreBatch scores up to its configured batch of samples at once. A
// ScoreBatch owns its scratch and is not safe for concurrent use.
type ScoreBatch interface {
	Score(dst []float64, xs [][]float64)
}

// WindowStage promotes an offline window Scorer into a streaming
// core.StageDetector: per-stream state accumulates packages into
// command-response cycle windows with exactly the offline Windowizer
// slicing (a write command starts a new window, windows cap at
// WindowSize), and the package that completes a full window carries the
// window's verdict — score above the trained threshold ⇒ anomalous.
// Packages that do not complete a window (mid-cycle traffic, and the
// members of short misaligned windows, which only hindsight can close)
// leave the stage unscored, so it abstains from fusion on them.
//
// The stage itself is immutable and safe for concurrent use; VectorScorer
// and DiscreteScorer models score through per-stream scratch, and
// BatchVectorScorer models additionally expose the engine's batched Check
// precompute (core.CheckBatchStage).
type WindowStage struct {
	kind      string
	level     core.Level
	wz        *Windowizer
	scorer    Scorer
	vec       VectorScorer      // non-nil when scorer scores samples directly
	disc      DiscreteScorer    // non-nil when scorer scores discretized vectors directly
	batch     BatchVectorScorer // non-nil when the scorer batches
	threshold float64
	// Observer, when non-nil, receives every finalized window with its
	// score and decision — the hook behind the streaming-vs-offline parity
	// tests and score diagnostics, and the only caller of Windowizer.Build
	// on the streaming path.
	Observer func(w *Window, score float64, flagged bool)
}

var (
	_ core.StageDetector   = (*WindowStage)(nil)
	_ core.CheckBatchStage = (*WindowStage)(nil)
)

// NewWindowStage wraps a trained scorer as a streaming detection level. The
// scorer must be a VectorScorer or a DiscreteScorer: the streaming path
// scores closed windows from per-stream scratch, never from a built Window.
func NewWindowStage(kind string, level core.Level, wz *Windowizer, scorer Scorer, threshold float64) *WindowStage {
	s := &WindowStage{kind: kind, level: level, wz: wz, scorer: scorer, threshold: threshold}
	if v, ok := scorer.(VectorScorer); ok {
		s.vec = v
	}
	if d, ok := scorer.(DiscreteScorer); ok {
		s.disc = d
	}
	if b, ok := scorer.(BatchVectorScorer); ok {
		s.batch = b
	}
	if s.vec == nil && s.disc == nil {
		panic(fmt.Sprintf("baselines: %s scorer %T is neither a VectorScorer nor a DiscreteScorer", kind, scorer))
	}
	return s
}

// Threshold returns the stage's decision threshold (scores above it flag).
func (s *WindowStage) Threshold() float64 { return s.threshold }

// Scorer returns the wrapped window scorer.
func (s *WindowStage) Scorer() Scorer { return s.scorer }

// Name implements core.StageDetector.
func (s *WindowStage) Name() string { return s.kind }

// Level implements core.StageDetector.
func (s *WindowStage) Level() core.Level { return s.level }

// winState is the per-stream state: the open window's packages plus
// preallocated scoring scratch and the batched-precompute deposit slot.
type winState struct {
	buf [WindowSize]*dataset.Package
	n   int
	// closing is the scratch window [buf[:n], cur] assembled for scoring.
	closing [WindowSize]*dataset.Package
	sample  []float64
	scratch []float64
	// codes holds the discretized vectors of the open window's packages,
	// concatenated as Window.Discrete is (DiscreteScorer stages only);
	// key is the scorer's byte scratch.
	codes []int
	key   []byte
	// prePkg/preScore carry a batched-kernel score deposited by the
	// engine's precompute pass for the package prePkg; Check consumes it
	// instead of recomputing, Advance invalidates it.
	prePkg   *dataset.Package
	preScore float64
}

// Reset implements core.StageState.
func (st *winState) Reset() {
	st.n = 0
	st.prePkg = nil
}

// NewState implements core.StageDetector.
func (s *WindowStage) NewState() core.StageState {
	st := &winState{}
	if s.vec != nil {
		st.sample = make([]float64, SampleDim)
		st.scratch = make([]float64, s.vec.ScratchLen())
	}
	if s.disc != nil {
		st.codes = make([]int, WindowSize*s.wz.enc.Dim())
		st.key = make([]byte, 0, 4*len(st.codes)) // covers three-digit bucket indices
	}
	return st
}

// completes reports whether cur closes a full window given the open
// buffer: a write command starts a new window (so it can never be the
// fourth package of the open one), otherwise the window closes when cur
// is its WindowSize-th package.
func (st *winState) completes(cur *dataset.Package) bool {
	if st.n > 0 && isCycleStart(cur) {
		return false
	}
	return st.n+1 == WindowSize
}

// closingWindow assembles the window cur would close into state scratch.
func (st *winState) closingWindow(cur *dataset.Package) []*dataset.Package {
	copy(st.closing[:st.n], st.buf[:st.n])
	st.closing[st.n] = cur
	return st.closing[:st.n+1]
}

// Check implements core.StageDetector: the package completing a full
// command-response window carries the window's score. A score deposited
// by the batched precompute pass is consumed as-is (it is
// bitwise-identical to the inline computation by kernel contract).
func (s *WindowStage) Check(state core.StageState, pc *core.PackageContext, r *core.StageResult) {
	st := state.(*winState)
	if !st.completes(pc.Cur) {
		return
	}
	var score float64
	if st.prePkg == pc.Cur {
		score = st.preScore
	} else {
		score = s.scoreClosing(st, pc)
	}
	r.Scored = true
	r.Score = score
	r.Flagged = score > s.threshold
}

// scoreClosing scores the window pc.Cur completes, on the scalar path.
func (s *WindowStage) scoreClosing(st *winState, pc *core.PackageContext) float64 {
	if s.vec != nil {
		s.wz.SampleInto(st.sample, st.closingWindow(pc.Cur))
		return s.vec.ScoreVector(st.sample, st.scratch)
	}
	s.encodeMember(st, pc)
	var score float64
	score, st.key = s.disc.ScoreDiscrete(st.codes, st.key)
	return score
}

// encodeMember writes pc.Cur's discretized vector into the codes slot of
// the open window's next member, with the values Windowizer.Build gives
// that member: the first encodes against no predecessor, every later one
// against the member before it. A session feeding the stream in order has
// already encoded exactly that pair into pc.C, which is then copied; any
// other caller's package is encoded here.
func (s *WindowStage) encodeMember(st *winState, pc *core.PackageContext) {
	dim := s.wz.enc.Dim()
	dst := st.codes[st.n*dim : (st.n+1)*dim]
	switch {
	case st.n == 0:
		s.wz.enc.EncodeInto(dst, nil, pc.Cur)
	case len(pc.C) == dim && pc.Prev == st.buf[st.n-1]:
		copy(dst, pc.C)
	default:
		s.wz.enc.EncodeInto(dst, st.buf[st.n-1], pc.Cur)
	}
}

// Advance implements core.StageDetector: move the window buffer exactly
// like the offline slice4 — flush on a write command, flush on a full
// window — and invalidate any deposited precompute score.
func (s *WindowStage) Advance(state core.StageState, pc *core.PackageContext, _ *core.Verdict) {
	st := state.(*winState)
	st.prePkg = nil
	if st.n > 0 && isCycleStart(pc.Cur) {
		s.finalize(st)
	}
	// The member that fills the window is flushed below: its codes slot
	// would never be read.
	if s.disc != nil && st.n < WindowSize-1 {
		s.encodeMember(st, pc)
	}
	st.buf[st.n] = pc.Cur
	st.n++
	if st.n == WindowSize {
		s.finalize(st)
	}
}

// finalize closes the open window. Scores are recomputed only for the
// observer; decisions were already rendered in Check (full windows) or
// never rendered (short windows — their members are classified before the
// window is known to be short).
func (s *WindowStage) finalize(st *winState) {
	if s.Observer != nil {
		w := s.wz.Build(append([]*dataset.Package(nil), st.buf[:st.n]...))
		score := s.scorer.Score(w)
		s.Observer(w, score, score > s.threshold)
	}
	st.n = 0
}

// NewCheckBatch implements core.CheckBatchStage. It returns nil — no
// batching — for scorers without a batched kernel, which the stack batch
// treats as inline-only.
func (s *WindowStage) NewCheckBatch(maxBatch int) core.CheckBatch {
	if s.batch == nil {
		return nil
	}
	if maxBatch < 1 {
		maxBatch = 1
	}
	b := &winCheckBatch{
		stage:  s,
		sb:     s.batch.NewScoreBatch(maxBatch),
		rows:   make([][]float64, maxBatch),
		scores: make([]float64, maxBatch),
		states: make([]*winState, maxBatch),
		pkgs:   make([]*dataset.Package, maxBatch),
	}
	backing := make([]float64, maxBatch*SampleDim)
	for i := range b.rows {
		b.rows[i] = backing[i*SampleDim : (i+1)*SampleDim]
	}
	return b
}

// winCheckBatch precomputes window scores for many streams in one batched
// kernel pass and deposits them into the stream states.
type winCheckBatch struct {
	stage  *WindowStage
	sb     ScoreBatch
	rows   [][]float64
	scores []float64
	states []*winState
	pkgs   []*dataset.Package
	n      int
}

// Queue implements core.CheckBatch.
func (b *winCheckBatch) Queue(state core.StageState, cur *dataset.Package) bool {
	st := state.(*winState)
	if !st.completes(cur) {
		return false
	}
	b.stage.wz.SampleInto(b.rows[b.n], st.closingWindow(cur))
	b.states[b.n] = st
	b.pkgs[b.n] = cur
	b.n++
	return true
}

// Flush implements core.CheckBatch.
func (b *winCheckBatch) Flush() {
	if b.n == 0 {
		return
	}
	b.sb.Score(b.scores[:b.n], b.rows[:b.n])
	for i := 0; i < b.n; i++ {
		b.states[i].preScore = b.scores[i]
		b.states[i].prePkg = b.pkgs[i]
	}
	b.n = 0
}

// Len implements core.CheckBatch.
func (b *winCheckBatch) Len() int { return b.n }

// Cap implements core.CheckBatch.
func (b *winCheckBatch) Cap() int { return len(b.rows) }
