package core

import (
	"fmt"

	"icsdetect/internal/dataset"
	"icsdetect/internal/metrics"
	"icsdetect/internal/signature"
)

// Framework is the trained multi-level anomaly detection framework: the
// paper's two built-in levels (§IV Bloom package detector, §V stacked LSTM
// time-series detector) plus any promoted extra-level models, composed
// into a detection stack by NewStack.
type Framework struct {
	Encoder *signature.Encoder
	DB      *signature.DB
	Package *PackageDetector
	Series  *TimeSeriesDetector
	Input   *InputEncoder
	// Extra holds the trained models of registered non-built-in levels
	// (see RegisterStage and TrainStages), keyed by stage kind.
	Extra map[string]StageModel
}

// Session classifies one package stream against a detection stack: a thin
// per-stream state object holding the previous package (for the interval
// feature) and one StageState per level. All mutable state lives here —
// the Framework, the Stack and its stages stay read-only during
// classification — so each goroutine of a concurrent deployment owns its
// sessions without locking. Packages — whatever their verdict — feed the
// time-series input for the classification of future packages, with the
// noise flag set to the verdict (Fig. 3).
type Session struct {
	stack  *Stack
	states []StageState
	prev   *dataset.Package
	// cbuf and sigbuf are the reusable encoding buffers of the per-package
	// hot path: the discretized vector and the signature spelling are built
	// in place, and database signatures intern to their canonical string,
	// so classifying a normal package allocates nothing. cbuf is exposed to
	// the stages as PackageContext.C and stays valid only until this
	// session classifies its next package — stages that keep encoded input
	// across steps copy at Advance/Queue time.
	cbuf   []int
	sigbuf []byte
	// pcbuf, vbuf and rbuf are session-resident homes for the structs the
	// classify/advance loops hand to the stage interfaces by pointer. A
	// stack local passed as *PackageContext/*Verdict/*StageResult into an
	// interface method is forced to the heap by escape analysis — one
	// allocation per package (or per stage, for rbuf); fields of the
	// already-heap-allocated session cost nothing. Stages must not retain
	// the pointers past the call, which the StageDetector contract already
	// requires.
	pcbuf PackageContext
	vbuf  Verdict
	rbuf  StageResult
	// evbuf backs the per-verdict Evidence slice when the caller opted
	// into ReuseEvidence: evidence-recording stacks then classify without
	// the one allocation per package the fresh slice costs.
	evbuf         []LevelEvidence
	reuseEvidence bool
}

// ReuseEvidence opts the session into pooling the per-verdict Evidence
// slice: every verdict's Evidence aliases one session-owned buffer that
// the next ClassifyOnly overwrites. Callers that retain verdicts (or
// their Evidence) past the next classification must copy first — which is
// why fresh slices remain the default. Only evidence-recording stacks
// allocate evidence at all; for the rest this is a no-op.
func (s *Session) ReuseEvidence(on bool) {
	s.reuseEvidence = on
	if on && s.evbuf == nil {
		s.evbuf = make([]LevelEvidence, 0, len(s.stack.stages))
	}
}

// NewSession starts a classification session over the default two-level
// stack (bloom,lstm under first-hit fusion).
func (f *Framework) NewSession() *Session {
	sess, err := f.NewStackSession(DefaultStackSpec())
	if err != nil {
		// The built-in levels always resolve on a trained framework; an
		// error here means the framework is structurally broken.
		panic(fmt.Sprintf("core: session over built-in stack: %v", err))
	}
	return sess
}

// NewStackSession starts a session over an arbitrary level stack.
func (f *Framework) NewStackSession(spec StackSpec) (*Session, error) {
	st, err := f.NewStack(spec)
	if err != nil {
		return nil, err
	}
	return st.NewSession(), nil
}

// Stack returns the detection stack the session classifies against.
func (s *Session) Stack() *Stack { return s.stack }

// Classify classifies the next package of the stream and advances the
// session.
func (s *Session) Classify(cur *dataset.Package) Verdict {
	v, pc := s.ClassifyOnly(cur)
	s.Advance(pc, v)
	return v
}

// ClassifyOnly runs the Check half of the pipeline: it encodes the package
// and fuses the levels' opinions into a verdict under the stack's fusion
// policy (first-hit evaluates levels in order until one flags — Fig. 3:
// the Bloom filter short-circuits the time-series level, since an unknown
// signature can never be in S(k); majority and weighted fusion consult
// every level). Stream state does not move; the caller completes the step
// with Advance — or batches it across sessions with StackBatch.QueueAdvance
// — before classifying the next package of this stream.
func (s *Session) ClassifyOnly(cur *dataset.Package) (Verdict, PackageContext) {
	fw := s.stack.fw
	fw.Encoder.EncodeInto(s.cbuf, s.prev, cur)
	s.sigbuf = signature.AppendSignature(s.sigbuf[:0], s.cbuf)
	s.pcbuf = PackageContext{Prev: s.prev, Cur: cur, C: s.cbuf, Sig: fw.DB.Intern(s.sigbuf)}
	v := Verdict{Signature: s.pcbuf.Sig, Rank: -1}
	st := s.stack
	if st.evidence {
		if s.reuseEvidence {
			v.Evidence = s.evbuf[:0]
		} else {
			v.Evidence = make([]LevelEvidence, 0, len(st.stages))
		}
	}
	switch st.spec.fusion() {
	case FusionMajority, FusionWeighted:
		s.classifyVoting(&s.pcbuf, &v)
	default:
		s.classifyFirstHit(&s.pcbuf, &v)
	}
	return v, s.pcbuf
}

// classifyFirstHit evaluates levels in stack order until one flags the
// package; later levels are short-circuited and do not appear in the
// evidence.
func (s *Session) classifyFirstHit(pc *PackageContext, v *Verdict) {
	for i, stage := range s.stack.stages {
		s.rbuf = StageResult{Rank: -1}
		stage.Check(s.states[i], pc, &s.rbuf)
		if s.rbuf.Rank >= 0 {
			v.Rank = s.rbuf.Rank
		}
		if s.stack.evidence {
			v.Evidence = append(v.Evidence, evidenceOf(stage, s.rbuf))
		}
		if s.rbuf.Flagged {
			v.Anomaly = true
			v.Level = stage.Level()
			return
		}
	}
}

// classifyVoting evaluates every level and fuses their votes: strict
// majority of the scoring levels (FusionMajority) or a weighted-score
// threshold (FusionWeighted). Levels that abstain (unscored) join neither
// side. Verdict.Level is the first level that voted anomalous.
func (s *Session) classifyVoting(pc *PackageContext, v *Verdict) {
	var flaggedWeight, scoredWeight float64
	var flagged, scored int
	firstLevel := LevelNone
	for i, stage := range s.stack.stages {
		s.rbuf = StageResult{Rank: -1}
		stage.Check(s.states[i], pc, &s.rbuf)
		if s.rbuf.Rank >= 0 {
			v.Rank = s.rbuf.Rank
		}
		if s.stack.evidence {
			v.Evidence = append(v.Evidence, evidenceOf(stage, s.rbuf))
		}
		if !s.rbuf.Scored {
			continue
		}
		scored++
		scoredWeight += s.stack.weights[i]
		if s.rbuf.Flagged {
			flagged++
			flaggedWeight += s.stack.weights[i]
			if firstLevel == LevelNone {
				firstLevel = stage.Level()
			}
		}
	}
	var anomalous bool
	if s.stack.spec.fusion() == FusionMajority {
		anomalous = scored > 0 && 2*flagged > scored
	} else {
		anomalous = scoredWeight > 0 && flaggedWeight > s.stack.spec.threshold()*scoredWeight
	}
	if anomalous {
		v.Anomaly = true
		v.Level = firstLevel
	}
}

func evidenceOf(stage StageDetector, r StageResult) LevelEvidence {
	return LevelEvidence{
		Stage:   stage.Name(),
		Level:   stage.Level(),
		Scored:  r.Scored,
		Flagged: r.Flagged,
		Score:   r.Score,
		Rank:    r.Rank,
	}
}

// Advance feeds the classified package into every stage's stream state and
// completes the step that v closed.
func (s *Session) Advance(pc PackageContext, v Verdict) {
	// The loop hands the structs to the stage interfaces through the
	// session-resident copies — pointers to the parameters themselves would
	// escape and heap-allocate both on every call.
	s.pcbuf, s.vbuf = pc, v
	for i, stage := range s.stack.stages {
		stage.Advance(s.states[i], &s.pcbuf, &s.vbuf)
	}
	s.prev = pc.Cur
}

// Reset returns the session to its initial state. A reset session produces
// verdicts identical to a fresh one.
func (s *Session) Reset() {
	for _, st := range s.states {
		st.Reset()
	}
	s.prev = nil
}

// Evaluation is the outcome of running a framework over a labeled test set.
type Evaluation struct {
	Confusion metrics.Confusion
	Summary   metrics.Summary
	PerAttack *metrics.PerAttack
	// ByLevel counts detections per detector level.
	ByLevel map[Level]int
}

// Evaluate classifies every package of the test stream through a level
// stack and scores the verdicts against ground truth (§VIII-B).
func (f *Framework) Evaluate(test []*dataset.Package, spec StackSpec) (*Evaluation, error) {
	sess, err := f.NewStackSession(spec)
	if err != nil {
		return nil, err
	}
	eval := &Evaluation{
		PerAttack: metrics.NewPerAttack(),
		ByLevel:   make(map[Level]int),
	}
	for _, p := range test {
		v := sess.Classify(p)
		eval.Confusion.Add(v.Anomaly, p.IsAttack())
		eval.PerAttack.Add(p.Label, v.Anomaly)
		if v.Anomaly {
			eval.ByLevel[v.Level]++
		}
	}
	eval.Summary = metrics.Summarize(&eval.Confusion)
	return eval, nil
}

// SetK overrides the top-k threshold (used by the Fig. 7 sweep over k).
func (f *Framework) SetK(k int) error {
	if k < 1 {
		return fmt.Errorf("core: k must be >= 1, got %d", k)
	}
	f.Series.K = k
	return nil
}

// MemoryBytes reports the storage cost of the two built-in detection
// models (the paper reports 684 KB): the Bloom filter bit vector plus the
// LSTM parameters at 8 bytes each.
func (f *Framework) MemoryBytes() int {
	return f.Package.SizeBytes() + 8*f.Series.Model.NumParams()
}
