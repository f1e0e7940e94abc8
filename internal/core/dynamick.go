package core

// DynamicKConfig tunes the adaptive top-k controller. The paper lists
// dynamically adjusted k as future work (§IX: "we will design effective
// approaches to adjust the value of k dynamically based on previous
// predictions"); this implementation realizes it with a feedback rule on
// the recent alert rate of the time-series level.
type DynamicKConfig struct {
	// MinK and MaxK bound the adjustment range around the trained k.
	MinK, MaxK int
	// TargetRate is the acceptable fraction of time-series alerts among
	// recently scored packages (≈ the θ of the k-selection rule).
	TargetRate float64
	// Window is the number of recent scored packages the rate is computed
	// over.
	Window int
}

// DefaultDynamicKConfig derives bounds from the trained k.
func DefaultDynamicKConfig(trainedK int) DynamicKConfig {
	minK := trainedK - 2
	if minK < 1 {
		minK = 1
	}
	return DynamicKConfig{
		MinK:       minK,
		MaxK:       trainedK + 4,
		TargetRate: 0.05,
		Window:     200,
	}
}

// DynamicSeriesStage is the time-series level with the adaptive-k
// controller folded into the stage stack (registry kind "lstm-dynamic"):
// every stream carries its own adaptive k, so dynamic-k works identically
// under sequential sessions and the batched multi-stream engine. When the
// recent per-stream alert rate of the level exceeds the target, k grows
// (fewer false positives); when the rate falls well below target, k
// shrinks back toward the trained value (higher sensitivity).
//
// The controller observes its own level's outcome from the verdict's
// per-level evidence during Advance (Check must not mutate stream state),
// so stacks containing this stage always record evidence — which the
// stack machinery guarantees, since the kind is not one of the built-in
// two. Under first-hit fusion a package-level detection short-circuits
// this stage and leaves no evidence entry, so Bloom detections never
// influence the alert rate.
type DynamicSeriesStage struct {
	Series *SeriesStage
	Cfg    DynamicKConfig
}

var _ StageDetector = (*DynamicSeriesStage)(nil)
var _ AdvanceBatchStage = (*DynamicSeriesStage)(nil)

// dynamicState is the per-stream state: the wrapped recurrent state plus
// the controller (current k and the ring buffer of recent level verdicts).
type dynamicState struct {
	inner  *seriesState
	k      int
	recent []bool
	idx    int
	filled int
	alerts int
}

// Reset implements StageState.
func (st *dynamicState) Reset() {
	st.inner.Reset()
	// k intentionally survives a reset along with an emptied controller
	// window: the operating point was learned from this stream's traffic.
	st.idx, st.filled, st.alerts = 0, 0, 0
	for i := range st.recent {
		st.recent[i] = false
	}
}

// Name implements StageDetector.
func (s *DynamicSeriesStage) Name() string { return StageLSTMDynamic }

// Level implements StageDetector; detections are still time-series
// detections, whatever the current k.
func (s *DynamicSeriesStage) Level() Level { return LevelTimeSeries }

// NewState implements StageDetector.
func (s *DynamicSeriesStage) NewState() StageState {
	return &dynamicState{
		inner:  s.Series.NewState().(*seriesState),
		k:      s.Series.Detector.K,
		recent: make([]bool, s.Cfg.Window),
	}
}

// Check implements StageDetector: the top-k test at the stream's current
// adaptive k.
func (s *DynamicSeriesStage) Check(state StageState, pc *PackageContext, r *StageResult) {
	st := state.(*dynamicState)
	s.Series.check(st.inner, pc, r, st.k)
}

// Advance updates the controller from the level's recorded evidence and
// feeds the package into the recurrent model.
func (s *DynamicSeriesStage) Advance(state StageState, pc *PackageContext, v *Verdict) {
	st := state.(*dynamicState)
	s.observeEvidence(st, v)
	s.Series.Advance(st.inner, pc, v)
}

// observeEvidence finds this stage's evidence entry in the final verdict
// (absent when an earlier level short-circuited the check) and feeds the
// controller.
func (s *DynamicSeriesStage) observeEvidence(st *dynamicState, v *Verdict) {
	for i := range v.Evidence {
		if v.Evidence[i].Stage == StageLSTMDynamic {
			s.observe(st, v.Evidence[i].Flagged)
			return
		}
	}
}

func (s *DynamicSeriesStage) observe(st *dynamicState, alert bool) {
	if st.filled == len(st.recent) {
		if st.recent[st.idx] {
			st.alerts--
		}
	} else {
		st.filled++
	}
	st.recent[st.idx] = alert
	if alert {
		st.alerts++
	}
	st.idx = (st.idx + 1) % len(st.recent)

	if st.filled < len(st.recent)/2 {
		return // not enough evidence yet
	}
	rate := float64(st.alerts) / float64(st.filled)
	switch {
	case rate > s.Cfg.TargetRate*1.5 && st.k < s.Cfg.MaxK:
		st.k++
		s.decayHalf(st)
	case rate < s.Cfg.TargetRate/2 && st.k > s.Cfg.MinK:
		st.k--
		s.decayHalf(st)
	}
}

// decayHalf forgets half the window after a k change so the controller
// re-estimates the rate at the new operating point instead of oscillating.
func (s *DynamicSeriesStage) decayHalf(st *dynamicState) {
	drop := st.filled / 2
	for i := 0; i < drop; i++ {
		pos := (st.idx + i) % len(st.recent)
		if st.recent[pos] {
			st.alerts--
			st.recent[pos] = false
		}
	}
	st.filled -= drop
	if st.filled < 0 {
		st.filled = 0
	}
}

// NewAdvanceBatch implements AdvanceBatchStage: the controller updates
// inline at queue time and the recurrent step joins the wrapped series
// stage's batched pass, so dynamic-k streams micro-batch with everything
// else on the shard.
func (s *DynamicSeriesStage) NewAdvanceBatch(maxBatch int) AdvanceBatch {
	return &dynamicAdvanceBatch{stage: s, inner: s.Series.NewAdvanceBatch(maxBatch)}
}

type dynamicAdvanceBatch struct {
	stage *DynamicSeriesStage
	inner AdvanceBatch
}

func (b *dynamicAdvanceBatch) Queue(state StageState, pc *PackageContext, v *Verdict) {
	st := state.(*dynamicState)
	b.stage.observeEvidence(st, v)
	b.inner.Queue(st.inner, pc, v)
}

func (b *dynamicAdvanceBatch) Flush()   { b.inner.Flush() }
func (b *dynamicAdvanceBatch) Len() int { return b.inner.Len() }
func (b *dynamicAdvanceBatch) Cap() int { return b.inner.Cap() }
