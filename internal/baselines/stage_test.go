package baselines

import (
	"fmt"
	"math"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/mathx"
	"icsdetect/internal/signature"
)

// stageFixture builds the shared split/encoder fixture the streaming-stage
// tests train against.
type stageFixture struct {
	fw    *core.Framework
	split *dataset.Split
}

var sharedStageFixture *stageFixture

func loadStageFixture(t *testing.T) *stageFixture {
	t.Helper()
	if sharedStageFixture == nil {
		sharedStageFixture = newStageFixture(t, 8000)
	}
	return sharedStageFixture
}

// newStageFixture generates a packages-long capture and fits the encoder
// the window levels train against.
func newStageFixture(t testing.TB, packages int) *stageFixture {
	t.Helper()
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(packages, 11))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	g := signature.Granularity{IntervalClusters: 2, CRCClusters: 2, PressureBins: 5, SetpointBins: 3, PIDClusters: 2}
	enc, err := signature.FitEncoder(split.Train, g, 1)
	if err != nil {
		t.Fatalf("fit encoder: %v", err)
	}
	// The window levels only consult the framework's encoder at train and
	// build time, so a minimal framework carries the fixture.
	return &stageFixture{fw: &core.Framework{Encoder: enc}, split: split}
}

// trainStage fits one promoted level and wraps it as a streaming stage.
func trainStage(t testing.TB, fx *stageFixture, wk windowKind) (*WindowModel, *WindowStage) {
	t.Helper()
	m, err := trainWindowModel(fx.fw, fx.split, wk, 3)
	if err != nil {
		t.Fatalf("train %s: %v", wk.kind, err)
	}
	wz := NewWindowizerWith(fx.fw.Encoder, m.Std)
	return m, NewWindowStage(wk.kind, wk.level, wz, m.Scorer, m.Threshold)
}

// runStream drives a package stream through a stage the way a session
// does, returning the per-package stage results.
func runStream(stage *WindowStage, state core.StageState, pkgs []*dataset.Package) []core.StageResult {
	out := make([]core.StageResult, len(pkgs))
	for i, p := range pkgs {
		pc := core.PackageContext{Cur: p}
		r := core.StageResult{Rank: -1}
		stage.Check(state, &pc, &r)
		out[i] = r
		var v core.Verdict
		stage.Advance(state, &pc, &v)
	}
	return out
}

// TestStreamingOfflineParity: every promoted level, replayed as a
// streaming stage over the raw test stream, must reproduce the window
// slicing, the scores and the decisions of the offline baselines.Eval
// path (Windowizer.FromStream + Scorer.Score) exactly — bit for bit on
// the scores.
func TestStreamingOfflineParity(t *testing.T) {
	fx := loadStageFixture(t)
	stream := fx.split.Test
	if len(stream) > 2400 {
		stream = stream[:2400]
	}
	for _, wk := range windowKinds {
		wk := wk
		t.Run(wk.kind, func(t *testing.T) {
			m, stage := trainStage(t, fx, wk)

			// Offline view of the same stream.
			wz := NewWindowizerWith(fx.fw.Encoder, m.Std)
			offline := wz.FromStream(stream)
			offScores := make([]float64, len(offline))
			for i, w := range offline {
				offScores[i] = m.Scorer.Score(w)
			}

			// Streaming view: the observer logs every finalized window.
			type finalized struct {
				score   float64
				flagged bool
				n       int
			}
			var got []finalized
			stage.Observer = func(w *Window, score float64, flagged bool) {
				got = append(got, finalized{score, flagged, len(w.Packages)})
			}
			results := runStream(stage, stage.NewState(), stream)

			// A stream never "ends" for the stage, so at most the trailing
			// open window is unfinalized.
			if len(got) != len(offline) && len(got) != len(offline)-1 {
				t.Fatalf("streaming finalized %d windows, offline built %d", len(got), len(offline))
			}
			for i, g := range got {
				if len(offline[i].Packages) != g.n {
					t.Fatalf("window %d: streaming %d packages, offline %d", i, g.n, len(offline[i].Packages))
				}
				if math.Float64bits(g.score) != math.Float64bits(offScores[i]) {
					t.Fatalf("window %d: streaming score %x, offline %x", i,
						math.Float64bits(g.score), math.Float64bits(offScores[i]))
				}
				if g.flagged != (offScores[i] > m.Threshold) {
					t.Fatalf("window %d: streaming decision %v, offline %v", i, g.flagged, offScores[i] > m.Threshold)
				}
			}

			// Per-package verdicts: exactly the closing package of every
			// full window scores, with the window's decision.
			ri := 0
			for i, w := range offline {
				last := ri + len(w.Packages) - 1
				for j := ri; j <= last && j < len(results); j++ {
					r := results[j]
					closing := j == last && len(w.Packages) == WindowSize
					if r.Scored != closing {
						t.Fatalf("package %d (window %d): scored=%v, want %v", j, i, r.Scored, closing)
					}
					if closing {
						if math.Float64bits(r.Score) != math.Float64bits(offScores[i]) {
							t.Fatalf("package %d: score %x, offline window %x", j,
								math.Float64bits(r.Score), math.Float64bits(offScores[i]))
						}
						if r.Flagged != (offScores[i] > m.Threshold) {
							t.Fatalf("package %d: flagged=%v, offline %v", j, r.Flagged, offScores[i] > m.Threshold)
						}
					}
				}
				ri += len(w.Packages)
			}
		})
	}
}

// TestBatchedScorerBitwise: the batched score kernels of the PCA and GMM
// levels must equal their scalar ScoreVector bit for bit on real window
// samples, at batch widths around the kernel tile.
func TestBatchedScorerBitwise(t *testing.T) {
	fx := loadStageFixture(t)
	wz, err := NewWindowizer(fx.fw.Encoder, fx.split.Train)
	if err != nil {
		t.Fatal(err)
	}
	windows := wz.FromStream(fx.split.Test)
	if len(windows) > 200 {
		windows = windows[:200]
	}
	samples := Samples(windows)

	for _, wk := range windowKinds {
		wk := wk
		sc, err := wk.fit(wz.FromFragments(fx.split.Train), 3)
		if err != nil {
			t.Fatalf("fit %s: %v", wk.kind, err)
		}
		bv, ok := sc.(BatchVectorScorer)
		if !ok {
			continue
		}
		t.Run(wk.kind, func(t *testing.T) {
			for _, width := range []int{1, 3, 4, 7, 64} {
				sb := bv.NewScoreBatch(width)
				scratch := make([]float64, bv.ScratchLen())
				dst := make([]float64, width)
				for off := 0; off < len(samples); off += width {
					end := off + width
					if end > len(samples) {
						end = len(samples)
					}
					xs := samples[off:end]
					sb.Score(dst[:len(xs)], xs)
					for i, x := range xs {
						want := bv.ScoreVector(x, scratch)
						if math.Float64bits(dst[i]) != math.Float64bits(want) {
							t.Fatalf("width %d sample %d: batch %x scalar %x", width, off+i,
								math.Float64bits(dst[i]), math.Float64bits(want))
						}
					}
				}
			}
		})
	}
	// The interface checks above must actually cover the two batched kinds.
	if _, ok := any(&PCASVD{}).(BatchVectorScorer); !ok {
		t.Error("PCASVD lost its batched scorer")
	}
	if _, ok := any(&GMM{}).(BatchVectorScorer); !ok {
		t.Error("GMM lost its batched scorer")
	}
}

// TestWindowStageCheckBatch: a score deposited by the stage's CheckBatch
// must be consumed by Check bit-for-bit, and the batch must skip packages
// that do not complete a window.
func TestWindowStageCheckBatch(t *testing.T) {
	fx := loadStageFixture(t)
	for _, wk := range windowKinds {
		wk := wk
		t.Run(wk.kind, func(t *testing.T) {
			_, stage := trainStage(t, fx, wk)
			cb := stage.NewCheckBatch(8)
			if stage.batch == nil {
				if cb != nil {
					t.Fatal("non-batchable stage returned a check batch")
				}
				return
			}
			if cb == nil {
				t.Fatal("batchable stage returned no check batch")
			}

			stream := fx.split.Test[:600]
			// Reference: plain sequential run.
			ref := runStream(stage, stage.NewState(), stream)
			// Batched: queue every package through the check batch first.
			state := stage.NewState()
			for i, p := range stream {
				queued := cb.Queue(state, p)
				if queued != state.(*winState).completes(p) {
					t.Fatalf("package %d: queued=%v but completes=%v", i, queued, !queued)
				}
				cb.Flush()
				pc := core.PackageContext{Cur: p}
				r := core.StageResult{Rank: -1}
				stage.Check(state, &pc, &r)
				if r != ref[i] {
					t.Fatalf("package %d: batched result %+v, sequential %+v", i, r, ref[i])
				}
				var v core.Verdict
				stage.Advance(state, &pc, &v)
			}
		})
	}
}

// TestWindowModelRoundTrip: encode/decode of every promoted level's model
// must preserve scores bit for bit and the threshold exactly.
func TestWindowModelRoundTrip(t *testing.T) {
	fx := loadStageFixture(t)
	wzTest, err := NewWindowizer(fx.fw.Encoder, fx.split.Train)
	if err != nil {
		t.Fatal(err)
	}
	windows := wzTest.FromStream(fx.split.Test)
	if len(windows) > 120 {
		windows = windows[:120]
	}
	for _, wk := range windowKinds {
		wk := wk
		t.Run(wk.kind, func(t *testing.T) {
			m, err := trainWindowModel(fx.fw, fx.split, wk, 3)
			if err != nil {
				t.Fatal(err)
			}
			b, err := encodeWindowModel(m)
			if err != nil {
				t.Fatal(err)
			}
			// Deterministic encoding (Fingerprint mixes these bytes).
			b2, err := encodeWindowModel(m)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b2) {
				t.Fatal("window model encoding is not deterministic")
			}
			got, err := decodeWindowModel(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Threshold != m.Threshold {
				t.Fatalf("threshold %v after round trip, want %v", got.Threshold, m.Threshold)
			}
			for i, w := range windows {
				a, bsc := m.Scorer.Score(w), got.Scorer.Score(w)
				if math.Float64bits(a) != math.Float64bits(bsc) {
					t.Fatalf("window %d: score %x after round trip, want %x", i,
						math.Float64bits(bsc), math.Float64bits(a))
				}
			}
		})
	}
}

// closingWindows parks one fresh stream state per full window of stream,
// advanced through the window's first WindowSize-1 packages, and returns
// the states with the package that closes each: Check on a pair scores
// exactly one closed window and leaves the state as it was.
func closingWindows(stage *WindowStage, stream []*dataset.Package) ([]core.StageState, []core.PackageContext) {
	var states []core.StageState
	var closing []core.PackageContext
	for _, pkgs := range slice4(stream) {
		if len(pkgs) != WindowSize {
			continue
		}
		st := stage.NewState()
		for _, p := range pkgs[:WindowSize-1] {
			var v core.Verdict
			stage.Advance(st, &core.PackageContext{Cur: p}, &v)
		}
		states = append(states, st)
		closing = append(closing, core.PackageContext{Cur: pkgs[WindowSize-1]})
	}
	return states, closing
}

// BenchmarkWindowStageCheck times one window-closing Check per promoted
// level — ns and allocations per closed window — on models trained like
// the offline-all-levels workload's (a 3000-package capture), cycling
// through the test stream's full windows.
func BenchmarkWindowStageCheck(b *testing.B) {
	fx := newStageFixture(b, 3000)
	for _, wk := range windowKinds {
		wk := wk
		b.Run(wk.kind, func(b *testing.B) {
			_, stage := trainStage(b, fx, wk)
			states, closing := closingWindows(stage, fx.split.Test)
			if len(states) == 0 {
				b.Fatal("test stream has no full window")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := i % len(states)
				r := core.StageResult{Rank: -1}
				stage.Check(states[k], &closing[k], &r)
				if !r.Scored {
					b.Fatalf("window %d was not scored", k)
				}
			}
		})
	}
}

// TestScoreDiscreteMatchesBuild: the streaming bf4/bayesnet score of every
// closed window — assembled member by member from session-encoded vectors
// (pc.C), or encoded by the stage when the caller supplies none — must
// equal Scorer.Score over the Window the offline Windowizer builds from
// the same packages, bit for bit, across aligned, misaligned and short
// windows.
func TestScoreDiscreteMatchesBuild(t *testing.T) {
	fx := loadStageFixture(t)
	// Splice copies of write commands into the stream at seeded positions:
	// each cuts the open window short and shifts the ones behind it.
	base := fx.split.Test
	var write *dataset.Package
	for _, p := range base {
		if isCycleStart(p) {
			write = p
			break
		}
	}
	if write == nil {
		t.Fatal("test stream has no write command")
	}
	rng := mathx.NewRNG(5)
	var stream []*dataset.Package
	for _, p := range base {
		if rng.Intn(9) == 0 {
			inj := *write
			inj.Time = p.Time
			stream = append(stream, &inj)
		}
		stream = append(stream, p)
	}
	var aligned, misaligned, short int
	for _, w := range slice4(stream) {
		switch {
		case len(w) < WindowSize:
			short++
		case isCycleStart(w[0]):
			aligned++
		default:
			misaligned++
		}
	}
	if aligned == 0 || misaligned == 0 || short == 0 {
		t.Fatalf("stream has %d aligned, %d misaligned, %d short windows; need all three", aligned, misaligned, short)
	}

	for _, wk := range windowKinds {
		wk := wk
		m, stage := trainStage(t, fx, wk)
		if stage.disc == nil {
			continue
		}
		wz := NewWindowizerWith(fx.fw.Encoder, m.Std)
		want := make(map[*dataset.Package]float64)
		for _, w := range slice4(stream) {
			if len(w) == WindowSize {
				want[w[WindowSize-1]] = m.Scorer.Score(wz.Build(w))
			}
		}
		for _, encoded := range []bool{true, false} {
			t.Run(fmt.Sprintf("%s/session-encoded=%v", wk.kind, encoded), func(t *testing.T) {
				state := stage.NewState()
				var prev *dataset.Package
				scored := 0
				for i, p := range stream {
					pc := core.PackageContext{Cur: p}
					if encoded {
						pc.Prev, pc.C = prev, fx.fw.Encoder.Encode(prev, p)
					}
					r := core.StageResult{Rank: -1}
					stage.Check(state, &pc, &r)
					w, closes := want[p]
					if r.Scored != closes {
						t.Fatalf("package %d: scored=%v, closes a full window=%v", i, r.Scored, closes)
					}
					if closes {
						scored++
						if math.Float64bits(r.Score) != math.Float64bits(w) {
							t.Fatalf("package %d: streaming score %x, built window %x", i,
								math.Float64bits(r.Score), math.Float64bits(w))
						}
					}
					var v core.Verdict
					stage.Advance(state, &pc, &v)
					prev = p
				}
				if scored != len(want) {
					t.Fatalf("scored %d windows, want %d", scored, len(want))
				}
			})
		}
	}
}
