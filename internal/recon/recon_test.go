package recon

import (
	"math"
	"testing"

	"icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

// reconFixture is the shared trained fixture: one framework-view encoder
// and all three reconstruction stage models over the same split.
type reconFixture struct {
	fw     *core.Framework
	split  *dataset.Split
	models map[string]*Model
}

var sharedFixture *reconFixture

func loadReconFixture(t *testing.T) *reconFixture {
	t.Helper()
	if testing.Short() {
		t.Skip("recon stage training fixture skipped in short mode")
	}
	if sharedFixture == nil {
		sharedFixture = newReconFixture(t, 6000)
	}
	return sharedFixture
}

// newReconFixture generates a packages-long capture and trains all three
// reconstruction stage models on it.
func newReconFixture(t testing.TB, packages int) *reconFixture {
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
	fw := &core.Framework{Encoder: enc}
	models := make(map[string]*Model, len(reconKinds))
	for _, rk := range reconKinds {
		m, err := trainModel(fw, split, rk, 3)
		if err != nil {
			t.Fatalf("train %s: %v", rk.kind, err)
		}
		models[rk.kind] = m
	}
	return &reconFixture{fw: fw, split: split, models: models}
}

// buildStage wraps a trained model as its streaming stage.
func buildStage(fx *reconFixture, rk reconKind) (*Model, *baselines.WindowStage) {
	m := fx.models[rk.kind]
	wz := baselines.NewWindowizerWith(fx.fw.Encoder, m.Std)
	return m, baselines.NewWindowStage(rk.kind, rk.level, wz, &scorer{kind: rk.kind, net: m.Net}, m.Threshold)
}

// runStream drives a package stream through a stage the way a session
// does, returning the per-package stage results.
func runStream(stage *baselines.WindowStage, state core.StageState, pkgs []*dataset.Package) []core.StageResult {
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

// TestReconStreamingOfflineParity: each reconstruction stage, replayed as
// a streaming stage over the raw test stream, must reproduce the window
// slicing, the scores and the decisions of the offline path
// (Windowizer.FromStream + ReconNet.Score) bit for bit.
func TestReconStreamingOfflineParity(t *testing.T) {
	fx := loadReconFixture(t)
	stream := fx.split.Test
	if len(stream) > 2400 {
		stream = stream[:2400]
	}
	for _, rk := range reconKinds {
		rk := rk
		t.Run(rk.kind, func(t *testing.T) {
			m, stage := buildStage(fx, rk)

			wz := baselines.NewWindowizerWith(fx.fw.Encoder, m.Std)
			offline := wz.FromStream(stream)
			scratch := make([]float64, m.Net.ScratchLen())
			offScores := make([]float64, len(offline))
			for i, w := range offline {
				offScores[i] = m.Net.Score(w.Sample, scratch)
			}

			type finalized struct {
				score   float64
				flagged bool
				n       int
			}
			var got []finalized
			stage.Observer = func(w *baselines.Window, score float64, flagged bool) {
				got = append(got, finalized{score, flagged, len(w.Packages)})
			}
			results := runStream(stage, stage.NewState(), stream)

			if len(got) != len(offline) && len(got) != len(offline)-1 {
				t.Fatalf("streaming finalized %d windows, offline built %d", len(got), len(offline))
			}
			var full int
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
				if g.n == baselines.WindowSize {
					full++
				}
			}
			if full == 0 {
				t.Fatal("no full windows in the parity stream")
			}

			// Per-package: exactly the closing package of a full window
			// scores.
			var scored int
			for _, r := range results {
				if r.Scored {
					scored++
				}
			}
			if scored != full {
				t.Fatalf("%d packages scored, %d full windows finalized", scored, full)
			}
		})
	}
}

// TestReconStageCheckBatch: scores deposited by the engine's batched
// Check precompute must be consumed bit-for-bit identically to the plain
// sequential stage path.
func TestReconStageCheckBatch(t *testing.T) {
	fx := loadReconFixture(t)
	stream := fx.split.Test
	if len(stream) > 800 {
		stream = stream[:800]
	}
	for _, rk := range reconKinds {
		rk := rk
		t.Run(rk.kind, func(t *testing.T) {
			_, stage := buildStage(fx, rk)
			cb := stage.NewCheckBatch(8)
			if cb == nil {
				t.Fatal("reconstruction stage returned no check batch (lost BatchVectorScorer?)")
			}
			ref := runStream(stage, stage.NewState(), stream)
			state := stage.NewState()
			for i, p := range stream {
				cb.Queue(state, p)
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

// TestReconModelRoundTrip: encode/decode of every reconstruction stage
// model must be deterministic (Fingerprint mixes the bytes) and preserve
// scores bit for bit.
func TestReconModelRoundTrip(t *testing.T) {
	fx := loadReconFixture(t)
	wz, err := baselines.NewWindowizer(fx.fw.Encoder, fx.split.Train)
	if err != nil {
		t.Fatal(err)
	}
	windows := wz.FromStream(fx.split.Test)
	if len(windows) > 120 {
		windows = windows[:120]
	}
	for _, rk := range reconKinds {
		rk := rk
		t.Run(rk.kind, func(t *testing.T) {
			m := fx.models[rk.kind]
			b, err := encodeModel(m)
			if err != nil {
				t.Fatal(err)
			}
			b2, err := encodeModel(m)
			if err != nil {
				t.Fatal(err)
			}
			if string(b) != string(b2) {
				t.Fatal("recon model encoding is not deterministic")
			}
			got, err := decodeModel(b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Threshold != m.Threshold {
				t.Fatalf("threshold %v after round trip, want %v", got.Threshold, m.Threshold)
			}
			scratch := make([]float64, m.Net.ScratchLen())
			scratch2 := make([]float64, got.Net.ScratchLen())
			for i, w := range windows {
				a := m.Net.Score(w.Sample, scratch)
				c := got.Net.Score(w.Sample, scratch2)
				if math.Float64bits(a) != math.Float64bits(c) {
					t.Fatalf("window %d: score %x after round trip, want %x", i,
						math.Float64bits(c), math.Float64bits(a))
				}
			}
		})
	}
}

// TestReconKindsRegistered: the three kinds must be resolvable through
// the core registry (the blank-import contract every cmd relies on).
func TestReconKindsRegistered(t *testing.T) {
	for _, kind := range Kinds() {
		spec, err := core.ParseStackSpec("bloom,"+kind, "first-hit")
		if err != nil {
			t.Fatalf("stack spec with %s: %v", kind, err)
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("validate stack with %s: %v", kind, err)
		}
	}
}

// BenchmarkWindowStageCheck times one window-closing Check per
// reconstruction stage — ns and allocations per closed window — on models
// trained like the offline-all-levels workload's (a 3000-package
// capture), cycling through the test stream's full windows. The promoted
// baselines' rows are internal/baselines' benchmark of the same name.
func BenchmarkWindowStageCheck(b *testing.B) {
	fx := newReconFixture(b, 3000)
	for _, rk := range reconKinds {
		rk := rk
		b.Run(rk.kind, func(b *testing.B) {
			m, stage := buildStage(fx, rk)
			// One parked state per full window: advanced through all but
			// the closing package, so Check scores the window and leaves
			// the state as it was.
			var states []core.StageState
			var closing []core.PackageContext
			wz := baselines.NewWindowizerWith(fx.fw.Encoder, m.Std)
			for _, w := range wz.FromStream(fx.split.Test) {
				if len(w.Packages) != baselines.WindowSize {
					continue
				}
				st := stage.NewState()
				for _, p := range w.Packages[:baselines.WindowSize-1] {
					var v core.Verdict
					stage.Advance(st, &core.PackageContext{Cur: p}, &v)
				}
				states = append(states, st)
				closing = append(closing, core.PackageContext{Cur: w.Packages[baselines.WindowSize-1]})
			}
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
