// Stack conformance beyond the committed goldens: the golden corpora pin
// the default two-level stack, so this suite locks the sequential≡engine
// bitwise invariant for composed stacks — freshly trained promoted levels
// (PCA, GMM) under non-first-hit fusion, on every kernel tier (AVX-512,
// AVX2, scalar). CI runs it as part of `make conformance`.
package icsdetect_test

import (
	"fmt"
	"sync"
	"testing"

	"icsdetect"
)

// stackFixture is the shared trained framework of the stack conformance
// and allocation-gate tests: a small gas-pipeline model plus the stage
// models of the promoted levels used in the composed stacks.
type stackFixture struct {
	det   *icsdetect.Detector
	split *icsdetect.DataSplit
	err   error
}

var (
	stackFixtureOnce sync.Once
	sharedStack      stackFixture
)

// fixtureLevels is every level the stack fixture trains: the two built-in
// ones and all nine registered window kinds.
const fixtureLevels = "bloom,bf4,pca,gmm,iforest,bayesnet,svdd,lstm,ae,seq2seq,cnn"

func loadStackFixture(t testing.TB) *stackFixture {
	t.Helper()
	stackFixtureOnce.Do(func() {
		sharedStack.err = func() error {
			ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{Packages: 6000, Seed: 33})
			if err != nil {
				return err
			}
			split, err := icsdetect.Split(ds)
			if err != nil {
				return err
			}
			opts := icsdetect.DefaultTrainOptions()
			opts.Granularity = icsdetect.Granularity{
				IntervalClusters: 2, CRCClusters: 2,
				PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
			}
			opts.Hidden = []int{16, 16}
			opts.Fit.Epochs = 4
			opts.Fit.BatchSize = 4
			det, _, err := icsdetect.Train(split, opts)
			if err != nil {
				return err
			}
			// Stage models for every registered window level, trained from
			// the same dataset path as the framework itself: the composed
			// stacks below use some, the allocation gates (alloc_test.go)
			// all of them.
			spec, err := icsdetect.ParseStack(fixtureLevels, "majority")
			if err != nil {
				return err
			}
			if err := det.TrainStages(spec, split, 33); err != nil {
				return err
			}
			sharedStack.det, sharedStack.split = det, split
			return nil
		}()
	})
	if sharedStack.err != nil {
		t.Fatalf("stack fixture: %v", sharedStack.err)
	}
	return &sharedStack
}

// sequentialStackVerdicts classifies the stream through a sequential
// session over spec.
func sequentialStackVerdicts(t testing.TB, fx *stackFixture, spec icsdetect.StackSpec,
	pkgs []*icsdetect.Package) []icsdetect.Verdict {
	t.Helper()
	sess, err := fx.det.NewStackSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]icsdetect.Verdict, len(pkgs))
	for i, p := range pkgs {
		out[i] = sess.Classify(p)
	}
	return out
}

// TestStackConformance: a freshly trained bloom,pca,lstm stack under
// majority-vote fusion must produce bitwise-identical verdicts (evidence
// included) through the sequential session and the batched engine, on
// every kernel tier (AVX-512, AVX2, scalar) — many interleaved streams
// sharing shards, so the window levels' batched Check precompute genuinely
// runs.
func TestStackConformance(t *testing.T) {
	fx := loadStackFixture(t)
	spec, err := icsdetect.ParseStack("bloom,pca,lstm", "majority")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := fx.split.Test
	if len(pkgs) > 900 {
		pkgs = pkgs[:900]
	}

	forEachKernelTier(t, func(t *testing.T) {
		want := sequentialStackVerdicts(t, fx, spec, pkgs)

		// Six identical streams interleaved on three shards: shards
		// constantly hold multiple streams mid-window, so Check
		// precompute batches width > 1 and Advance passes batch the
		// LSTM steps of distinct streams.
		const streams = 6
		var mu sync.Mutex
		got := make(map[string][]icsdetect.Verdict, streams)
		eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
			Shards: 3, MaxBatch: 8, QueueDepth: 32, Stack: spec,
		}, func(r icsdetect.EngineResult) {
			mu.Lock()
			got[r.Stream] = append(got[r.Stream], r.Verdict)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for s := 0; s < streams; s++ {
				if err := eng.SubmitBatchFor(nil, fmt.Sprintf("dev-%d", s), []*icsdetect.Package{p}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Barrier(); err != nil {
			t.Fatal(err)
		}
		stats := eng.Stats()
		eng.Stop()

		for s := 0; s < streams; s++ {
			stream := fmt.Sprintf("dev-%d", s)
			gv := got[stream]
			if len(gv) != len(want) {
				t.Fatalf("%s: %d verdicts for %d packages", stream, len(gv), len(want))
			}
			for i := range want {
				if !gv[i].Equal(want[i]) {
					t.Fatalf("%s package %d: engine %+v, sequential %+v", stream, i, gv[i], want[i])
				}
			}
		}
		if stats.Batches == 0 {
			t.Error("engine never ran a batched Advance pass")
		}
		if stats.CheckBatches == 0 {
			t.Error("engine never ran a batched Check precompute pass")
		}
		if stats.ByLevel[icsdetect.LevelPCA] == 0 {
			t.Log("note: PCA level never decided a verdict on this stream")
		}
	})
}

// TestStackConformanceRecon: a stack carrying all three reconstruction
// stages (LSTM autoencoder, seq2seq predictor, 1D-CNN) under majority
// fusion must produce bitwise-identical verdicts through the sequential
// session and the batched engine on every kernel tier — interleaved
// streams force the recon stages' batched window scoring (Conv1D /
// LSTM-step GEMM kernels) to actually run at width > 1.
func TestStackConformanceRecon(t *testing.T) {
	fx := loadStackFixture(t)
	spec, err := icsdetect.ParseStack("bloom,lstm,ae,seq2seq,cnn", "majority")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := fx.split.Test
	if len(pkgs) > 600 {
		pkgs = pkgs[:600]
	}

	forEachKernelTier(t, func(t *testing.T) {
		want := sequentialStackVerdicts(t, fx, spec, pkgs)

		const streams = 6
		var mu sync.Mutex
		got := make(map[string][]icsdetect.Verdict, streams)
		eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
			Shards: 3, MaxBatch: 8, QueueDepth: 32, Stack: spec,
		}, func(r icsdetect.EngineResult) {
			mu.Lock()
			got[r.Stream] = append(got[r.Stream], r.Verdict)
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			for s := 0; s < streams; s++ {
				if err := eng.SubmitBatchFor(nil, fmt.Sprintf("dev-%d", s), []*icsdetect.Package{p}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Barrier(); err != nil {
			t.Fatal(err)
		}
		stats := eng.Stats()
		eng.Stop()

		for s := 0; s < streams; s++ {
			stream := fmt.Sprintf("dev-%d", s)
			gv := got[stream]
			if len(gv) != len(want) {
				t.Fatalf("%s: %d verdicts for %d packages", stream, len(gv), len(want))
			}
			for i := range want {
				if !gv[i].Equal(want[i]) {
					t.Fatalf("%s package %d: engine %+v, sequential %+v", stream, i, gv[i], want[i])
				}
			}
		}
		if stats.CheckBatches == 0 {
			t.Error("recon stack never ran a batched Check precompute pass")
		}
		// Every verdict under majority fusion consults all five levels:
		// the evidence must include scored entries for each recon stage on
		// window-closing packages.
		var reconScored int
		for _, v := range want {
			for _, e := range v.Evidence {
				switch e.Level {
				case icsdetect.LevelAE, icsdetect.LevelSeq2Seq, icsdetect.LevelCNN:
					if e.Scored {
						reconScored++
					}
				}
			}
		}
		if reconScored == 0 {
			t.Error("no reconstruction stage ever scored a window")
		}
	})
}

// TestStackConformanceDynamicK: the adaptive-k controller folded onto the
// stage stack (kind "lstm-dynamic") must work identically under the
// batched engine and a sequential session — per-stream k adaptation
// included.
func TestStackConformanceDynamicK(t *testing.T) {
	fx := loadStackFixture(t)
	spec, err := icsdetect.ParseStack("bloom,lstm-dynamic", "first-hit")
	if err != nil {
		t.Fatal(err)
	}
	pkgs := fx.split.Test

	want := sequentialStackVerdicts(t, fx, spec, pkgs)

	var mu sync.Mutex
	var got []icsdetect.Verdict
	eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
		Shards: 2, MaxBatch: 8, Stack: spec,
	}, func(r icsdetect.EngineResult) {
		mu.Lock()
		got = append(got, r.Verdict)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if err := eng.SubmitBatchFor(nil, "plc", []*icsdetect.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Barrier(); err != nil {
		t.Fatal(err)
	}
	stats := eng.Stats()
	eng.Stop()
	if len(got) != len(want) {
		t.Fatalf("%d verdicts for %d packages", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("package %d: engine %+v, sequential %+v", i, got[i], want[i])
		}
	}
	if stats.Batches == 0 {
		t.Error("dynamic-k stream never joined a batched LSTM pass")
	}
}

// TestStackConformanceFusionPolicies: the three fusion policies over the
// same 4-level stack must agree between sequential and engine execution,
// and first-hit must remain a superset-of-none relationship with the
// voting policies' evidence (every verdict carries one evidence entry per
// consulted level).
func TestStackConformanceFusionPolicies(t *testing.T) {
	fx := loadStackFixture(t)
	pkgs := fx.split.Test
	if len(pkgs) > 600 {
		pkgs = pkgs[:600]
	}
	for _, fusion := range []string{"first-hit", "majority", "weighted"} {
		t.Run(fusion, func(t *testing.T) {
			spec, err := icsdetect.ParseStack("bloom,pca:2,gmm,lstm:3", fusion)
			if err != nil {
				t.Fatal(err)
			}
			want := sequentialStackVerdicts(t, fx, spec, pkgs)

			var mu sync.Mutex
			var got []icsdetect.Verdict
			eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
				Shards: 2, MaxBatch: 4, Stack: spec,
			}, func(r icsdetect.EngineResult) {
				mu.Lock()
				got = append(got, r.Verdict)
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if err := eng.SubmitBatchFor(nil, "dev", []*icsdetect.Package{p}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Barrier(); err != nil {
				t.Fatal(err)
			}
			eng.Stop()

			if len(got) != len(want) {
				t.Fatalf("%d verdicts for %d packages", len(got), len(want))
			}
			anomalies := 0
			for i := range want {
				if !got[i].Equal(want[i]) {
					t.Fatalf("package %d: engine %+v, sequential %+v", i, got[i], want[i])
				}
				if want[i].Anomaly {
					anomalies++
				}
				if fusion != "first-hit" && len(want[i].Evidence) != 4 {
					t.Fatalf("package %d: %d evidence entries under %s fusion, want 4",
						i, len(want[i].Evidence), fusion)
				}
			}
			if anomalies == 0 {
				t.Errorf("%s fusion flagged nothing on attack-laden traffic", fusion)
			}
		})
	}
}

// TestStackConformanceWatertankRecon is the detection-parity check for a
// stack carrying a reconstruction stage on the second testbed: a freshly
// trained water-tank model classifies its attack-laden test stream under
// the paper stack (bloom,lstm) and under the same stack with the LSTM
// autoencoder appended. The recon stack's MPCI/MFCI detected ratios are
// reported and must not fall below the signature-only stack's — under
// first-hit fusion an extra level can only add detections — nor regress
// the corpus parity suite's floor (MPCI 0.65, MFCI 1.00).
func TestStackConformanceWatertankRecon(t *testing.T) {
	if testing.Short() {
		t.Skip("watertank recon parity trains a fixture")
	}
	ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{
		Scenario: "watertank", Packages: 6000, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := icsdetect.Split(ds)
	if err != nil {
		t.Fatal(err)
	}
	opts := icsdetect.DefaultTrainOptions()
	opts.Granularity = icsdetect.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 4,
	}
	opts.Hidden = []int{16, 16}
	opts.Fit.Epochs = 4
	opts.Fit.BatchSize = 4
	det, _, err := icsdetect.Train(split, opts)
	if err != nil {
		t.Fatal(err)
	}
	reconSpec, err := icsdetect.ParseStack("bloom,lstm,ae", "first-hit")
	if err != nil {
		t.Fatal(err)
	}
	if err := det.TrainStages(reconSpec, split, 41); err != nil {
		t.Fatal(err)
	}
	baseSpec, err := icsdetect.ParseStack("bloom,lstm", "first-hit")
	if err != nil {
		t.Fatal(err)
	}

	ratios := func(spec icsdetect.StackSpec) map[icsdetect.AttackType]float64 {
		sess, err := det.NewStackSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		detected := make(map[icsdetect.AttackType]int)
		total := make(map[icsdetect.AttackType]int)
		for _, p := range split.Test {
			v := sess.Classify(p)
			total[p.Label]++
			if v.Anomaly {
				detected[p.Label]++
			}
		}
		out := make(map[icsdetect.AttackType]float64)
		for at, n := range total {
			out[at] = float64(detected[at]) / float64(n)
		}
		return out
	}
	base, recon := ratios(baseSpec), ratios(reconSpec)

	floors := map[icsdetect.AttackType]float64{icsdetect.MPCI: 0.65, icsdetect.MFCI: 1.00}
	for _, at := range []icsdetect.AttackType{icsdetect.MPCI, icsdetect.MFCI} {
		b, ok := base[at]
		if !ok {
			t.Fatalf("test stream has no %v packages", at)
		}
		r := recon[at]
		t.Logf("%v: bloom,lstm %.2f, bloom,lstm,ae %.2f", at, b, r)
		if r < b {
			t.Errorf("%v: recon stack detected %.2f < signature-only %.2f (first-hit can only add)", at, r, b)
		}
		if r < floors[at] {
			t.Errorf("%v: recon stack detected %.2f, below the corpus parity floor %.2f", at, r, floors[at])
		}
	}
}
