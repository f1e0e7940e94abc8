package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

var (
	fwOnce  sync.Once
	fwValue *core.Framework
	fwSplit *dataset.Split
	fwErr   error
)

// testFramework trains one small framework shared by every engine test.
func testFramework(t *testing.T) (*core.Framework, *dataset.Split) {
	t.Helper()
	if testing.Short() {
		t.Skip("engine tests use a trained fixture")
	}
	fwOnce.Do(func() {
		ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(4000, 7))
		if err != nil {
			fwErr = err
			return
		}
		split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
		if err != nil {
			fwErr = err
			return
		}
		cfg := core.DefaultConfig()
		cfg.Granularity = signature.Granularity{
			IntervalClusters: 2, CRCClusters: 2,
			PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
		}
		cfg.Hidden = []int{16, 16}
		cfg.Fit.Epochs = 2
		cfg.Fit.BatchSize = 8
		fwValue, _, fwErr = core.Train(split, cfg)
		fwSplit = split
	})
	if fwErr != nil {
		t.Fatalf("train test framework: %v", fwErr)
	}
	return fwValue, fwSplit
}

// streamKey spreads test traffic over n synthetic device streams.
func streamKey(i, n int) string { return fmt.Sprintf("plc-%03d", i%n) }

// TestEngineMatchesSequentialSessions is the engine's core guarantee: for
// every stream, the concurrent sharded engine produces exactly the verdicts
// a sequential core.Session would, package for package.
func TestEngineMatchesSequentialSessions(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 600 {
		pkgs = pkgs[:600]
	}

	for _, tc := range []struct {
		shards, streams int
		mode            core.Mode
	}{
		{1, 1, core.ModeCombined},
		{2, 1, core.ModeCombined},
		{3, 13, core.ModeCombined},
		{8, 64, core.ModeCombined},
		{2, 5, core.ModeSeriesOnly},
		{2, 5, core.ModePackageOnly},
	} {
		name := fmt.Sprintf("shards=%d/streams=%d/mode=%d", tc.shards, tc.streams, tc.mode)
		t.Run(name, func(t *testing.T) {
			// Expected verdicts: one sequential session per stream.
			want := make(map[string][]core.Verdict)
			sessions := make(map[string]*core.Session)
			for i, p := range pkgs {
				key := streamKey(i, tc.streams)
				sess := sessions[key]
				if sess == nil {
					sess = fw.NewSessionMode(tc.mode)
					sessions[key] = sess
				}
				want[key] = append(want[key], sess.Classify(p))
			}

			// Engine verdicts, collected per stream.
			spec, err := core.SpecForMode(tc.mode)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			got := make(map[string][]core.Verdict)
			e, err := engine.New(fw, engine.Config{
				Shards: tc.shards, MaxBatch: 16, QueueDepth: 32, Stack: spec,
			}, func(r engine.Result) {
				mu.Lock()
				defer mu.Unlock()
				if r.Seq != uint64(len(got[r.Stream])) {
					t.Errorf("stream %s: result seq %d out of order", r.Stream, r.Seq)
				}
				got[r.Stream] = append(got[r.Stream], r.Verdict)
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, p := range pkgs {
				if err := e.SubmitBatchFor(nil, streamKey(i, tc.streams), []*dataset.Package{p}); err != nil {
					t.Fatal(err)
				}
			}
			e.Stop()

			if len(got) != len(want) {
				t.Fatalf("engine saw %d streams, want %d", len(got), len(want))
			}
			for key, wv := range want {
				gv := got[key]
				if len(gv) != len(wv) {
					t.Fatalf("stream %s: %d verdicts, want %d", key, len(gv), len(wv))
				}
				for i := range wv {
					if !gv[i].Equal(wv[i]) {
						t.Fatalf("stream %s package %d: engine verdict %+v, sequential %+v",
							key, i, gv[i], wv[i])
					}
				}
			}
		})
	}
}

// TestEngineStats checks the per-shard counters and their aggregation.
func TestEngineStats(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 400 {
		pkgs = pkgs[:400]
	}
	const streams = 10

	e, err := engine.New(fw, engine.Config{Shards: 4, MaxBatch: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pkgs {
		if err := e.SubmitBatchFor(nil, streamKey(i, streams), []*dataset.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	e.Stop()

	st := e.Stats()
	if st.Packages != uint64(len(pkgs)) {
		t.Errorf("Packages = %d, want %d", st.Packages, len(pkgs))
	}
	if st.Clean+st.PackageLevel+st.SeriesLevel != st.Packages {
		t.Errorf("levels %d+%d+%d do not sum to %d packages",
			st.Clean, st.PackageLevel, st.SeriesLevel, st.Packages)
	}
	if st.Streams != streams {
		t.Errorf("Streams = %d, want %d", st.Streams, streams)
	}
	if st.QueueDepth != 0 {
		t.Errorf("QueueDepth = %d after Stop, want 0", st.QueueDepth)
	}
	if st.Batches == 0 || st.Batched != st.Packages {
		t.Errorf("Batches=%d Batched=%d, want every package batched once", st.Batches, st.Batched)
	}
	if mb := st.MeanBatch(); mb < 1 {
		t.Errorf("MeanBatch = %v, want >= 1", mb)
	}
	if st.PerSecond() <= 0 {
		t.Errorf("PerSecond = %v, want > 0", st.PerSecond())
	}

	var sum uint64
	for _, ss := range e.ShardStats() {
		sum += ss.Packages
		if ss.Clean+ss.PackageLevel+ss.SeriesLevel != ss.Packages {
			t.Errorf("shard %d: levels do not sum to packages", ss.Shard)
		}
		if ss.QueueCap == 0 {
			t.Errorf("shard %d: zero queue capacity", ss.Shard)
		}
	}
	if sum != st.Packages {
		t.Errorf("shard packages sum %d != aggregate %d", sum, st.Packages)
	}
}

// TestEngineBackpressure fills a shard whose worker is blocked in the
// handler and checks that TrySubmitBatchFor sheds load instead of queueing
// unboundedly.
func TestEngineBackpressure(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test

	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	e, err := engine.New(fw, engine.Config{Shards: 1, MaxBatch: 4, QueueDepth: 4},
		func(engine.Result) {
			once.Do(func() { close(first) })
			<-release
		})
	if err != nil {
		t.Fatal(err)
	}

	// First package occupies the worker inside the handler...
	if err := e.SubmitBatchFor(nil, "dev", []*dataset.Package{pkgs[0]}); err != nil {
		t.Fatal(err)
	}
	<-first
	// ...so the queue can be filled to capacity behind it.
	for i := 1; i <= 4; i++ {
		ok, err := e.TrySubmitBatchFor(nil, "dev", []*dataset.Package{pkgs[i]})
		if err != nil || !ok {
			t.Fatalf("TrySubmitBatchFor %d: ok=%v err=%v, want queued", i, ok, err)
		}
	}
	if ok, _ := e.TrySubmitBatchFor(nil, "dev", []*dataset.Package{pkgs[5]}); ok {
		t.Error("TrySubmitBatchFor succeeded on a full shard queue")
	}
	if st := e.Stats(); st.QueueDepth != 4 {
		t.Errorf("QueueDepth = %d with a full queue, want 4", st.QueueDepth)
	}

	close(release)
	e.Stop()
	if st := e.Stats(); st.Packages != 5 {
		t.Errorf("Packages = %d after drain, want 5", st.Packages)
	}
}

// TestEngineConcurrentSubmitters drives the engine from many goroutines
// with concurrent snapshots; primarily a data-race canary for `go test
// -race`.
func TestEngineConcurrentSubmitters(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 800 {
		pkgs = pkgs[:800]
	}
	const producers = 8

	var alerts sync.Map
	e, err := engine.New(fw, engine.Config{Shards: 4, MaxBatch: 16}, func(r engine.Result) {
		if r.Verdict.Anomaly {
			alerts.Store(r.Stream, true)
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var snapWG sync.WaitGroup
	snapWG.Add(1)
	go func() {
		defer snapWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
				_ = e.ShardStats()
			}
		}
	}()

	var wg sync.WaitGroup
	chunk := len(pkgs) / producers
	for pr := 0; pr < producers; pr++ {
		wg.Add(1)
		go func(pr int) {
			defer wg.Done()
			// Each producer owns its own streams: per-stream order only
			// needs to hold within one submitter.
			for i, p := range pkgs[pr*chunk : (pr+1)*chunk] {
				key := fmt.Sprintf("prod%d-dev%d", pr, i%3)
				if err := e.SubmitBatchFor(nil, key, []*dataset.Package{p}); err != nil {
					t.Error(err)
					return
				}
			}
		}(pr)
	}
	wg.Wait()
	e.Stop()
	close(stop)
	snapWG.Wait()

	if st := e.Stats(); st.Packages != uint64(chunk*producers) {
		t.Errorf("Packages = %d, want %d", st.Packages, chunk*producers)
	}
}

// TestEngineBarrier: Barrier must complete all prior submissions (verdicts
// delivered, in order) without stopping the engine, and be repeatable —
// the replay entry point for phase-bounded workloads.
func TestEngineBarrier(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 300 {
		pkgs = pkgs[:300]
	}

	var mu sync.Mutex
	var got []core.Verdict
	e, err := engine.New(fw, engine.Config{Shards: 3, MaxBatch: 8}, func(r engine.Result) {
		mu.Lock()
		got = append(got, r.Verdict)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	want := make([]core.Verdict, 0, len(pkgs))
	sess := fw.NewSession()
	for _, p := range pkgs {
		want = append(want, sess.Classify(p))
	}

	// Three phases through one warm engine, a barrier after each.
	third := len(pkgs) / 3
	for phase := 0; phase < 3; phase++ {
		lo, hi := phase*third, (phase+1)*third
		if phase == 2 {
			hi = len(pkgs)
		}
		for _, p := range pkgs[lo:hi] {
			if err := e.SubmitBatchFor(nil, "dev", []*dataset.Package{p}); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Barrier(); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n != hi {
			t.Fatalf("phase %d: %d verdicts after barrier, want %d", phase, n, hi)
		}
		if st := e.Stats(); st.QueueDepth != 0 {
			t.Fatalf("phase %d: queue depth %d after barrier", phase, st.QueueDepth)
		}
	}
	e.Stop()

	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("package %d: verdict %+v across barriers, sequential %+v", i, got[i], want[i])
		}
	}
	if err := e.Barrier(); err == nil {
		t.Error("Barrier after Stop did not error")
	}
}

// TestEngineSubmitAfterStop verifies the lifecycle guard.
func TestEngineSubmitAfterStop(t *testing.T) {
	fw, split := testFramework(t)
	e, err := engine.New(fw, engine.Config{Shards: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Stop()
	e.Stop() // idempotent
	if err := e.SubmitBatchFor(nil, "dev", []*dataset.Package{split.Test[0]}); err == nil {
		t.Error("SubmitBatchFor after Stop did not error")
	}
	if ok, err := e.TrySubmitBatchFor(nil, "dev", []*dataset.Package{split.Test[0]}); ok || err == nil {
		t.Error("TrySubmitBatchFor after Stop did not error")
	}
}

// TestEngineRejectsBadMode verifies config validation: a stack with an
// unknown level fails at New.
func TestEngineRejectsBadMode(t *testing.T) {
	fw, _ := testFramework(t)
	bad := core.StackSpec{Stages: []core.StageSpec{{Kind: "no-such-level"}}}
	if _, err := engine.New(fw, engine.Config{Stack: bad}, nil); err == nil {
		t.Error("engine accepted an unknown level")
	}
}

// TestEngineStreamBinding: a stream is bound to its framework by its first
// submission; submitting it later under a different framework (or the
// default) must error instead of silently scoring it with the wrong model.
func TestEngineStreamBinding(t *testing.T) {
	fw, split := testFramework(t)
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fw2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}

	e, err := engine.New(fw, engine.Config{Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	pkg := split.Test[0]

	if err := e.SubmitBatchFor(fw2, "tank-1", []*dataset.Package{pkg}); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatchFor(fw2, "tank-1", []*dataset.Package{pkg}); err != nil {
		t.Errorf("resubmission under the bound framework errored: %v", err)
	}
	if err := e.SubmitBatchFor(nil, "tank-1", []*dataset.Package{pkg}); err == nil {
		t.Error("default-framework submit on a stream bound elsewhere was accepted")
	}
	if ok, err := e.TrySubmitBatchFor(nil, "tank-1", []*dataset.Package{pkg}); ok || err == nil {
		t.Error("TrySubmitBatchFor on a stream bound elsewhere was accepted")
	}

	if err := e.SubmitBatchFor(nil, "plc-1", []*dataset.Package{pkg}); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatchFor(fw, "plc-1", []*dataset.Package{pkg}); err != nil {
		t.Errorf("explicit default framework rejected on a default-bound stream: %v", err)
	}
	if err := e.SubmitBatchFor(fw2, "plc-1", []*dataset.Package{pkg}); err == nil {
		t.Error("rebinding a default-bound stream to another framework was accepted")
	}
}
