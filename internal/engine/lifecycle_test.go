package engine_test

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	_ "icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/nn"
)

// cloneFramework round-trips a framework through Save/Load, producing a
// distinct *core.Framework with identical weights (and stage models).
func cloneFramework(t *testing.T, fw *core.Framework) *core.Framework {
	t.Helper()
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fw2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fw2
}

// TestEngineReleaseResetsStreamState: Release must drop a stream's session
// state and its framework/precision bindings, so resubmitting the same
// stream ID starts a brand-new recurrent session — the fix for the
// state-retained-forever footgun that connection churn in a daemon turns
// into an unbounded leak.
func TestEngineReleaseResetsStreamState(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 120 {
		pkgs = pkgs[:120]
	}

	var mu sync.Mutex
	var got []core.Verdict
	e, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 8}, func(r engine.Result) {
		mu.Lock()
		got = append(got, r.Verdict)
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// Two passes of the same packages through the same stream ID, with a
	// Release between them: the second pass must reproduce the first
	// verdict-for-verdict, which only happens if the recurrent state was
	// truly dropped (a retained session would continue where pass one
	// stopped and diverge immediately — the LSTM level abstains on a fresh
	// stream's first package).
	for pass := 0; pass < 2; pass++ {
		for _, p := range pkgs {
			if err := e.Submit("conn-1", p); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Barrier(); err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			if err := e.Release("conn-1"); err != nil {
				t.Fatal(err)
			}
		}
	}
	mu.Lock()
	if len(got) != 2*len(pkgs) {
		mu.Unlock()
		t.Fatalf("got %d verdicts, want %d", len(got), 2*len(pkgs))
	}
	for i := range pkgs {
		if !got[i].Equal(got[len(pkgs)+i]) {
			mu.Unlock()
			t.Fatalf("package %d: verdict after release %+v, fresh run %+v — released stream kept state",
				i, got[len(pkgs)+i], got[i])
		}
	}
	mu.Unlock()

	st := e.Stats()
	if st.Released != 1 {
		t.Errorf("Released = %d, want 1", st.Released)
	}
	if st.Streams != 2 {
		t.Errorf("Streams = %d, want 2 (one per pass)", st.Streams)
	}
	if st.ActiveStreams() != 1 {
		t.Errorf("ActiveStreams = %d, want 1", st.ActiveStreams())
	}

	// Release also frees the precision binding: re-tiering a released ID is
	// legal, where a live one is locked to its tier.
	if err := e.BindPrecision("conn-2", core.PrecisionF32); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("conn-2", pkgs[0]); err != nil {
		t.Fatal(err)
	}
	if err := e.BindPrecision("conn-2", core.PrecisionF64); err == nil {
		t.Error("re-tiering a live stream was accepted")
	}
	if err := e.Release("conn-2"); err != nil {
		t.Fatal(err)
	}
	if err := e.BindPrecision("conn-2", core.PrecisionF64); err != nil {
		t.Errorf("re-tiering a released stream rejected: %v", err)
	}

	// Releasing an unknown stream is a no-op, not an error.
	if err := e.Release("never-seen"); err != nil {
		t.Errorf("Release of unknown stream: %v", err)
	}
	e.Stop()
	if err := e.Release("conn-1"); err == nil {
		t.Error("Release after Stop did not error")
	}
}

// recurrentVectors returns the hidden, cell and gate vectors of the
// recurrent state (nn.State or nn.State32) behind every stage of a session.
// No API exposes them, so they are reached by reflection — read-only, to
// watch them for collection.
func recurrentVectors(sess *core.Session) []unsafe.Pointer {
	var out []unsafe.Pointer
	states := reflect.ValueOf(sess).Elem().FieldByName("states")
	for i := 0; i < states.Len(); i++ {
		st := states.Index(i).Elem()
		if st.Kind() != reflect.Pointer || st.Elem().Kind() != reflect.Struct {
			continue
		}
		for _, field := range []string{"rnn", "rnn32"} {
			rnn := st.Elem().FieldByName(field)
			if !rnn.IsValid() || rnn.IsNil() {
				continue
			}
			for _, name := range []string{"h", "c", "z"} {
				vs := rnn.Elem().FieldByName(name)
				for l := 0; l < vs.Len(); l++ {
					out = append(out, vs.Index(l).UnsafePointer())
				}
			}
		}
	}
	return out
}

// TestEngineReleaseFreesBatchedStreams: Release must make a stream's state
// garbage even when its last package advanced through a batched pass, at
// both precisions. The flush used to leave the pass's scratch (the advance
// batch's state, input and score tables, the shard's pending-stream list)
// pointing at the streams it had just stepped, so up to MaxBatch released
// sessions per shard per framework stayed reachable until a later wave
// happened to overwrite their slots; the f32 batch buffer kept the last
// wave's hidden vectors the same way. The model is the paper's 2x256 shape
// — 24 KB of f64 recurrent state per stream — so 64 pinned sessions stand
// well clear of the heap slack, and a finalizer on every recurrent vector
// of every released stream catches a pin of even one of them.
func TestEngineReleaseFreesBatchedStreams(t *testing.T) {
	trained, split := testFramework(t)
	fw := cloneFramework(t, trained)
	wide, err := nn.NewClassifier(fw.Series.Model.InputSize(), []int{256, 256}, fw.Series.Model.Classes(), 5)
	if err != nil {
		t.Fatal(err)
	}
	fw.Series.Model = wide
	for _, prec := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		t.Run(prec.String(), func(t *testing.T) {
			releaseFreesBatchedStreams(t, fw, split.Test, prec)
		})
	}
}

func releaseFreesBatchedStreams(t *testing.T, fw *core.Framework, pkgs []*dataset.Package, prec core.Precision) {
	const (
		streams = 64
		slackKB = 256
	)
	// The handler passes only while the test does not hold the gate.
	var gate sync.RWMutex
	e, err := engine.New(fw, engine.Config{Shards: 1, MaxBatch: streams, QueueDepth: streams + 2}, func(engine.Result) {
		gate.RLock()
		gate.RUnlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	var finalized atomic.Int64
	// wave submits one package to each of n fresh streams behind a gated
	// handler, so they drain as one tick and advance in one batched pass,
	// watches their recurrent vectors when watch is set, then releases
	// them all; it returns how many vectors it watches.
	wave := func(round string, n int, watch bool) int {
		gate.Lock()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s-%03d", round, i)
			if err := e.BindPrecision(id, prec); err != nil {
				t.Fatal(err)
			}
			if err := e.Submit(id, pkgs[i]); err != nil {
				t.Fatal(err)
			}
		}
		gate.Unlock()
		if err := e.Barrier(); err != nil {
			t.Fatal(err)
		}
		watched := 0
		for i := 0; watch && i < n; i++ {
			for _, v := range recurrentVectors(e.StreamSession(fmt.Sprintf("%s-%03d", round, i))) {
				runtime.SetFinalizer((*byte)(v), func(*byte) { finalized.Add(1) })
				watched++
			}
		}
		for i := 0; i < n; i++ {
			if err := e.Release(fmt.Sprintf("%s-%03d", round, i)); err != nil {
				t.Fatal(err)
			}
		}
		return watched
	}
	// Warm-up with a single stream: the packed weights and the shard's
	// scratch exist, at most one stream can be pinned.
	wave("warm", 1, false)
	before := settledHeap()
	watched := wave("churn", streams, true)
	if n := e.Stats().ActiveStreams(); n != 0 {
		t.Fatalf("%d streams still open after releasing all", n)
	}
	if watched != streams*3*len(fw.Series.Model.Layers) {
		t.Fatalf("watching %d recurrent vectors of %d streams", watched, streams)
	}
	// An object with a finalizer outlives the collection that finds it
	// unreachable until its finalizer has run, so wait for them before
	// weighing the heap.
	for deadline := time.Now().Add(5 * time.Second); finalized.Load() < int64(watched) && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := finalized.Load(); got != int64(watched) {
		t.Errorf("%d of %d recurrent vectors of released streams are still reachable", int64(watched)-got, watched)
	}
	if after := settledHeap(); after > before+slackKB<<10 {
		t.Errorf("engine holds %d KB more after %d streams came and went than before them",
			(after-before)>>10, streams)
	}
}

// TestEngineReleaseRebindsFramework: a released stream ID must be
// re-bindable to a different framework — the daemon reuses connection-scoped
// IDs across tenants.
func TestEngineReleaseRebindsFramework(t *testing.T) {
	fw, split := testFramework(t)
	fw2 := cloneFramework(t, fw)

	e, err := engine.New(fw, engine.Config{Shards: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	pkg := split.Test[0]

	if err := e.SubmitFor(fw2, "conn", pkg); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("conn", pkg); err == nil {
		t.Fatal("default-framework submit on a bound stream was accepted")
	}
	if err := e.Release("conn"); err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("conn", pkg); err != nil {
		t.Errorf("released stream could not rebind to the default framework: %v", err)
	}
}

// TestEngineHandlerPanicRecovery: a panicking Handler must not kill its
// shard goroutine — pre-fix it did, wedging every stream pinned to the
// shard while Submit kept blocking on the full queue. The worker recovers,
// counts the panic, keeps serving the other streams exactly, and Stop
// surfaces the first panic value.
func TestEngineHandlerPanicRecovery(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 60 {
		pkgs = pkgs[:60]
	}

	var boomOnce atomic.Bool
	var mu sync.Mutex
	perStream := make(map[string]int)
	e, err := engine.New(fw, engine.Config{Shards: 1, MaxBatch: 4}, func(r engine.Result) {
		if r.Stream == "dev-a" && r.Seq == 1 && boomOnce.CompareAndSwap(false, true) {
			panic("boom")
		}
		mu.Lock()
		perStream[r.Stream]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both streams share the single shard; the panic on dev-a's second
	// package must leave dev-b's sequence untouched.
	streams := []string{"dev-a", "dev-b"}
	for i, p := range pkgs {
		if err := e.Submit(streams[i%2], p); err != nil {
			t.Fatal(err)
		}
	}
	// Barrier through the panicked shard proves the worker survived.
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	gotA, gotB := perStream["dev-a"], perStream["dev-b"]
	mu.Unlock()
	if want := len(pkgs) / 2; gotB != want {
		t.Errorf("dev-b delivered %d verdicts, want %d", gotB, want)
	}
	// dev-a lost exactly the one delivery that panicked mid-handler.
	if want := len(pkgs)/2 - 1; gotA != want {
		t.Errorf("dev-a delivered %d verdicts, want %d", gotA, want)
	}
	if st := e.Stats(); st.HandlerPanics != 1 {
		t.Errorf("HandlerPanics = %d, want 1", st.HandlerPanics)
	}

	err = e.Stop()
	if err == nil {
		t.Fatal("Stop returned nil after a handler panic")
	}
	var pe *engine.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Stop returned %T (%v), want *engine.PanicError", err, err)
	}
	if pe.Value != "boom" {
		t.Errorf("recovered panic value = %v, want boom", pe.Value)
	}
	if pe.Stack == "" {
		t.Error("recovered panic has no stack")
	}
	// Idempotent Stop keeps reporting it.
	if err := e.Stop(); !errors.As(err, &pe) {
		t.Errorf("second Stop returned %v, want the recorded panic", err)
	}
}

// TestEngineReleaseSurvivesPanic: Release must not deadlock when the
// handler panics on the packages queued ahead of the release marker — the
// recovery path still acknowledges the marker.
func TestEngineReleaseSurvivesPanic(t *testing.T) {
	fw, split := testFramework(t)

	e, err := engine.New(fw, engine.Config{Shards: 1}, func(r engine.Result) {
		panic("always")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Submit("dev", split.Test[0]); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- e.Release("dev") }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Release: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Release deadlocked behind a panicking handler")
	}
	if err := e.Stop(); err == nil {
		t.Error("Stop returned nil after handler panics")
	}
}

// TestEngineTrySubmitForValidation: TrySubmit used to skip the
// (framework, precision) stack validation SubmitFor performs, so a
// framework missing a level's stage model was quietly accepted and later
// panicked the shard when the stack resolved. TrySubmitFor must run the
// same validated-cache check and binding semantics.
func TestEngineTrySubmitForValidation(t *testing.T) {
	fw, split := testFramework(t)
	pkg := split.Test[0]

	// A three-level stack whose pca stage needs a trained model; the engine
	// default has it, the pristine fixture clone does not.
	spec, err := core.ParseStackSpec("bloom,pca,lstm", "")
	if err != nil {
		t.Fatal(err)
	}
	fwPCA := cloneFramework(t, fw)
	if err := fwPCA.TrainStages(spec, split, 7); err != nil {
		t.Fatal(err)
	}

	e, err := engine.New(fwPCA, engine.Config{Shards: 2, Stack: spec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	// The fixture lacks Extra["pca"]: TrySubmitFor must reject it the way
	// SubmitFor does, instead of enqueueing a package whose stack cannot
	// resolve.
	if ok, err := e.TrySubmitFor(fw, "bad", pkg); ok || err == nil {
		t.Fatalf("TrySubmitFor accepted a framework without the pca stage model (ok=%v err=%v)", ok, err)
	}
	// A rejected probe must not have bound the stream: the ID is still free
	// for the default framework.
	if ok, err := e.TrySubmit("bad", pkg); !ok || err != nil {
		t.Fatalf("rejected probe bound the stream (ok=%v err=%v)", ok, err)
	}

	// Positive path plus binding semantics, with a second valid framework.
	fwPCA2 := cloneFramework(t, fwPCA)
	if ok, err := e.TrySubmitFor(fwPCA2, "tenant", pkg); !ok || err != nil {
		t.Fatalf("TrySubmitFor with a valid framework: ok=%v err=%v", ok, err)
	}
	if ok, err := e.TrySubmitFor(fwPCA2, "tenant", pkg); !ok || err != nil {
		t.Fatalf("resubmission under the bound framework: ok=%v err=%v", ok, err)
	}
	if ok, err := e.TrySubmit("tenant", pkg); ok || err == nil {
		t.Error("TrySubmit on a stream bound elsewhere was accepted")
	}
	if err := e.Submit("tenant", pkg); err == nil {
		t.Error("Submit on a stream bound elsewhere was accepted")
	}
}

// TestEngineStatsSince: Stats.PerSecond divides by time-since-start, so an
// idle daemon's lifetime rate decays toward zero forever; Since(prev) must
// yield interval deltas whose PerSecond reflects only the window between
// two snapshots.
func TestEngineStatsSince(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 100 {
		pkgs = pkgs[:100]
	}

	e, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	prev := e.Stats()
	for _, p := range pkgs {
		if err := e.Submit("dev", p); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	busy := e.Stats()

	d := busy.Since(prev)
	if d.Packages != uint64(len(pkgs)) {
		t.Errorf("interval Packages = %d, want %d", d.Packages, len(pkgs))
	}
	if d.Streams != 1 {
		t.Errorf("interval Streams = %d, want 1", d.Streams)
	}
	if d.Elapsed <= 0 || d.Elapsed > busy.Elapsed {
		t.Errorf("interval Elapsed = %v (lifetime %v)", d.Elapsed, busy.Elapsed)
	}
	if d.PerSecond() <= 0 {
		t.Errorf("interval PerSecond = %v over a busy window, want > 0", d.PerSecond())
	}
	if d.Clean+d.PackageLevel+d.SeriesLevel != d.Packages {
		t.Errorf("interval levels %d+%d+%d do not sum to %d",
			d.Clean, d.PackageLevel, d.SeriesLevel, d.Packages)
	}

	// An idle interval must rate at zero even though the lifetime counters
	// do not — this is the regression PerSecond-on-lifetime cannot express.
	time.Sleep(20 * time.Millisecond)
	idle := e.Stats().Since(busy)
	if idle.Packages != 0 {
		t.Errorf("idle interval Packages = %d, want 0", idle.Packages)
	}
	if idle.Elapsed <= 0 {
		t.Errorf("idle interval Elapsed = %v, want > 0", idle.Elapsed)
	}
	if got := idle.PerSecond(); got != 0 {
		t.Errorf("idle interval PerSecond = %v, want 0", got)
	}
	if e.Stats().PerSecond() <= 0 {
		t.Error("lifetime PerSecond lost the processed packages")
	}
}

// TestEngineSubmitStopRace hammers Submit/TrySubmit from several goroutines
// while Stop races them: every submission must either land before the
// shutdown or return the stopped error — never panic on a closed shard
// channel.
func TestEngineSubmitStopRace(t *testing.T) {
	fw, split := testFramework(t)
	pkg := split.Test[0]

	for iter := 0; iter < 25; iter++ {
		e, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 4, QueueDepth: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 64; i++ {
					stream := fmt.Sprintf("g%d-s%d", g, i%3)
					var err error
					if i%2 == 0 {
						err = e.Submit(stream, pkg)
					} else {
						_, err = e.TrySubmit(stream, pkg)
					}
					if err != nil {
						return // stopped: the only legal failure
					}
				}
			}(g)
		}
		if err := e.Stop(); err != nil {
			t.Fatalf("Stop: %v", err)
		}
		wg.Wait()
	}
}
