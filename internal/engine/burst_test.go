package engine_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
)

// reloadFramework round-trips a framework through Save/Load: identical
// weights and fingerprint, distinct pointer — a second framework value for
// multi-model burst submissions.
func reloadFramework(t *testing.T, fw *core.Framework) *core.Framework {
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

// TestEngineBatchMatchesSequentialSessions is the burst path's core
// guarantee: wide bursts and one-element bursts, interleaved with
// Barriers, produce for every stream exactly the verdicts a sequential
// core.Session would — same values, same per-stream FIFO order — across
// shard counts and burst widths (including bursts wider than MaxBatch).
func TestEngineBatchMatchesSequentialSessions(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 600 {
		pkgs = pkgs[:600]
	}

	for _, tc := range []struct {
		shards, streams, burst int
	}{
		{1, 1, 7},
		{2, 5, 3},
		{4, 16, 7},
		{3, 8, 64}, // bursts wider than MaxBatch span micro-batches
	} {
		name := fmt.Sprintf("shards=%d/streams=%d/burst=%d", tc.shards, tc.streams, tc.burst)
		t.Run(name, func(t *testing.T) {
			// Expected verdicts: one sequential session per stream.
			want := make(map[string][]core.Verdict)
			sessions := make(map[string]*core.Session)
			for i, p := range pkgs {
				key := streamKey(i, tc.streams)
				sess := sessions[key]
				if sess == nil {
					sess = fw.NewSession()
					sessions[key] = sess
				}
				want[key] = append(want[key], sess.Classify(p))
			}

			var mu sync.Mutex
			got := make(map[string][]core.Verdict)
			total := 0
			e, err := engine.New(fw, engine.Config{
				Shards: tc.shards, MaxBatch: 16, QueueDepth: 32,
			}, func(r engine.Result) {
				mu.Lock()
				defer mu.Unlock()
				if r.Seq != uint64(len(got[r.Stream])) {
					t.Errorf("stream %s: result seq %d out of order", r.Stream, r.Seq)
				}
				got[r.Stream] = append(got[r.Stream], r.Verdict)
				total++
			})
			if err != nil {
				t.Fatal(err)
			}

			// Submit in arrival order, accumulating per-stream bursts. Every
			// third flush goes out as one-element bursts instead, so wide
			// and one-element bursts interleave on the same streams; a Barrier
			// lands after each third of the load with all pending bursts
			// flushed first, checking mid-run completeness.
			pending := make(map[string][]*dataset.Package)
			flushes := 0
			flush := func(key string) {
				batch := pending[key]
				if len(batch) == 0 {
					return
				}
				delete(pending, key)
				flushes++
				if flushes%3 == 0 {
					for _, p := range batch {
						if err := e.SubmitBatchFor(nil, key, []*dataset.Package{p}); err != nil {
							t.Fatal(err)
						}
					}
					return
				}
				if err := e.SubmitBatchFor(nil, key, batch); err != nil {
					t.Fatal(err)
				}
			}
			for i, p := range pkgs {
				key := streamKey(i, tc.streams)
				pending[key] = append(pending[key], p)
				if len(pending[key]) >= tc.burst {
					flush(key)
				}
				if (i+1)%(len(pkgs)/3) == 0 {
					for k := range pending {
						flush(k)
					}
					if err := e.Barrier(); err != nil {
						t.Fatal(err)
					}
					mu.Lock()
					n := total
					mu.Unlock()
					if n != i+1 {
						t.Fatalf("after barrier at package %d: %d verdicts delivered", i+1, n)
					}
				}
			}
			for k := range pending {
				flush(k)
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

// TestEngineBatchBindingAndRelease: SubmitBatchFor binds the stream on its
// first burst; a burst under a different framework is
// rejected whole (nothing partially classified); Release frees the binding
// so the stream can rebind; the empty burst is a no-op that neither binds
// nor errors.
func TestEngineBatchBindingAndRelease(t *testing.T) {
	fw, split := testFramework(t)
	fw2 := reloadFramework(t, fw)
	pkgs := split.Test[:8]

	var mu sync.Mutex
	count := make(map[string]int)
	e, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 4}, func(r engine.Result) {
		mu.Lock()
		count[r.Stream]++
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}

	// Empty burst: no-op, no binding — the stream is still free to bind
	// elsewhere.
	if err := e.SubmitBatchFor(fw2, "tank-1", nil); err != nil {
		t.Fatalf("empty burst errored: %v", err)
	}
	if err := e.SubmitBatchFor(nil, "tank-1", pkgs[:2]); err != nil {
		t.Fatalf("default bind after empty fw2 burst: %v", err)
	}
	// Bound to the default now: a burst under fw2 must be rejected whole.
	if err := e.SubmitBatchFor(fw2, "tank-1", pkgs[2:5]); err == nil {
		t.Error("burst under a different framework accepted on a bound stream")
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	n := count["tank-1"]
	mu.Unlock()
	if n != 2 {
		t.Fatalf("tank-1 classified %d packages, want 2 (rejected burst must not run)", n)
	}

	// Release frees the binding: the same stream rebinds under fw2.
	if err := e.Release("tank-1"); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatchFor(fw2, "tank-1", pkgs[2:5]); err != nil {
		t.Fatalf("rebind after release: %v", err)
	}
	e.Stop()
	mu.Lock()
	defer mu.Unlock()
	if count["tank-1"] != 5 {
		t.Errorf("tank-1 classified %d packages total, want 5", count["tank-1"])
	}

	// Lifecycle guard: batch submits after Stop error; the try variant
	// reports neither queued nor shed.
	if err := e.SubmitBatchFor(nil, "tank-1", pkgs[:1]); err == nil {
		t.Error("SubmitBatchFor after Stop did not error")
	}
	if ok, err := e.TrySubmitBatchFor(nil, "tank-1", pkgs[:1]); ok || err == nil {
		t.Error("TrySubmitBatchFor after Stop did not error")
	}
}

// TestEngineTryBatchAllOrNothing: a burst occupies one queue slot and is
// admitted or shed whole — and a shed burst on a fresh stream must not
// bind it (the binding happens only when the burst is actually queued).
func TestEngineTryBatchAllOrNothing(t *testing.T) {
	fw, split := testFramework(t)
	fw2 := reloadFramework(t, fw)
	pkgs := split.Test

	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	var classified sync.Map
	e, err := engine.New(fw, engine.Config{Shards: 1, MaxBatch: 4, QueueDepth: 4},
		func(r engine.Result) {
			n, _ := classified.LoadOrStore(r.Stream, 0)
			classified.Store(r.Stream, n.(int)+1)
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
	// ...then four bursts of three fill the queue: one slot per burst, not
	// one per package.
	for i := 0; i < 4; i++ {
		batch := pkgs[1+3*i : 4+3*i]
		ok, err := e.TrySubmitBatchFor(nil, "dev", batch)
		if err != nil || !ok {
			t.Fatalf("TrySubmitBatchFor %d: ok=%v err=%v, want queued", i, ok, err)
		}
	}
	if st := e.Stats(); st.QueueDepth != 4 {
		t.Errorf("QueueDepth = %d with four queued bursts, want 4", st.QueueDepth)
	}
	// The queue is full: the next burst sheds whole, and shedding on a
	// stream not yet bound must not bind it.
	if ok, err := e.TrySubmitBatchFor(nil, "dev", pkgs[13:15]); ok || err != nil {
		t.Errorf("TrySubmitBatchFor on a full queue: ok=%v err=%v, want shed", ok, err)
	}
	if ok, err := e.TrySubmitBatchFor(fw2, "fresh", pkgs[13:15]); ok || err != nil {
		t.Errorf("TrySubmitBatchFor on a full queue: ok=%v err=%v, want shed", ok, err)
	}
	// The empty burst reports admitted without occupying a slot.
	if ok, err := e.TrySubmitBatchFor(nil, "dev", nil); !ok || err != nil {
		t.Errorf("empty TrySubmitBatchFor: ok=%v err=%v, want trivial success", ok, err)
	}

	close(release)
	e.Stop()
	if st := e.Stats(); st.Packages != 13 {
		t.Errorf("Packages = %d after drain, want 13 (1 single + 4 bursts of 3)", st.Packages)
	}
	// "fresh" shed before ever binding: it must still be bindable under the
	// default framework — which the shed fw2 burst would have blocked had
	// it bound. The engine is stopped, so probe the binding table through a
	// fresh engine instead: simply assert the stream never classified.
	if _, saw := classified.Load("fresh"); saw {
		t.Error("shed burst on stream \"fresh\" was classified")
	}
}

// TestEngineTryBatchShedDoesNotBind: the all-or-nothing shed must leave a
// fresh stream unbound, so a later submit under a different framework
// succeeds.
func TestEngineTryBatchShedDoesNotBind(t *testing.T) {
	fw, split := testFramework(t)
	fw2 := reloadFramework(t, fw)
	pkgs := split.Test

	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	e, err := engine.New(fw, engine.Config{Shards: 1, MaxBatch: 4, QueueDepth: 1},
		func(r engine.Result) {
			once.Do(func() { close(first) })
			<-release
		})
	if err != nil {
		t.Fatal(err)
	}

	if err := e.SubmitBatchFor(nil, "dev", []*dataset.Package{pkgs[0]}); err != nil {
		t.Fatal(err)
	}
	<-first
	if ok, err := e.TrySubmitBatchFor(nil, "dev", []*dataset.Package{pkgs[1]}); err != nil || !ok {
		t.Fatalf("fill queue: ok=%v err=%v", ok, err)
	}
	// Shed a fw2 burst on the fresh stream, then release the worker and
	// bind the same stream to the default framework: only possible if the
	// shed left it unbound.
	if ok, err := e.TrySubmitBatchFor(fw2, "fresh", pkgs[2:5]); ok || err != nil {
		t.Fatalf("TrySubmitBatchFor on a full queue: ok=%v err=%v, want shed", ok, err)
	}
	close(release)
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	if err := e.SubmitBatchFor(nil, "fresh", pkgs[2:5]); err != nil {
		t.Errorf("default bind after a shed fw2 burst: %v (shed must not bind)", err)
	}
	e.Stop()
}
