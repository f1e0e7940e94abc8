package engine_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/mathx"
)

// TestEngineRandomSchedules is the wave scheduler's executable spec: seeded
// random schedules — single packages, bursts of 1–300, empty bursts,
// Barrier and Release markers landing mid-queue from side goroutines, and a
// handler that panics on one chosen package — run against one sequential
// core.Session per stream (a fresh one after every Release). Whatever the
// shard ticks look like, every stream must see exactly its packages, in
// submission order, with the sequential verdicts; the panicking package is
// handed to the handler once and skipped; admitted = classified; and no
// marker returns before everything submitted ahead of it was classified.
func TestEngineRandomSchedules(t *testing.T) {
	fw, split := testFramework(t)
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := mathx.NewRNG(seed)
			cfg := engine.Config{
				Shards:     1 + rng.Intn(3),
				MaxBatch:   []int{4, 16, 64}[rng.Intn(3)],
				QueueDepth: []int{8, 64}[rng.Intn(2)],
			}
			if seed%2 == 0 {
				cfg.Stack = core.DefaultStackSpec()
				cfg.Stack.Precision = core.PrecisionF32
			}
			streams := 1 + rng.Intn(40)
			ops := 60 + rng.Intn(120)

			// delivered is what each stream's handler calls saw, in order.
			type delivery struct {
				pkg *dataset.Package
				v   core.Verdict
			}
			var (
				mu        sync.Mutex
				delivered = make(map[string][]delivery)
				handled   atomic.Uint64 // handler calls, the panicking one included
				boom      atomic.Pointer[dataset.Package]
				boomCalls atomic.Uint64
			)
			e, err := engine.New(fw, cfg, func(r engine.Result) {
				handled.Add(1)
				if r.Package == boom.Load() {
					boomCalls.Add(1)
					panic("boom")
				}
				mu.Lock()
				delivered[r.Stream] = append(delivered[r.Stream], delivery{r.Package, r.Verdict})
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			deliveredTo := func(id string) int {
				mu.Lock()
				defer mu.Unlock()
				return len(delivered[id])
			}

			// The reference: per stream, a sequential session over the same
			// stack, replaced by a fresh one at every Release.
			sessions := make(map[string]*core.Session)
			want := make(map[string][]delivery)
			next := 0
			draw := func(id string) *dataset.Package {
				// A private copy per submission, so deliveries are
				// identifiable by pointer.
				cp := *split.Test[next%len(split.Test)]
				next++
				sess := sessions[id]
				if sess == nil {
					if sess, err = fw.NewStackSession(e.StackSpec()); err != nil {
						t.Fatal(err)
					}
					sessions[id] = sess
				}
				want[id] = append(want[id], delivery{&cp, sess.Classify(&cp)})
				return &cp
			}

			// releasing[id] is closed once the side goroutine's Release(id)
			// returned; the single-writer rule forbids submitting id before.
			releasing := make(map[string]chan struct{})
			settle := func(id string) {
				if ch := releasing[id]; ch != nil {
					<-ch
					delete(releasing, id)
				}
			}
			var side sync.WaitGroup
			var admitted uint64
			boomAt := rng.Intn(ops / 2)
			for op := 0; op < ops; op++ {
				id := streamKey(rng.Intn(streams), streams)
				switch k := rng.Intn(10); {
				case k < 3: // single package
					settle(id)
					pkg := draw(id)
					if op >= boomAt && boom.Load() == nil {
						boom.Store(pkg)
						want[id] = want[id][:len(want[id])-1]
					}
					if err := e.Submit(id, pkg); err != nil {
						t.Fatal(err)
					}
					admitted++
				case k < 7: // burst, sometimes empty
					settle(id)
					n := 0
					if rng.Intn(8) > 0 {
						n = 1 + rng.Intn(300)
					}
					burst := make([]*dataset.Package, n)
					for i := range burst {
						burst[i] = draw(id)
					}
					if n > 0 && op >= boomAt && boom.Load() == nil {
						// Any position in the burst, the last included.
						i := rng.Intn(n)
						boom.Store(burst[i])
						w := want[id]
						want[id] = append(w[:len(w)-n+i], w[len(w)-n+i+1:]...)
					}
					if err := e.SubmitBatch(id, burst); err != nil {
						t.Fatal(err)
					}
					admitted += uint64(n)
				case k < 8: // barrier, from the side so later packets queue behind it
					before := admitted
					side.Add(1)
					go func() {
						defer side.Done()
						if err := e.Barrier(); err != nil {
							t.Error(err)
						}
						if got := handled.Load(); got < before {
							t.Errorf("barrier returned with %d of the %d packages admitted before it classified", got, before)
						}
					}()
				default: // release, from the side
					settle(id)
					// The panicking package never reaches delivered.
					before := len(want[id])
					delete(sessions, id)
					done := make(chan struct{})
					releasing[id] = done
					side.Add(1)
					go func() {
						defer side.Done()
						defer close(done)
						if err := e.Release(id); err != nil {
							t.Error(err)
						}
						if got := deliveredTo(id); got != before {
							t.Errorf("release of %s returned with %d of its %d packages delivered", id, got, before)
						}
					}()
				}
			}
			side.Wait()
			if err := e.Barrier(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if err := e.Stop(); boom.Load() != nil && err == nil {
				t.Error("Stop returned nil after a handler panic")
			}

			if st.Packages != admitted || handled.Load() != admitted {
				t.Errorf("admitted %d packages, classified %d, handler saw %d", admitted, st.Packages, handled.Load())
			}
			wantPanics := uint64(0)
			if boom.Load() != nil {
				wantPanics = 1
			}
			if st.HandlerPanics != wantPanics || boomCalls.Load() != wantPanics {
				t.Errorf("HandlerPanics = %d, panicking package handled %d times, want %d each",
					st.HandlerPanics, boomCalls.Load(), wantPanics)
			}
			for id, w := range want {
				g := delivered[id]
				if len(g) != len(w) {
					t.Fatalf("stream %s: %d deliveries, want %d", id, len(g), len(w))
				}
				for i := range w {
					if g[i].pkg != w[i].pkg {
						t.Fatalf("stream %s delivery %d: out of submission order", id, i)
					}
					if !g[i].v.Equal(w[i].v) {
						t.Fatalf("stream %s delivery %d: engine verdict %+v, sequential %+v", id, i, g[i].v, w[i].v)
					}
				}
			}
			for id := range delivered {
				if _, ok := want[id]; !ok {
					t.Errorf("stream %s delivered but never submitted", id)
				}
			}
		})
	}
}

// settledHeap is the live heap after two full collections.
func settledHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestEngineDrainedHoldsNoPackages: a drained engine must not pin the
// packages of its last tick. The handler gates the worker until the whole
// flood is queued, so one tick carries all of it; after a Barrier the
// packages are garbage and the heap must fall back to the pre-flood
// reading. Before the tick buffer was cleared at tick end it stayed
// megabytes above it.
func TestEngineDrainedHoldsNoPackages(t *testing.T) {
	fw, split := testFramework(t)
	const (
		streams = 2
		bursts  = 48
		width   = 256
		slackKB = 256
	)
	// The handler passes only while the test does not hold the gate.
	var gate sync.RWMutex
	e, err := engine.New(fw, engine.Config{Shards: 1, QueueDepth: bursts + 1}, func(engine.Result) {
		gate.RLock()
		gate.RUnlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	submit := func(b int) {
		burst := make([]*dataset.Package, width)
		for i := range burst {
			cp := *split.Test[(b*width+i)%len(split.Test)]
			burst[i] = &cp
		}
		if err := e.SubmitBatch(streamKey(b, streams), burst); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: streams open and scratch grows to its working size, one
	// burst per tick so the reading is taken with (almost) nothing queued
	// behind it whether or not ticks are cleared.
	for b := 0; b < 2*streams; b++ {
		submit(b)
		if err := e.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	before := settledHeap()

	// The first package blocks in the handler; everything else queues
	// behind it and drains as one tick once the gate opens.
	gate.Lock()
	if err := e.Submit(streamKey(0, streams), split.Test[0]); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < bursts; b++ {
		submit(b)
	}
	gate.Unlock()
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	after := settledHeap()
	if after > before+slackKB<<10 {
		t.Errorf("drained engine holds %d KB more than before the flood of %d packages",
			(after-before)>>10, bursts*width)
	}
}
