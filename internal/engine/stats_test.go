package engine_test

import (
	"sync"
	"testing"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
)

// TestStatsSince pins the interval-delta semantics operators build rate
// dashboards on: every cumulative counter subtracts, QueueDepth is a
// gauge that keeps the later snapshot's value, and the derived views
// (ActiveStreams, MeanBatch, PerSecond, Anomalies) computed on a delta
// are interval quantities, not lifetime means.
func TestStatsSince(t *testing.T) {
	byLevel := func(clean, pkg, series uint64) (b [core.NumLevels]uint64) {
		b[core.LevelNone] = clean
		b[core.LevelPackage] = pkg
		b[core.LevelTimeSeries] = series
		return
	}
	cur := engine.Stats{
		Packages: 1000, Streams: 40, Released: 25, HandlerPanics: 3,
		Batches: 100, Batched: 900, CheckBatches: 60, CheckBatched: 480,
		ByLevel: byLevel(700, 200, 100), OtherLevels: 7,
		Clean: 700, PackageLevel: 200, SeriesLevel: 100,
		QueueDepth: 9, Elapsed: 10 * time.Second,
	}

	for _, tc := range []struct {
		name string
		prev engine.Stats
		want engine.Stats
	}{
		{
			// The zero snapshot is the documented "since start" anchor:
			// the delta must be the snapshot itself.
			name: "zero-prev-identity",
			prev: engine.Stats{},
			want: cur,
		},
		{
			name: "counters-subtract",
			prev: engine.Stats{
				Packages: 400, Streams: 30, Released: 10, HandlerPanics: 1,
				Batches: 40, Batched: 350, CheckBatches: 20, CheckBatched: 160,
				ByLevel: byLevel(300, 70, 30), OtherLevels: 2,
				Clean: 300, PackageLevel: 70, SeriesLevel: 30,
				QueueDepth: 17, Elapsed: 4 * time.Second,
			},
			want: engine.Stats{
				Packages: 600, Streams: 10, Released: 15, HandlerPanics: 2,
				Batches: 60, Batched: 550, CheckBatches: 40, CheckBatched: 320,
				ByLevel: byLevel(400, 130, 70), OtherLevels: 5,
				Clean: 400, PackageLevel: 130, SeriesLevel: 70,
				// Gauge: keeps cur's 9, prev's 17 is ignored.
				QueueDepth: 9, Elapsed: 6 * time.Second,
			},
		},
		{
			// An idle interval: same counters on both sides, only the
			// clock moved. Every delta is zero and the interval rate is 0.
			name: "idle-interval",
			prev: func() engine.Stats {
				p := cur
				p.Elapsed = 8 * time.Second
				p.QueueDepth = 3
				return p
			}(),
			want: func() engine.Stats {
				w := engine.Stats{QueueDepth: 9, Elapsed: 2 * time.Second}
				return w
			}(),
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := cur.Since(tc.prev)
			if got != tc.want {
				t.Fatalf("Since mismatch:\n got %+v\nwant %+v", got, tc.want)
			}
			// Derived interval views.
			if a, w := got.ActiveStreams(), got.Streams-got.Released; a != w {
				t.Errorf("delta ActiveStreams = %d, want %d", a, w)
			}
			if a, w := got.Anomalies(), got.Packages-got.Clean; a != w {
				t.Errorf("delta Anomalies = %d, want %d", a, w)
			}
			wantRate := 0.0
			if got.Elapsed > 0 {
				wantRate = float64(got.Packages) / got.Elapsed.Seconds()
			}
			if r := got.PerSecond(); r != wantRate {
				t.Errorf("delta PerSecond = %v, want %v", r, wantRate)
			}
			wantMB := 0.0
			if got.Batches > 0 {
				wantMB = float64(got.Batched) / float64(got.Batches)
			}
			if mb := got.MeanBatch(); mb != wantMB {
				t.Errorf("delta MeanBatch = %v, want %v", mb, wantMB)
			}
		})
	}
}

// TestStatsConcurrentRelease hammers Engine.Release from many goroutines
// — including duplicate releases of the same stream — while a monitor
// samples Stats, and checks that Released climbs monotonically, never
// exceeds Streams (ActiveStreams cannot go negative), counts each stream
// at most once, and that the interval delta across the release burst
// shows exactly the released streams and nothing else.
func TestStatsConcurrentRelease(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 300 {
		pkgs = pkgs[:300]
	}
	const streams = 24

	e, err := engine.New(fw, engine.Config{Shards: 4, MaxBatch: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Stop()
	for i, p := range pkgs {
		if err := e.SubmitBatchFor(nil, streamKey(i, streams), []*dataset.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	base := e.Stats()
	if base.ActiveStreams() != streams {
		t.Fatalf("ActiveStreams = %d before release burst, want %d", base.ActiveStreams(), streams)
	}

	// Monitor: Released must be non-decreasing and bounded by Streams in
	// every snapshot taken while the burst runs.
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		var last uint64
		for {
			st := e.Stats()
			if st.Released < last {
				t.Errorf("Released went backwards: %d after %d", st.Released, last)
				return
			}
			if st.Released > st.Streams {
				t.Errorf("Released %d > Streams %d (negative ActiveStreams)", st.Released, st.Streams)
				return
			}
			last = st.Released
			select {
			case <-stopMon:
				return
			default:
			}
		}
	}()

	// Two goroutines per stream: duplicate concurrent releases must not
	// double-count (only a stream actually holding state releases).
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		for i := 0; i < streams; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := e.Release(streamKey(i, streams)); err != nil {
					t.Errorf("release %d: %v", i, err)
				}
			}(i)
		}
	}
	wg.Wait()
	close(stopMon)
	<-monDone

	cur := e.Stats()
	delta := cur.Since(base)
	if delta.Released != streams {
		t.Errorf("delta Released = %d across the burst, want %d", delta.Released, streams)
	}
	if delta.Streams != 0 || delta.Packages != 0 {
		t.Errorf("release burst changed Streams by %d and Packages by %d, want 0/0",
			delta.Streams, delta.Packages)
	}
	if cur.ActiveStreams() != 0 {
		t.Errorf("ActiveStreams = %d after releasing every stream, want 0", cur.ActiveStreams())
	}

	// A released ID resubmits as a fresh stream: Streams grows, proving
	// Release dropped the shard state rather than just hiding it.
	if err := e.SubmitBatchFor(nil, streamKey(0, streams), []*dataset.Package{pkgs[0]}); err != nil {
		t.Fatal(err)
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	if d := e.Stats().Since(cur); d.Streams != 1 || d.Released != 0 {
		t.Errorf("resubmit after release: delta Streams=%d Released=%d, want 1/0", d.Streams, d.Released)
	}
}
