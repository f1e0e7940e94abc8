// Hot-path allocation regression gates: steady-state classification must
// stay allocation-free on the sequential ClassifyOnly/Advance path for the
// default stack, and allocation-lean through the engine and for
// evidence-recording stacks (those allocate the per-verdict evidence slice
// the caller keeps). The bounds are measured ceilings plus one of slack.
package icsdetect_test

import (
	"runtime"
	"sync/atomic"
	"testing"

	"icsdetect"
	"icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/recon"
)

// classifyAllocs measures the mean allocations per package of a warmed
// sequential session over spec. reuse opts the session into the pooled
// per-verdict evidence buffer.
func classifyAllocs(t *testing.T, spec icsdetect.StackSpec, reuse bool) float64 {
	t.Helper()
	fx := loadStackFixture(t)
	sess, err := fx.det.NewStackSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	sess.ReuseEvidence(reuse)
	pkgs := fx.split.Test
	if len(pkgs) > 1400 {
		pkgs = pkgs[:1400]
	}
	warm := pkgs[:400]
	steady := pkgs[400:]
	for _, p := range warm {
		sess.Classify(p)
	}
	i := 0
	per := testing.AllocsPerRun(len(steady), func() {
		v, pc := sess.ClassifyOnly(steady[i])
		sess.Advance(pc, v)
		i++
		if i == len(steady) {
			i = 0
			sess.Reset()
		}
	})
	return per
}

// engineAllocs measures the mean allocations per package of a warmed
// engine over spec (whole submit→classify→handle path, all shards).
func engineAllocs(t *testing.T, spec icsdetect.StackSpec) float64 {
	t.Helper()
	fx := loadStackFixture(t)
	pkgs := fx.split.Test
	if len(pkgs) > 1400 {
		pkgs = pkgs[:1400]
	}
	eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
		Shards: 2, MaxBatch: 8, QueueDepth: 32, Stack: spec,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	feed := func(n int) {
		for r := 0; r < n; r++ {
			for _, p := range pkgs {
				if err := eng.Submit("dev", p); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := eng.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	feed(1) // warm: stream state, batches, tick buffers
	const rounds = 3
	per := testing.AllocsPerRun(1, func() { feed(rounds) })
	return per / float64(rounds*len(pkgs))
}

// narrowBurstAllocs measures the mean allocations per package of the
// serving daemon's shape: two streams, 256-package bursts submitted faster
// than the shards drain them, so every tick carries a deep queue of bursts
// and every advance flush is one or two streams wide. The burst slices are
// the submitter's and are built outside the measurement. A signature
// outside the database costs its string — the traffic's allocation, not the
// engine's — so one allocation per package-level verdict is discounted.
func narrowBurstAllocs(t *testing.T, spec icsdetect.StackSpec) float64 {
	t.Helper()
	fx := loadStackFixture(t)
	pkgs := fx.split.Test
	var unknown atomic.Int64
	eng, err := icsdetect.NewEngine(fx.det, icsdetect.EngineConfig{
		Shards: 2, QueueDepth: 32, Stack: spec,
	}, func(r icsdetect.EngineResult) {
		if r.Verdict.Level == icsdetect.LevelPackage {
			unknown.Add(1)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Stop()
	const width, perStream = 256, 24
	streams := []string{"link-a", "link-b"}
	build := func() [][]*icsdetect.Package {
		bursts := make([][]*icsdetect.Package, perStream*len(streams))
		for b := range bursts {
			bursts[b] = make([]*icsdetect.Package, width)
			for i := range bursts[b] {
				bursts[b][i] = pkgs[(b*width+i)%len(pkgs)]
			}
		}
		return bursts
	}
	feed := func(bursts [][]*icsdetect.Package) {
		for b, burst := range bursts {
			if err := eng.SubmitBatch(streams[b%len(streams)], burst); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Barrier(); err != nil {
			t.Fatal(err)
		}
	}
	feed(build()) // warm: stream state, batch scratch, tick and lane buffers
	bursts := build()
	unknown.Store(0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	feed(bursts)
	runtime.ReadMemStats(&after)
	allocs := after.Mallocs - before.Mallocs
	return (float64(allocs) - float64(unknown.Load())) / float64(len(bursts)*width)
}

// TestHotPathAllocations gates the per-package allocation counts. If a
// refactor trips a gate, either the hot path regressed (fix it) or the
// cost is deliberate (justify it and raise the bound in the same change).
func TestHotPathAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates use the trained stack fixture")
	}
	defaultSpec := icsdetect.DefaultStack()
	fourSpec, err := icsdetect.ParseStack("bloom,pca,gmm,lstm", "majority")
	if err != nil {
		t.Fatal(err)
	}
	f32Spec := defaultSpec
	f32Spec.Precision = icsdetect.PrecisionF32
	const (
		sequential = iota
		sequentialReuse
		engine
		engineNarrow
	)
	cases := []struct {
		name    string
		path    int
		spec    icsdetect.StackSpec
		ceiling float64
	}{
		// Two streams of deep-queued bursts — the daemon's shape — classify
		// without allocating: the wave scheduler's grouping lives in shard
		// scratch and narrow flushes step on the streams' own state
		// (measured 0.006 at both tiers: Bloom false positives, whose
		// unknown signature surfaces at the time-series level, and the
		// closing Barrier).
		{"engine/narrow-burst", engineNarrow, defaultSpec, 0.02},
		{"engine/narrow-burst/f32", engineNarrow, f32Spec, 0.02},
		// Sequential default stack is allocation-free in steady state: the
		// session reuses its encoding buffers, known signatures intern to
		// the database's canonical strings, bloom hashes inline, and the
		// structs handed to the stage interfaces live on the session
		// (measured 0.0).
		{"sequential/default", sequential, defaultSpec, 0.5},
		// The f32 tier shares the zero-alloc hot path (measured 0.0).
		{"sequential/f32", sequential, f32Spec, 0.5},
		// The 4-level stack allocates the per-verdict evidence slice by
		// default — the caller retains it (measured 1.0)…
		{"sequential/4level", sequential, fourSpec, 1.5},
		// …and is allocation-free once the caller opts into the pooled
		// evidence buffer (measured 0.0).
		{"sequential/4level/reuse", sequentialReuse, fourSpec, 0.5},
		// Engine paths add a fraction of amortized submit/batch machinery
		// (measured 0.2 and 1.2).
		{"engine/default", engine, defaultSpec, 1},
		{"engine/f32", engine, f32Spec, 1},
		{"engine/4level", engine, fourSpec, 2},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var per float64
			switch c.path {
			case engineNarrow:
				per = narrowBurstAllocs(t, c.spec)
			case engine:
				per = engineAllocs(t, c.spec)
			default:
				per = classifyAllocs(t, c.spec, c.path == sequentialReuse)
			}
			t.Logf("%s: %.3f allocs/package (gate %g)", c.name, per, c.ceiling)
			if per > c.ceiling {
				t.Errorf("%s allocates %.3f/package, gate is %g", c.name, per, c.ceiling)
			}
		})
	}
}

// TestWindowStageCheckNoAllocations gates the window levels one by one: a
// Check that closes a window — the call that scores — allocates nothing
// for any registered window kind, and the nine-level majority stack of
// the offline-all-levels workload classifies allocation-free once the
// caller pools the evidence buffer.
func TestWindowStageCheckNoAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gates use the trained stack fixture")
	}
	fx := loadStackFixture(t)
	all, err := icsdetect.ParseStack(fixtureLevels, "majority")
	if err != nil {
		t.Fatal(err)
	}
	stack, err := fx.det.NewStack(all)
	if err != nil {
		t.Fatal(err)
	}
	gated := 0
	for _, st := range stack.Stages() {
		stage, ok := st.(*baselines.WindowStage)
		if !ok {
			continue
		}
		gated++
		t.Run(stage.Name(), func(t *testing.T) {
			// Walk the stream until a package closes a window; Check does
			// not move the window, so repeating it re-scores that window.
			state := stage.NewState()
			var pc core.PackageContext
			var r core.StageResult
			for _, p := range fx.split.Test {
				pc, r = core.PackageContext{Cur: p}, core.StageResult{Rank: -1}
				stage.Check(state, &pc, &r)
				if r.Scored {
					break
				}
				var v core.Verdict
				stage.Advance(state, &pc, &v)
			}
			if !r.Scored {
				t.Fatal("no package of the test stream closes a window")
			}
			if per := testing.AllocsPerRun(200, func() { stage.Check(state, &pc, &r) }); per != 0 {
				t.Errorf("%s: a window-closing Check allocates %.2f times", stage.Name(), per)
			}
		})
	}
	if want := len(baselines.WindowStageKinds()) + len(recon.Kinds()); gated != want {
		t.Errorf("gated %d window kinds, want %d", gated, want)
	}

	nine, err := icsdetect.ParseStack("bloom,bf4,pca,gmm,iforest,bayesnet,svdd,lstm,ae", "majority")
	if err != nil {
		t.Fatal(err)
	}
	if per := classifyAllocs(t, nine, true); per != 0 {
		t.Errorf("nine-level stack allocates %.3f/package with a pooled evidence buffer", per)
	}
}
