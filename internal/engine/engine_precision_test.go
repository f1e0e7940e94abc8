package engine_test

import (
	"sync"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
)

// TestEngineMixedPrecisionStreams: one engine serving f64 and f32 streams
// on shared shards. Each stream's verdicts must be exactly those of a
// sequential core.Session over the stack at the stream's tier — so
// per-precision micro-batches never mix kernels, just as per-framework
// batches never mix weights.
func TestEngineMixedPrecisionStreams(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 600 {
		pkgs = pkgs[:600]
	}
	const streams = 10
	f32Stream := func(key string) bool { return key[len(key)-1]%2 == 0 }

	// Expected verdicts: sequential sessions at each stream's tier.
	specAt := func(p core.Precision) core.StackSpec {
		spec := core.DefaultStackSpec()
		spec.Precision = p
		return spec
	}
	want := make(map[string][]core.Verdict)
	sessions := make(map[string]*core.Session)
	for i, p := range pkgs {
		key := streamKey(i, streams)
		sess := sessions[key]
		if sess == nil {
			prec := core.PrecisionF64
			if f32Stream(key) {
				prec = core.PrecisionF32
			}
			var err error
			if sess, err = fw.NewStackSession(specAt(prec)); err != nil {
				t.Fatal(err)
			}
			sessions[key] = sess
		}
		want[key] = append(want[key], sess.Classify(p))
	}

	var mu sync.Mutex
	got := make(map[string][]core.Verdict)
	e, err := engine.New(fw, engine.Config{Shards: 3, MaxBatch: 16, QueueDepth: 32},
		func(r engine.Result) {
			mu.Lock()
			defer mu.Unlock()
			got[r.Stream] = append(got[r.Stream], r.Verdict)
		})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < streams; i++ {
		key := streamKey(i, streams)
		if f32Stream(key) {
			if err := e.BindPrecision(key, core.PrecisionF32); err != nil {
				t.Fatal(err)
			}
			// Re-binding to the same tier is idempotent.
			if err := e.BindPrecision(key, core.PrecisionF32); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, p := range pkgs {
		if err := e.SubmitBatchFor(nil, streamKey(i, streams), []*dataset.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Barrier(); err != nil {
		t.Fatal(err)
	}
	// Tier bindings are fixed at first package.
	if err := e.BindPrecision(streamKey(0, streams), core.PrecisionF32); err == nil {
		t.Fatal("BindPrecision on a live stream succeeded")
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
				t.Fatalf("stream %s package %d (f32=%v): engine verdict %+v, sequential %+v",
					key, i, f32Stream(key), gv[i], wv[i])
			}
		}
	}
}

// TestEngineConfigPrecision: Config.Stack.Precision sets the default tier
// for every stream, and an f32-incapable stack fails at New — the same
// fail-fast the -precision flag gets.
func TestEngineConfigPrecision(t *testing.T) {
	fw, split := testFramework(t)
	pkgs := split.Test
	if len(pkgs) > 200 {
		pkgs = pkgs[:200]
	}
	spec := core.DefaultStackSpec()
	spec.Precision = core.PrecisionF32

	want := make([]core.Verdict, 0, len(pkgs))
	sess, err := fw.NewStackSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		want = append(want, sess.Classify(p))
	}

	var mu sync.Mutex
	var got []core.Verdict
	e, err := engine.New(fw, engine.Config{Shards: 2, MaxBatch: 8, Stack: spec},
		func(r engine.Result) {
			mu.Lock()
			defer mu.Unlock()
			got = append(got, r.Verdict)
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pkgs {
		if err := e.SubmitBatchFor(nil, "plc-one", []*dataset.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	e.Stop()
	if len(got) != len(want) {
		t.Fatalf("%d verdicts, want %d", len(got), len(want))
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("package %d: engine %+v, sequential %+v", i, got[i], want[i])
		}
	}

	// Unknown precision in the config is rejected at New.
	bad := core.DefaultStackSpec()
	bad.Precision = core.Precision("f16")
	if _, err := engine.New(fw, engine.Config{Stack: bad}, nil); err == nil {
		t.Fatal("engine.New accepted an unknown precision")
	}
	// And BindPrecision rejects a tier the stack cannot run.
	e2, err := engine.New(fw, engine.Config{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Stop()
	if err := e2.BindPrecision("s", core.Precision("f16")); err == nil {
		t.Fatal("BindPrecision accepted an unknown precision")
	}
}
