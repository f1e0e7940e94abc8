// Golden-verdict conformance over the committed trace corpora
// (testdata/traces for the gas pipeline, testdata/traces/watertank for the
// water storage tank): every recorded scenario of every testbed must replay
// to verdicts bitwise-identical to its golden file — through the sequential
// Session and the batched engine, on every kernel tier (AVX-512, AVX2,
// scalar). This extends the repo's equivalence bar from "batched vs
// sequential in one process" to "any build, any kernel tier, any testbed,
// against
// recorded artifacts": a regression in frame decoding, feature
// reconstruction, the detector pipeline or the numeric kernels shows up as
// a concrete first-differing verdict line.
//
// The tests train nothing (each corpus pins a model snapshot), so they run
// in -short mode and under -race. Regenerate deliberately with
// `go run ./cmd/icsreplay -record testdata/traces -fuzzseeds
// internal/modbus/testdata/frames` and `go run ./cmd/icsreplay -record
// testdata/traces/watertank -scenario watertank -fuzzseeds
// internal/modbus/testdata/frames` after intentional format/model changes.
package icsdetect_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/trace"
)

// corpusEpisodes lists the committed traces of every corpus; keeping the
// list explicit means a half-written corpus (missing trace or golden) fails
// loudly instead of silently shrinking coverage.
var corpusEpisodes = []string{
	"normal", "nmri", "cmri", "msci", "mpci", "mfci", "dos", "recon",
}

// corpusDirs is the scenario axis of the conformance matrix: one committed
// golden corpus per registered testbed.
var corpusDirs = []struct {
	scenario string
	dir      string
}{
	{"gaspipeline", "testdata/traces"},
	{"watertank", filepath.Join("testdata", "traces", "watertank")},
}

type corpusTrace struct {
	name    string
	header  trace.Header
	records []*trace.Record
	golden  []byte
}

type corpus struct {
	scenario string
	fw       *core.Framework
	traces   []corpusTrace
}

func loadCorpusDir(t *testing.T, scenarioName, dir string) *corpus {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "model.fw"))
	if err != nil {
		t.Fatalf("open %s corpus model (regenerate with icsreplay -record): %v", scenarioName, err)
	}
	defer f.Close()
	fw, err := core.Load(f)
	if err != nil {
		t.Fatalf("load %s corpus model: %v", scenarioName, err)
	}

	fingerprint := fw.Fingerprint()
	c := &corpus{scenario: scenarioName, fw: fw}
	for _, name := range corpusEpisodes {
		tf, err := os.Open(filepath.Join(dir, name+".trace"))
		if err != nil {
			t.Fatalf("open %s trace %s: %v", scenarioName, name, err)
		}
		header, records, err := trace.ReadAll(tf)
		tf.Close()
		if err != nil {
			t.Fatalf("read %s trace %s: %v", scenarioName, name, err)
		}
		if header.Scenario != name {
			t.Fatalf("%s trace %s names scenario %q", scenarioName, name, header.Scenario)
		}
		if header.Fingerprint != fingerprint {
			t.Fatalf("%s trace %s was recorded for model %s, corpus model is %s",
				scenarioName, name, header.Fingerprint, fingerprint)
		}
		golden, err := os.ReadFile(filepath.Join(dir, name+".verdicts"))
		if err != nil {
			t.Fatalf("read %s goldens for %s: %v", scenarioName, name, err)
		}
		c.traces = append(c.traces, corpusTrace{name: name, header: header, records: records, golden: golden})
	}
	return c
}

func loadCorpora(t *testing.T) []*corpus {
	t.Helper()
	out := make([]*corpus, 0, len(corpusDirs))
	for _, cd := range corpusDirs {
		out = append(out, loadCorpusDir(t, cd.scenario, cd.dir))
	}
	return out
}

// TestTraceConformance is the corpus gate, a full scenario matrix: both
// testbeds × {sequential session, batched engine} × {AVX-512, AVX2,
// scalar} kernel tiers, every committed trace against its golden bytes.
func TestTraceConformance(t *testing.T) {
	corpora := loadCorpora(t)

	forEachKernelTier(t, func(t *testing.T) {
		for _, c := range corpora {
			t.Run(c.scenario, func(t *testing.T) {
				for _, tc := range c.traces {
					t.Run(tc.name, func(t *testing.T) {
						seq, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{})
						if err != nil {
							t.Fatal(err)
						}
						got := trace.FormatVerdicts(tc.name, tc.header.Fingerprint, seq.Verdicts)
						if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
							t.Fatalf("sequential replay drifted from goldens at line %d", line)
						}

						eng, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{
							Engine: &engine.Config{Shards: 3, MaxBatch: 16, QueueDepth: 32},
						})
						if err != nil {
							t.Fatal(err)
						}
						got = trace.FormatVerdicts(tc.name, tc.header.Fingerprint, eng.Verdicts)
						if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
							t.Fatalf("engine replay drifted from goldens at line %d", line)
						}

						// Burst admission (SubmitBatchFor) must be verdict-invariant
						// too; the odd width keeps bursts straddling micro-batch
						// boundaries.
						burst, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{
							Engine: &engine.Config{Shards: 3, MaxBatch: 16, QueueDepth: 32},
							Burst:  7,
						})
						if err != nil {
							t.Fatal(err)
						}
						got = trace.FormatVerdicts(tc.name, tc.header.Fingerprint, burst.Verdicts)
						if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
							t.Fatalf("burst engine replay drifted from goldens at line %d", line)
						}
					})
				}
			})
		}
	})
}

// TestTraceConformanceF32 is the mixed-precision verdict-parity gate: the
// f32 inference tier must replay every committed trace of both corpora to
// verdicts bytewise-identical to the f64 goldens — sequential session and
// batched engine, on every kernel tier (AVX-512, AVX2, scalar). The
// goldens are recorded at f64, so this is the cross-precision contract of
// the f32 tier: faster kernels, same verdict sequence. A float32 rounding
// regression that flips any anomaly bit, level, rank or signature shows up
// as a concrete first-differing verdict line.
func TestTraceConformanceF32(t *testing.T) {
	corpora := loadCorpora(t)
	f32Spec := core.DefaultStackSpec()
	f32Spec.Precision = core.PrecisionF32

	forEachKernelTier(t, func(t *testing.T) {
		for _, c := range corpora {
			t.Run(c.scenario, func(t *testing.T) {
				for _, tc := range c.traces {
					t.Run(tc.name, func(t *testing.T) {
						seq, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{Stack: f32Spec})
						if err != nil {
							t.Fatal(err)
						}
						got := trace.FormatVerdicts(tc.name, tc.header.Fingerprint, seq.Verdicts)
						if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
							t.Fatalf("f32 sequential replay drifted from f64 goldens at line %d", line)
						}

						eng, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{
							Stack:  f32Spec,
							Engine: &engine.Config{Shards: 3, MaxBatch: 16, QueueDepth: 32},
						})
						if err != nil {
							t.Fatal(err)
						}
						got = trace.FormatVerdicts(tc.name, tc.header.Fingerprint, eng.Verdicts)
						if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
							t.Fatalf("f32 engine replay drifted from f64 goldens at line %d", line)
						}
					})
				}
			})
		}
	})
}

// TestTraceConformanceF32MixedPrecision: one engine serving an f64 and an
// f32 stream of the same trace on shared shards — the f32 stream bound via
// BindPrecision — must produce, per stream, verdicts bytewise-identical to
// the goldens. Per-precision micro-batches must never bleed kernels
// between co-scheduled streams.
func TestTraceConformanceF32MixedPrecision(t *testing.T) {
	for _, c := range loadCorpora(t) {
		t.Run(c.scenario, func(t *testing.T) {
			tc := c.traces[0]
			pkgs, err := trace.Packages(tc.header, tc.records)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			verdicts := make(map[string][]core.Verdict)
			eng, err := engine.New(c.fw,
				engine.Config{Shards: 2, MaxBatch: 16, QueueDepth: 64},
				func(r engine.Result) {
					mu.Lock()
					verdicts[r.Stream] = append(verdicts[r.Stream], r.Verdict)
					mu.Unlock()
				})
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.BindPrecision("plc-f32", core.PrecisionF32); err != nil {
				t.Fatal(err)
			}
			for _, p := range pkgs {
				if err := eng.SubmitBatchFor(nil, "plc-f64", []*dataset.Package{p}); err != nil {
					t.Fatal(err)
				}
				if err := eng.SubmitBatchFor(nil, "plc-f32", []*dataset.Package{p}); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Barrier(); err != nil {
				t.Fatal(err)
			}
			eng.Stop()
			for _, stream := range []string{"plc-f64", "plc-f32"} {
				got := verdicts[stream]
				if len(got) != len(pkgs) {
					t.Fatalf("%s: %d verdicts for %d packages", stream, len(got), len(pkgs))
				}
				doc := trace.FormatVerdicts(tc.name, tc.header.Fingerprint, got)
				if line := trace.DiffVerdicts(tc.golden, doc); line != 0 {
					t.Errorf("%s: mixed-precision engine drifted from goldens at line %d", stream, line)
				}
			}
		})
	}
}

// TestTraceConformanceMixedScenarios: one engine serving gas-pipeline and
// water-tank streams concurrently on shared shards — each stream bound to
// its scenario's model via SubmitBatchFor, submissions interleaved round-robin
// across all 16 streams — must produce, per stream, verdicts
// bytewise-identical to the committed goldens (which are sequential
// single-scenario replays). Cross-scenario batching must never bleed state
// or weights between streams.
func TestTraceConformanceMixedScenarios(t *testing.T) {
	corpora := loadCorpora(t)

	type streamSrc struct {
		key    string
		fw     *core.Framework
		tc     corpusTrace
		pkgs   []*dataset.Package
		golden []byte
	}
	var streams []*streamSrc
	for _, c := range corpora {
		for _, tc := range c.traces {
			pkgs, err := trace.Packages(tc.header, tc.records)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.scenario, tc.name, err)
			}
			streams = append(streams, &streamSrc{
				key:    c.scenario + "/" + tc.name,
				fw:     c.fw,
				tc:     tc,
				pkgs:   pkgs,
				golden: tc.golden,
			})
		}
	}

	// The default framework is the gas model; water-tank streams override
	// it per submission. 3 shards << 16 streams forces shard sharing
	// between scenarios.
	var mu sync.Mutex
	verdicts := make(map[string][]core.Verdict)
	eng, err := engine.New(corpora[0].fw,
		engine.Config{Shards: 3, MaxBatch: 16, QueueDepth: 64},
		func(r engine.Result) {
			mu.Lock()
			verdicts[r.Stream] = append(verdicts[r.Stream], r.Verdict)
			mu.Unlock()
		})
	if err != nil {
		t.Fatal(err)
	}

	// Round-robin interleave: one package of each live stream per round,
	// so shards constantly alternate between scenarios mid-batch.
	for i := 0; ; i++ {
		live := false
		for _, s := range streams {
			if i >= len(s.pkgs) {
				continue
			}
			live = true
			var fw *core.Framework
			if s.fw != corpora[0].fw {
				fw = s.fw
			}
			if err := eng.SubmitBatchFor(fw, s.key, []*dataset.Package{s.pkgs[i]}); err != nil {
				t.Fatal(err)
			}
		}
		if !live {
			break
		}
	}
	if err := eng.Barrier(); err != nil {
		t.Fatal(err)
	}
	eng.Stop()

	for _, s := range streams {
		got := verdicts[s.key]
		if len(got) != len(s.pkgs) {
			t.Fatalf("%s: %d verdicts for %d packages", s.key, len(got), len(s.pkgs))
		}
		doc := trace.FormatVerdicts(s.tc.name, s.tc.header.Fingerprint, got)
		if line := trace.DiffVerdicts(s.golden, doc); line != 0 {
			t.Errorf("%s: mixed-scenario engine drifted from goldens at line %d", s.key, line)
		}
	}
}

// TestTraceConformanceDetectionParity: the framework is process-agnostic,
// so moving it to the second testbed must not collapse detection quality.
// The PR acceptance bar: the water tank's detected ratios for DoS, MFCI and
// MPCI stay within 0.1 of the gas pipeline's.
func TestTraceConformanceDetectionParity(t *testing.T) {
	corpora := loadCorpora(t)
	if len(corpora) < 2 {
		t.Fatal("need both corpora")
	}
	ratios := func(c *corpus) map[dataset.AttackType]float64 {
		out := make(map[dataset.AttackType]float64)
		for _, tc := range c.traces {
			res, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{})
			if err != nil {
				t.Fatalf("%s/%s: %v", c.scenario, tc.name, err)
			}
			for _, at := range dataset.AttackTypes {
				if res.PerAttack.Total[at] > 0 {
					out[at] = res.PerAttack.Ratio(at)
				}
			}
		}
		return out
	}
	gas, tank := ratios(corpora[0]), ratios(corpora[1])
	for _, at := range []dataset.AttackType{dataset.DOS, dataset.MFCI, dataset.MPCI} {
		g, ok := gas[at]
		if !ok {
			t.Fatalf("gas corpus has no %v packages", at)
		}
		w, ok := tank[at]
		if !ok {
			t.Fatalf("watertank corpus has no %v packages", at)
		}
		if w < g-0.1 {
			t.Errorf("%v: watertank detected ratio %.2f below gas %.2f - 0.1", at, w, g)
		}
		t.Logf("%v: gas %.2f, watertank %.2f", at, g, w)
	}
}

// TestTraceConformanceLatencyAccounting: replaying an attack trace must
// attribute episodes and detection latency to the trace's attack category —
// the latency-mode measurements icsreplay reports are grounded here. Runs
// over both corpora.
func TestTraceConformanceLatencyAccounting(t *testing.T) {
	corpora := loadCorpora(t)
	attacks := map[string]string{
		"nmri": "NMRI", "cmri": "CMRI", "msci": "MSCI", "mpci": "MPCI",
		"mfci": "MFCI", "dos": "DoS", "recon": "Recon",
	}
	for _, c := range corpora {
		for _, tc := range c.traces {
			res, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{})
			if err != nil {
				t.Fatal(err)
			}
			id := fmt.Sprintf("%s/%s", c.scenario, tc.name)
			if tc.name == "normal" {
				if len(res.Latency.Episodes) != 0 {
					t.Errorf("%s: normal trace produced attack episodes: %+v", id, res.Latency.Episodes)
				}
				continue
			}
			found := false
			for at, n := range res.Latency.Episodes {
				if at.String() == attacks[tc.name] {
					found = true
					if n < 2 {
						t.Errorf("%s: %d episodes, corpus scripts record 2", id, n)
					}
					if res.Latency.Detected[at] == 0 {
						t.Errorf("%s: no episode detected; golden corpus should never pin a blind model", id)
					}
					if res.Latency.Detected[at] > 0 && res.Latency.MeanLatency(at) < 0 {
						t.Errorf("%s: negative mean latency", id)
					}
				}
			}
			if !found {
				t.Errorf("%s: no %s episodes in latency accounting: %+v", id, attacks[tc.name], res.Latency.Episodes)
			}
		}
	}
}

// TestTraceConformanceTimedMode: the timed (latency-mode) replay path must
// produce the same verdicts as throughput mode — pacing must never leak
// into classification.
func TestTraceConformanceTimedMode(t *testing.T) {
	for _, c := range loadCorpora(t) {
		tc := c.traces[0]
		res, err := trace.Replay(c.fw, tc.header, tc.records, trace.ReplayConfig{Timed: true, Speed: 1e6})
		if err != nil {
			t.Fatal(err)
		}
		got := trace.FormatVerdicts(tc.name, tc.header.Fingerprint, res.Verdicts)
		if line := trace.DiffVerdicts(tc.golden, got); line != 0 {
			t.Fatalf("%s: timed replay drifted from goldens at line %d", c.scenario, line)
		}
	}
}
