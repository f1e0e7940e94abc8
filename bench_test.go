// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (§VIII) plus the cost-profile measurements (§VIII-A-2) and the
// ablation benches.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The experiment benchmarks share one lazily built environment (dataset +
// two trained frameworks) so that `-bench=.` finishes in minutes; the shape
// results they report come from the same runners cmd/icseval uses at
// larger scale. Reported custom metrics (f1, precision, …) carry each
// experiment's headline numbers.
package icsdetect_test

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"icsdetect/internal/bloom"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/experiments"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// metricName makes a model name usable as a benchmark metric unit (no
// whitespace allowed).
func metricName(s string) string {
	return strings.ReplaceAll(s, " ", "_")
}

// benchEnvironment lazily builds the shared experiment environment at a
// bench-friendly scale.
func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := experiments.DefaultConfig()
		cfg.Packages = 16000
		cfg.Granularity = signature.Granularity{
			IntervalClusters: 2, CRCClusters: 2,
			PressureBins: 6, SetpointBins: 3, PIDClusters: 2,
		}
		cfg.Core.Granularity = cfg.Granularity
		cfg.Core.Hidden = []int{32, 32}
		cfg.Core.Fit.Epochs = 8
		cfg.Core.Fit.BatchSize = 8
		benchEnv, benchErr = experiments.BuildEnv(cfg, nil)
	})
	if benchErr != nil {
		b.Fatalf("build bench environment: %v", benchErr)
	}
	return benchEnv
}

// ---- Table/figure reproduction benches -------------------------------------

func BenchmarkFigure4Histograms(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig := experiments.RunFigure4(env)
		if fig.Pressure.N == 0 {
			b.Fatal("empty histogram")
		}
	}
}

func BenchmarkFigure5GranularitySweep(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fig, err := experiments.RunFigure5(env)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			feasible := 0
			for _, p := range fig.Points {
				if p.Feasible {
					feasible++
				}
			}
			b.ReportMetric(float64(len(fig.Points)), "gridpoints")
			b.ReportMetric(float64(feasible), "feasible")
		}
	}
}

func BenchmarkFigure6TopKError(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ranks := env.Framework.Series.TopKRanks(
			env.Framework.Encoder, env.Framework.Input, env.Framework.DB,
			env.Split.Validation)
		if len(ranks) == 0 {
			b.Fatal("no ranks")
		}
	}
	fig := experiments.RunFigure6(env)
	b.ReportMetric(fig.NoiseValidation.Err[0], "err@1")
	b.ReportMetric(fig.NoiseValidation.Err[len(fig.NoiseValidation.Err)-1], "err@max")
	b.ReportMetric(float64(fig.ChosenK), "chosenK")
}

func BenchmarkFigure7MetricsVsK(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var fig *experiments.Figure7
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.RunFigure7(env, 6)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fig.Noise[0].F1, "f1@k1")
	b.ReportMetric(fig.Noise[len(fig.Noise)-1].F1, "f1@k6")
}

func BenchmarkTableIVComparison(b *testing.B) {
	env := benchEnvironment(b)
	b.ResetTimer()
	var t4 *experiments.TableIV
	var err error
	for i := 0; i < b.N; i++ {
		t4, err = experiments.RunTableIV(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range t4.Rows {
		b.ReportMetric(row.Summary.F1, "f1/"+metricName(row.Name))
	}
}

func BenchmarkTableVPerAttack(b *testing.B) {
	env := benchEnvironment(b)
	t4, err := experiments.RunTableIV(env)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t5 := experiments.RunTableV(t4)
		if len(t5.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
	ours := t4.Rows[0].PerAttack
	for _, at := range dataset.AttackTypes {
		b.ReportMetric(ours.Ratio(at), "recall/"+at.String())
	}
}

// ---- Cost profile (§VIII-A-2) ----------------------------------------------

// BenchmarkClassifyCombined measures the per-package classification latency
// of the combined framework (paper: ~0.03 ms).
func BenchmarkClassifyCombined(b *testing.B) {
	env := benchEnvironment(b)
	sess := env.Framework.NewSession()
	test := env.Split.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sess.Classify(test[i%len(test)])
	}
}

// BenchmarkTrainLSTM measures end-to-end time-series model training
// throughput on a small corpus (paper: 35 min for 50 epochs at full scale).
func BenchmarkTrainLSTM(b *testing.B) {
	env := benchEnvironment(b)
	fw := env.Framework
	seqs := core.BuildSequences(fw.Encoder, fw.Input, fw.DB, env.Split.Train, nil)
	var steps int
	for _, s := range seqs {
		steps += len(s.Inputs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := nn.NewClassifier(fw.Input.Dim, []int{32, 32}, fw.DB.Size(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nn.Train(model, seqs, nn.TrainConfig{
			Epochs: 1, Window: 32, BatchSize: 8, LR: 2e-3, ClipNorm: 5, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(steps), "steps/epoch")
}

// BenchmarkTrainThroughput measures the training engine at the paper's
// full model scale (2x256), in truncated-BPTT windows per second. Its
// bitwise parity with the per-window oracle is proven by internal/nn's
// tests. The corpus is trimmed so one epoch stays benchmark-friendly; the
// per-window compute profile is the full-scale one.
func BenchmarkTrainThroughput(b *testing.B) {
	env := benchEnvironment(b)
	fw := env.Framework
	seqs := core.BuildSequences(fw.Encoder, fw.Input, fw.DB, env.Split.Train, nil)

	// Trim the corpus to roughly 48 full windows.
	const benchWindow, targetWindows = 32, 48
	var trimmed []nn.Sequence
	var steps int
	for _, s := range seqs {
		if steps >= targetWindows*benchWindow {
			break
		}
		trimmed = append(trimmed, s)
		steps += len(s.Inputs)
	}
	nWindows := len(nn.MakeWindows(trimmed, benchWindow))

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model, err := nn.NewClassifier(fw.Input.Dim, []int{256, 256}, fw.DB.Size(), 1)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := nn.Train(model, trimmed, nn.TrainConfig{
			Epochs: 1, Window: benchWindow, BatchSize: 16, LR: 2e-3,
			ClipNorm: 5, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(nWindows)*float64(b.N)/b.Elapsed().Seconds(), "windows/s")
}

// BenchmarkModelMemory reports the storage cost of the two detection models
// (paper: 684 KB).
func BenchmarkModelMemory(b *testing.B) {
	env := benchEnvironment(b)
	var total int
	for i := 0; i < b.N; i++ {
		total = env.Framework.MemoryBytes()
	}
	b.ReportMetric(float64(total)/1024, "KB")
}

// ---- Concurrent engine (multi-stream serving path) ---------------------------

var (
	engineFwOnce sync.Once
	engineFw     *core.Framework
)

// engineBenchFramework wraps the bench environment's trained signature
// substrate around a production-scale (paper: 2×256) LSTM. Verdict quality
// is irrelevant for throughput, so the big model is random-initialized
// rather than trained; the compute and memory profile per package is the
// full-scale one.
func engineBenchFramework(b *testing.B) *core.Framework {
	b.Helper()
	env := benchEnvironment(b)
	engineFwOnce.Do(func() {
		base := env.Framework
		model, err := nn.NewClassifier(base.Input.Dim, []int{256, 256}, base.DB.Size(), 99)
		if err != nil {
			benchErr = err
			return
		}
		engineFw = &core.Framework{
			Encoder: base.Encoder,
			DB:      base.DB,
			Package: base.Package,
			Series:  &core.TimeSeriesDetector{Model: model, K: base.Series.K},
			Input:   base.Input,
		}
	})
	if benchErr != nil {
		b.Fatalf("build engine bench framework: %v", benchErr)
	}
	return engineFw
}

// BenchmarkEngineThroughput measures the sharded multi-stream engine
// against N sequential Sessions over the same round-robin traffic, at the
// paper's full model scale. Before timing, it re-proves single-stream
// verdict equivalence between the engine and the sequential session on
// this framework. The pkg/s metric is the end-to-end classification rate.
func BenchmarkEngineThroughput(b *testing.B) {
	fw := engineBenchFramework(b)
	env := benchEnvironment(b)
	test := env.Split.Test

	// Untimed: engine verdicts must equal sequential session verdicts.
	verify := test
	if len(verify) > 300 {
		verify = verify[:300]
	}
	sess := fw.NewSession()
	want := make([]core.Verdict, len(verify))
	for i, p := range verify {
		want[i] = sess.Classify(p)
	}
	idx := 0
	var mismatch error
	eq, err := engine.New(fw, engine.Config{Shards: 2}, func(r engine.Result) {
		if mismatch == nil && !r.Verdict.Equal(want[idx]) {
			mismatch = fmt.Errorf("package %d: engine %+v, sequential %+v", idx, r.Verdict, want[idx])
		}
		idx++
	})
	if err != nil {
		b.Fatal(err)
	}
	for i := range verify {
		if err := eq.SubmitBatchFor(nil, "equivalence", verify[i:i+1]); err != nil {
			b.Fatal(err)
		}
	}
	eq.Stop()
	if mismatch != nil {
		b.Fatalf("engine/session divergence: %v", mismatch)
	}

	for _, streams := range []int{1, 32, 256} {
		streams := streams
		b.Run(fmt.Sprintf("sequential/streams=%d", streams), func(b *testing.B) {
			sessions := make([]*core.Session, streams)
			for i := range sessions {
				sessions[i] = fw.NewSession()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sessions[i%streams].Classify(test[i%len(test)])
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkg/s")
		})
		for _, shards := range []int{1, 4, 8} {
			shards := shards
			name := fmt.Sprintf("engine/shards=%d/streams=%d", shards, streams)
			b.Run(name, func(b *testing.B) {
				keys := make([]string, streams)
				for i := range keys {
					keys[i] = fmt.Sprintf("plc-%03d", i)
				}
				e, err := engine.New(fw, engine.Config{Shards: shards}, nil)
				if err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k := i % len(test)
					if err := e.SubmitBatchFor(nil, keys[i%streams], test[k:k+1]); err != nil {
						b.Fatal(err)
					}
				}
				finishEngineBench(b, e)
			})
		}
	}
}

// finishEngineBench ends an engine benchmark's timed region — Stop drains
// every queued package — checks that all b.N packages were classified, and
// reports the rate and the mean advance-batch width.
func finishEngineBench(b *testing.B, e *engine.Engine) {
	b.Helper()
	e.Stop()
	b.StopTimer()
	st := e.Stats()
	if st.Packages != uint64(b.N) {
		b.Fatalf("engine classified %d of %d packages", st.Packages, b.N)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pkg/s")
	b.ReportMetric(st.MeanBatch(), "pkg/batch")
}

// BenchmarkEngineNarrow is the few-streams regime the serving daemon runs
// in (the shape of benchmark/'s serve-replay-default): two streams on two
// shards fed 256-package bursts, the default two-level stack on the trained
// default model at both precisions. Every advance flush is one or two
// streams wide, so this times the batched step's narrow route and the
// per-wave scheduling cost, where BenchmarkEngineThroughput times the GEMM.
func BenchmarkEngineNarrow(b *testing.B) {
	env := benchEnvironment(b)
	test := env.Split.Test
	const width = 256
	streams := []string{"link-a", "link-b"}
	for _, prec := range []core.Precision{core.PrecisionF64, core.PrecisionF32} {
		prec := prec
		b.Run(string(prec), func(b *testing.B) {
			spec := core.DefaultStackSpec()
			spec.Precision = prec
			e, err := engine.New(env.Framework, engine.Config{Shards: 2, Stack: spec}, nil)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			sent := 0
			for n := 0; sent < b.N; n++ {
				// The engine owns a submitted burst: a fresh slice each time.
				burst := make([]*dataset.Package, min(width, b.N-sent))
				for i := range burst {
					burst[i] = test[(sent+i)%len(test)]
				}
				if err := e.SubmitBatchFor(nil, streams[n%len(streams)], burst); err != nil {
					b.Fatal(err)
				}
				sent += len(burst)
			}
			finishEngineBench(b, e)
		})
	}
}

// ---- Substrate micro-benches -------------------------------------------------

func BenchmarkBloomInsert(b *testing.B) {
	f, err := bloom.NewWithEstimates(uint64(b.N)+1, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AddString(fmt.Sprintf("sig:%d", i))
	}
}

func BenchmarkBloomLookup(b *testing.B) {
	f, err := bloom.NewWithEstimates(10000, 0.01)
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]string, 10000)
	for i := range keys {
		keys[i] = fmt.Sprintf("sig:%d", i)
		f.AddString(keys[i])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ContainsString(keys[i%len(keys)])
	}
}

func BenchmarkSignatureEncode(b *testing.B) {
	env := benchEnvironment(b)
	enc := env.Framework.Encoder
	pkgs := env.Split.Test
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prev := pkgs[i%(len(pkgs)-1)]
		cur := pkgs[i%(len(pkgs)-1)+1]
		c := enc.Encode(prev, cur)
		_ = signature.Signature(c)
	}
}

func BenchmarkLSTMStepForward(b *testing.B) {
	env := benchEnvironment(b)
	model := env.Framework.Series.Model
	state := model.NewState()
	probs := make([]float64, model.Classes())
	x := make([]float64, model.InputSize())
	x[0], x[5] = 1, 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		model.Step(state, x, probs)
	}
}

func BenchmarkGeneratorThroughput(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(4000, uint64(i)+1))
		if err != nil {
			b.Fatal(err)
		}
		if ds.Len() < 4000 {
			b.Fatal("short dataset")
		}
	}
}

// ---- Ablation benches --------------------------------------------------------

// evaluateLevels scores the test split through the stack the -levels list
// names under first-hit fusion.
func evaluateLevels(b *testing.B, fw *core.Framework, test []*dataset.Package, levels string) *core.Evaluation {
	b.Helper()
	spec, err := core.ParseStackSpec(levels, "")
	if err != nil {
		b.Fatal(err)
	}
	eval, err := fw.Evaluate(test, spec)
	if err != nil {
		b.Fatal(err)
	}
	return eval
}

// BenchmarkAblationNoise compares test F1 with and without probabilistic
// noise training (paper Figs. 6-7).
func BenchmarkAblationNoise(b *testing.B) {
	env := benchEnvironment(b)
	var with, without *core.Evaluation
	for i := 0; i < b.N; i++ {
		with = evaluateLevels(b, env.Framework, env.Split.Test, "bloom,lstm")
		without = evaluateLevels(b, env.Plain, env.Split.Test, "bloom,lstm")
	}
	b.ReportMetric(with.Summary.F1, "f1/noise")
	b.ReportMetric(without.Summary.F1, "f1/plain")
}

// BenchmarkAblationLevels compares the combined framework against each
// level alone (the justification for combining them, §VI).
func BenchmarkAblationLevels(b *testing.B) {
	env := benchEnvironment(b)
	var comb, pkg, ser *core.Evaluation
	for i := 0; i < b.N; i++ {
		comb = evaluateLevels(b, env.Framework, env.Split.Test, "bloom,lstm")
		pkg = evaluateLevels(b, env.Framework, env.Split.Test, "bloom")
		ser = evaluateLevels(b, env.Framework, env.Split.Test, "lstm")
	}
	b.ReportMetric(comb.Summary.F1, "f1/combined")
	b.ReportMetric(pkg.Summary.F1, "f1/package")
	b.ReportMetric(ser.Summary.F1, "f1/series")
}

// BenchmarkAblationBloomVsMap compares the Bloom filter signature store
// against an exact hash set: lookup latency and memory (the trade §IV-C
// motivates).
func BenchmarkAblationBloomVsMap(b *testing.B) {
	env := benchEnvironment(b)
	db := env.Framework.DB
	exact := make(map[string]struct{}, db.Size())
	for _, s := range db.List {
		exact[s] = struct{}{}
	}
	filter := env.Framework.Package.Filter

	b.Run("bloom", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			filter.ContainsString(db.List[i%len(db.List)])
		}
		b.ReportMetric(float64(filter.SizeBytes()), "bytes")
	})
	b.Run("map", func(b *testing.B) {
		var mapBytes int
		for _, s := range db.List {
			mapBytes += len(s) + 16
		}
		for i := 0; i < b.N; i++ {
			_, ok := exact[db.List[i%len(db.List)]]
			if !ok {
				b.Fatal("missing")
			}
		}
		b.ReportMetric(float64(mapBytes), "bytes")
	})
}

// BenchmarkAblationDepth compares stacked depths 1 and 2 at equal budget
// (why the paper stacks two LSTM layers).
func BenchmarkAblationDepth(b *testing.B) {
	env := benchEnvironment(b)
	fw := env.Framework
	seqs := core.BuildSequences(fw.Encoder, fw.Input, fw.DB, env.Split.Train, nil)
	train := func(hidden []int) float64 {
		model, err := nn.NewClassifier(fw.Input.Dim, hidden, fw.DB.Size(), 1)
		if err != nil {
			b.Fatal(err)
		}
		loss, err := nn.Train(model, seqs, nn.TrainConfig{
			Epochs: 3, Window: 32, BatchSize: 8, LR: 2e-3, ClipNorm: 5, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		det := &core.TimeSeriesDetector{Model: model, K: 4}
		ranks := det.TopKRanks(fw.Encoder, fw.Input, fw.DB, env.Split.Validation)
		miss := 0
		for _, r := range ranks {
			if r >= 4 {
				miss++
			}
		}
		_ = loss
		return float64(miss) / float64(len(ranks))
	}
	var e1, e2 float64
	for i := 0; i < b.N; i++ {
		e1 = train([]int{45}) // ≈ parameter count of 2×32
		e2 = train([]int{32, 32})
	}
	b.ReportMetric(e1, "err4/depth1")
	b.ReportMetric(e2, "err4/depth2")
}

// BenchmarkAblationDynamicK compares the fixed trained k against the
// adaptive-k controller (the paper's §IX future-work extension).
func BenchmarkAblationDynamicK(b *testing.B) {
	env := benchEnvironment(b)
	var fixedF1, dynF1 float64
	for i := 0; i < b.N; i++ {
		fixedF1 = evaluateLevels(b, env.Framework, env.Split.Test, "bloom,lstm").Summary.F1
		dynF1 = evaluateLevels(b, env.Framework, env.Split.Test, "bloom,lstm-dynamic").Summary.F1
	}
	b.ReportMetric(fixedF1, "f1/fixedK")
	b.ReportMetric(dynF1, "f1/dynamicK")
}

// ---- Trace replay throughput -----------------------------------------------

// replayBenchEnv builds the replay benchmark fixture once: the committed
// corpus model plus an in-memory recorded trace of benchReplayCycles poll
// cycles (mixed normal + attack traffic).
var (
	replayOnce   sync.Once
	replayFW     *core.Framework
	replayHeader trace.Header
	replayRecs   []*trace.Record
	replayErr    error
)

const benchReplayCycles = 1000

// benchReplayScript drives the scenario both the recorded-trace and the
// live-simulation variants of the benchmark replay: routine polling with
// periodic attack episodes.
func benchReplayScript(sim *gaspipeline.Simulator) {
	for c := 0; c < benchReplayCycles/10; c++ {
		for i := 0; i < 8; i++ {
			sim.RunNormalCycle(dataset.Normal)
		}
		switch c % 4 {
		case 0:
			sim.RunNMRIEpisode(1)
		case 1:
			sim.RunMPCIEpisode(1)
		case 2:
			sim.RunDoSEpisode(1)
		case 3:
			sim.RunReconEpisode(3)
		}
	}
}

func replayBenchEnv(b *testing.B) (*core.Framework, trace.Header, []*trace.Record) {
	b.Helper()
	replayOnce.Do(func() {
		f, err := os.Open("testdata/traces/model.fw")
		if err != nil {
			replayErr = err
			return
		}
		defer f.Close()
		if replayFW, replayErr = core.Load(f); replayErr != nil {
			return
		}
		cfg := gaspipeline.DefaultSimConfig()
		cfg.Seed = 77
		sim, err := gaspipeline.NewSimulator(cfg)
		if err != nil {
			replayErr = err
			return
		}
		var buf bytes.Buffer
		rec, err := trace.NewRecorder(&buf, trace.SimHeader("bench", "", gaspipeline.Registers()))
		if err != nil {
			replayErr = err
			return
		}
		sim.SetFrameSink(rec.RecordSim)
		benchReplayScript(sim)
		if replayErr = rec.Flush(); replayErr != nil {
			return
		}
		replayHeader, replayRecs, replayErr = trace.ReadAll(bytes.NewReader(buf.Bytes()))
	})
	if replayErr != nil {
		b.Fatalf("build replay bench fixture: %v", replayErr)
	}
	return replayFW, replayHeader, replayRecs
}

// BenchmarkReplayThroughput compares the recorded-trace workload against
// the live-simulation path on identical traffic: "replay" decodes wire
// frames from an in-memory trace and classifies them (sequential session or
// batched engine), "live" runs the gas-pipeline simulator and classifies
// its packages as they are produced. The trace acceptance bar is replay ≥
// live: a recorded corpus must never be slower to evaluate than
// re-simulating the scenario.
func BenchmarkReplayThroughput(b *testing.B) {
	fw, header, recs := replayBenchEnv(b)

	b.Run("replay/session", func(b *testing.B) {
		var pkgs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := trace.Replay(fw, header, recs, trace.ReplayConfig{})
			if err != nil {
				b.Fatal(err)
			}
			pkgs = len(res.Verdicts)
		}
		b.ReportMetric(float64(pkgs)*float64(b.N)/b.Elapsed().Seconds(), "pkg/s")
	})

	b.Run("replay/engine", func(b *testing.B) {
		var pkgs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := trace.Replay(fw, header, recs, trace.ReplayConfig{
				Engine: &engine.Config{Shards: 1, MaxBatch: 64},
			})
			if err != nil {
				b.Fatal(err)
			}
			pkgs = len(res.Verdicts)
		}
		b.ReportMetric(float64(pkgs)*float64(b.N)/b.Elapsed().Seconds(), "pkg/s")
	})

	b.Run("live/session", func(b *testing.B) {
		var pkgs int
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cfg := gaspipeline.DefaultSimConfig()
			cfg.Seed = 77
			sim, err := gaspipeline.NewSimulator(cfg)
			if err != nil {
				b.Fatal(err)
			}
			sess := fw.NewSession()
			n := 0
			sim.SetFrameSink(func(gaspipeline.Frame) { n++ })
			benchReplayScript(sim)
			for _, p := range sim.Packages() {
				_ = sess.Classify(p)
			}
			pkgs = n
		}
		b.ReportMetric(float64(pkgs)*float64(b.N)/b.Elapsed().Seconds(), "pkg/s")
	})
}
