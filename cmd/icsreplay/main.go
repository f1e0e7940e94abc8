// Command icsreplay records and replays deterministic traffic traces
// against the anomaly detection framework.
//
// Replay a recorded trace through a trained model, as fast as possible
// (throughput mode) or on the trace's own timeline (latency mode):
//
//	icsreplay -trace testdata/traces/dos.trace -model testdata/traces/model.fw
//	icsreplay -trace dos.trace -model model.fw -timed -speed 10
//	icsreplay -trace dos.trace -model model.fw -engine -shards 4
//	icsreplay -trace dos.trace -model model.fw -levels bloom,pca,lstm -fusion majority
//
// Verify a replay against a committed golden verdict file, or write a new
// one:
//
//	icsreplay -trace dos.trace -model model.fw -verify dos.verdicts
//	icsreplay -trace dos.trace -model model.fw -verdicts /tmp/dos.verdicts
//
// Rebuild a golden conformance corpus (model, traces, verdict files, fuzz
// seed frames) for a testbed scenario:
//
//	icsreplay -record testdata/traces -fuzzseeds internal/modbus/testdata/frames
//	icsreplay -record testdata/traces/watertank -scenario watertank \
//	          -fuzzseeds internal/modbus/testdata/frames
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"icsdetect/internal/cli"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/scenario"
	"icsdetect/internal/trace"

	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsreplay:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		recordDir = flag.String("record", "", "build the golden corpus into this directory")
		scName    = flag.String("scenario", scenario.Default, "with -record: testbed scenario to build the corpus for ("+strings.Join(scenario.Names(), ", ")+")")
		fuzzSeeds = flag.String("fuzzseeds", "", "with -record: also write fuzz seed frames here")
		trainN    = flag.Int("train", 16000, "with -record: training capture size in packages")
		seed      = flag.Uint64("seed", 1, "with -record: corpus seed")

		tracePath = flag.String("trace", "", "trace file to replay")
		modelPath = flag.String("model", "", "trained model to replay against")
		useEngine = flag.Bool("engine", false, "replay through the batched multi-stream engine")
		shards    = flag.Int("shards", 0, "engine shards (0 = GOMAXPROCS)")
		timed     = flag.Bool("timed", false, "latency mode: replay on the trace's own timeline")
		speed     = flag.Float64("speed", 1, "timeline scale for -timed (2 = twice as fast)")
		verify    = flag.String("verify", "", "golden verdict file to compare against (exit 1 on drift)")
		verdicts  = flag.String("verdicts", "", "write the replay's verdicts to this golden file")
	)
	stack := cli.StackFlags(flag.CommandLine)
	flag.Parse()
	if stack.List(os.Stdout) {
		return nil
	}

	if *recordDir != "" {
		sc, err := scenario.Get(*scName)
		if err != nil {
			return err
		}
		return record(sc, *recordDir, *fuzzSeeds, *trainN, *seed)
	}
	if *tracePath == "" || *modelPath == "" {
		return fmt.Errorf("either -record DIR, or -trace FILE with -model FILE, is required")
	}

	spec, err := stack.Spec()
	if err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	fw, err := core.Load(f)
	f.Close()
	if err != nil {
		return err
	}
	if err := cli.RequireTrained(fw, spec); err != nil {
		return err
	}

	tf, err := os.Open(*tracePath)
	if err != nil {
		return err
	}
	header, recs, err := trace.ReadAll(tf)
	tf.Close()
	if err != nil {
		return err
	}
	if header.Fingerprint != "" && header.Fingerprint != fw.Fingerprint() {
		fmt.Printf("warning: trace was recorded for model %s, replaying against %s\n",
			header.Fingerprint, fw.Fingerprint())
	}

	cfg := trace.ReplayConfig{Stack: spec, Timed: *timed, Speed: *speed}
	if *useEngine {
		cfg.Engine = &engine.Config{Shards: *shards}
	}
	res, err := trace.Replay(fw, header, recs, cfg)
	if err != nil {
		return err
	}
	report(res, header)

	if *verdicts != "" {
		out := trace.FormatVerdicts(header.Scenario, header.Fingerprint, res.Verdicts)
		if err := os.WriteFile(*verdicts, out, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *verdicts)
	}
	if *verify != "" {
		golden, err := os.ReadFile(*verify)
		if err != nil {
			return err
		}
		got := trace.FormatVerdicts(header.Scenario, header.Fingerprint, res.Verdicts)
		if line := trace.DiffVerdicts(golden, got); line != 0 {
			return fmt.Errorf("verdicts drifted from %s at line %d", *verify, line)
		}
		fmt.Printf("verdicts identical to %s\n", *verify)
	}
	return nil
}

func report(res *trace.Result, h trace.Header) {
	fmt.Printf("scenario %s (%s, %d packages, %.1fs of recorded traffic)\n",
		res.Scenario, h.Format, len(res.Verdicts), res.TraceSeconds)
	fmt.Printf("replayed in %v (%.0f pkg/s)\n", res.Wall.Round(time.Microsecond), res.PerSecond())
	fmt.Printf("verdicts: %v\n", res.Summary)
	var parts []string
	detected := 0
	for l := core.Level(1); l < core.NumLevels; l++ {
		if n := res.ByLevel[l]; n > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", l, n))
			detected += n
		}
	}
	parts = append(parts, fmt.Sprintf("clean=%d", len(res.Verdicts)-detected))
	fmt.Printf("levels: %s\n", strings.Join(parts, " "))

	types := make([]dataset.AttackType, 0, len(res.Latency.Episodes))
	for at := range res.Latency.Episodes {
		types = append(types, at)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, at := range types {
		fmt.Printf("%-6v ratio=%.2f episodes=%d/%d detection latency mean=%.3fs max=%.3fs\n",
			at, res.PerAttack.Ratio(at),
			res.Latency.Detected[at], res.Latency.Episodes[at],
			res.Latency.MeanLatency(at), res.Latency.MaxSeconds[at])
	}
}

func record(sc scenario.Scenario, dir, fuzzDir string, trainN int, seed uint64) error {
	start := time.Now()
	fmt.Printf("building %s golden corpus in %s (training on %d packages)...\n", sc.Name(), dir, trainN)
	// The gas pipeline keeps the historical "corpus" fuzz seed prefix;
	// other testbeds use their name so corpora can't clobber each other's
	// seeds.
	prefix := "corpus"
	if sc.Name() != scenario.Default {
		prefix = sc.Name()
	}
	rep, err := trace.BuildCorpus(trace.CorpusConfig{
		Scenario: sc, Dir: dir, FrameSeedDir: fuzzDir, SeedPrefix: prefix,
		TrainPackages: trainN, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("model fingerprint %s\n", rep.Fingerprint)
	for _, res := range rep.Results {
		fmt.Printf("  %-7s %4d packages  %v\n", res.Scenario, len(res.Verdicts), res.Summary)
	}
	if rep.FrameSeeds > 0 {
		fmt.Printf("wrote %d fuzz seed frames to %s\n", rep.FrameSeeds, fuzzDir)
	}
	fmt.Printf("done in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}
