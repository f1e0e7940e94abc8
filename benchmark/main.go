// Command benchmark is the repository's one wire-to-verdict benchmark: five
// named workloads, each with a closed-loop flood half (throughput) and an
// open-loop paced half (latency from each package's due time), checked
// against a sequential core.Session reference, plus a traced run that
// decomposes the same paths layer by layer. BENCHMARK.json at the
// repository root names its workloads and metrics; README.md in this
// directory explains them.
//
// Usage (from the repository root):
//
//	go run ./benchmark                        # every workload, untraced then traced
//	go run ./benchmark -workload serve-live-bloom -trace 0 -seed 2
//	go run ./benchmark -trace 0 -repeat 5     # five runs each, for a comparison that holds
//	go run ./benchmark -compare old.json new.json
//
// The last line printed for each run is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"icsdetect/internal/mathx"
	"icsdetect/internal/scenario"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one.
type result struct {
	Workload   string            `json:"workload"`
	Traced     bool              `json:"traced"`
	Correct    bool              `json:"correct"`
	Attempted  uint64            `json:"attempted"`
	Failed     uint64            `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
	Counts     map[string]uint64 `json:"counts"`
	Notes      []string          `json:"notes,omitempty"`
	Violations []string          `json:"violations,omitempty"`
}

// environment stamps a result file with where its numbers came from.
type environment struct {
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	SIMDTier   string  `json:"simd_tier"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

// document is benchmark/out/result.json.
type document struct {
	Environment environment `json:"environment"`
	Results     []result    `json:"results"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all five)")
		seed     = fs.Uint64("seed", 1, "traffic generator seed; the same seed gives the same inputs")
		seconds  = fs.Float64("seconds", runSeconds, "measuring time per run the package counts are sized for")
		traceArg = fs.String("trace", "both", "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics; both")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
		descr    = fs.Bool("describe", false, "print the BENCHMARK.json this program implements and exit")
		repeat   = fs.Int("repeat", 1, "run every selected workload this many times; -compare takes the median of a file's runs")
		testdata = fs.String("testdata", "testdata/traces", "committed corpus directory holding model.fw")
		outDir   = fs.String("out", "benchmark/out", "directory for result.json and spans-<workload>.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *descr {
		b, err := json.MarshalIndent(describe(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(b))
		return nil
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	if *seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	var modes []bool
	switch *traceArg {
	case "0", "false":
		modes = []bool{false}
	case "1", "true":
		modes = []bool{true}
	case "both":
		modes = []bool{false, true}
	default:
		return fmt.Errorf("-trace takes 0, 1 or both")
	}
	selected := workloads
	if *name != "" {
		selected = nil
		for _, w := range workloads {
			if w.Name == *name {
				selected = []workload{w}
			}
		}
		if selected == nil {
			return fmt.Errorf("unknown workload %q", *name)
		}
	}

	// One process, at most four cores: the load shape is fixed, so the
	// numbers of two machines differ by the machine, not by the benchmark.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	opt := options{seed: *seed, seconds: *seconds, setups: 3, testdata: *testdata, outDir: *outDir}
	doc := document{Environment: stamp(opt)}
	failed := false
	for i := 0; i < *repeat; i++ {
		for _, w := range selected {
			for _, traced := range modes {
				res, err := runWorkload(w, opt, traced)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				doc.Results = append(doc.Results, *res)
				printResult(res)
				failed = failed || !res.Correct
			}
		}
	}
	if *outDir != "" {
		if err := writeJSON(filepath.Join(*outDir, "result.json"), doc); err != nil {
			return err
		}
	}
	if failed {
		return fmt.Errorf("outputs are not correct")
	}
	return nil
}

// runWorkload runs one workload once, traced or not, and collects the
// metrics BENCHMARK.json names for that kind of run.
func runWorkload(w workload, opt options, traced bool) (*result, error) {
	tb, err := scenario.Get("gaspipeline")
	if err != nil {
		return nil, err
	}
	rc := &runCtx{opt: opt, traced: traced, tb: tb,
		values: make(map[string]float64), counts: make(map[string]uint64)}
	if traced {
		rc.opt.setups = 1
		rc.clock = int64(clockCost())
	}
	if err := w.run(rc); err != nil {
		return nil, err
	}
	res := &result{
		Workload: w.Name, Traced: traced,
		Correct:   len(rc.tally.violations) == 0,
		Attempted: rc.tally.attempted, Failed: rc.tally.failed,
		Metrics: make(map[string]metric), Counts: rc.counts,
		Notes: rc.notes, Violations: rc.tally.violations,
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := rc.values[d.Name]
		if !ok && !traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	if res.Attempted == 0 {
		return nil, fmt.Errorf("nothing was attempted")
	}
	if traced && opt.outDir != "" {
		if err := rc.spans.write(opt.outDir, w.Name); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// printResult prints a run for people, then the one JSON line the driver
// reads.
func printResult(res *result) {
	kind, defs := "end-to-end, untraced", endToEnd
	if res.Traced {
		kind, defs = "per-layer, traced", perLayer
	}
	fmt.Printf("== %s (%s)\n", res.Workload, kind)
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Printf("%-34s %16.4f %s\n", d.Name, m.Value, m.Unit)
	}
	fmt.Printf("%-34s %16.6f (%d of %d packages)\n", "failed_share",
		float64(res.Failed)/float64(res.Attempted), res.Failed, res.Attempted)
	fmt.Printf("counts: %s\n", strings.Join(sortedCounts(res.Counts), " "))
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	fmt.Println(string(line))
}

// runSeconds is the run length BENCHMARK.json asks the driver for, and the
// one the package counts are sized to.
const runSeconds = 10

// describe is the content of the root BENCHMARK.json, built from the
// program's own tables so the two cannot drift apart.
func describe() map[string]any {
	type named struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layered struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var ws []named
	for _, w := range workloads {
		ws = append(ws, named{w.Name, w.Why})
	}
	var e2e []bounded
	for _, d := range endToEnd {
		e2e = append(e2e, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	var layers []layered
	for _, d := range perLayer {
		layers = append(layers, layered{d.Name, d.Unit, d.Better})
	}
	return map[string]any{
		"command":     []string{"bash", "benchmark/run.sh"},
		"paths":       []string{"benchmark"},
		"run_seconds": runSeconds,
		"workloads":   ws,
		"end_to_end":  e2e,
		"per_layer":   layers,
	}
}

// stamp records the environment the numbers come from.
func stamp(opt options) environment {
	env := environment{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: "unknown", SIMDTier: mathx.SIMDTier(),
		Seed: opt.seed, Seconds: opt.seconds,
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				env.GitSHA = s.Value
			}
		}
	}
	if env.GitSHA == "unknown" {
		// `go run` does not stamp VCS data; outside a git checkout this
		// fails and the stamp stays unknown.
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			env.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return env
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
