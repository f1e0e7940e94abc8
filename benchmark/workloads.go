package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"icsdetect/internal/core"
	"icsdetect/internal/scenario"

	// The all-levels stack resolves its stage kinds through these
	// registries; the gas pipeline registers the traffic generator.
	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/recon"
)

// metricDef names one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before the
// comparator (and the driver) calls it a regression; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics a user of the system would see, reported by
// every workload from its untraced phases. failed_share is carried by the
// result's attempted/failed counts instead of a metric, because it is 0
// at the seed and a relative bound on 0 means nothing.
//
// The bounds are three times the spread (quartile distance over median of
// ten runs, each with another seed) the noisiest workload showed on the
// 2-core shared box in its noisier hours; README.md has the table. The 90th
// percentile's spread reached 31 % there, beyond any bound the driver
// accepts, so latency_p90_ms is reported with the per-layer metrics.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_pps", "1/s", "higher", 0.20},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"cpu_ns_per_pkg", "ns", "lower", 0.25},
	{"state_heap_kb", "KB", "lower", 0.10},
}

// stageKinds are the detection levels a workload's stack may hold; each
// gets a check and an advance span in the layer walk.
var stageKinds = []string{"bloom", "lstm", "bf4", "pca", "gmm", "iforest", "bayesnet", "svdd", "ae"}

// perLayer are the single-layer metrics of the traced run. A layer that
// does no work in a workload reports 0 there — that absence is the
// interaction prediction (nn.* on serve-live-bloom, serve.* on engine-*).
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{Name: "latency_p90_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.late_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "loadgen.late_p99_ms", Unit: "ms", Better: "lower"},
		{Name: "modbus.read_tcp_frame_ns", Unit: "ns", Better: "lower"},
		{Name: "tap.decode_pdu_ns", Unit: "ns", Better: "lower"},
		{Name: "modbus.decode_rtu_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.read_ns", Unit: "ns", Better: "lower"},
		{Name: "trace.decode_ns", Unit: "ns", Better: "lower"},
		{Name: "signature.encode_ns", Unit: "ns", Better: "lower"},
		{Name: "signature.intern_ns", Unit: "ns", Better: "lower"},
		{Name: "signature.unknown_share", Unit: "share", Better: "lower"},
		{Name: "bloom.contains_ns", Unit: "ns", Better: "lower"},
		{Name: "core.classify_ns", Unit: "ns", Better: "lower"},
		{Name: "core.advance_ns", Unit: "ns", Better: "lower"},
		{Name: "core.self_ns", Unit: "ns", Better: "lower"},
		{Name: "core.anomaly_share", Unit: "share", Better: "lower"},
		{Name: "core.seq_pps", Unit: "1/s", Better: "higher"},
	}
	for _, k := range stageKinds {
		defs = append(defs,
			metricDef{Name: "core.stage." + k + ".check_ns", Unit: "ns", Better: "lower"},
			metricDef{Name: "core.stage." + k + ".advance_ns", Unit: "ns", Better: "lower"})
	}
	return append(defs,
		metricDef{Name: "nn.step_onehot_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "nn.step_batch8_onehot_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "mathx.act_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "engine.admit_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "engine.admit_block_share", Unit: "share", Better: "lower"},
		metricDef{Name: "engine.queue_classify_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "engine.queue_classify_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "engine.advance_batch_width", Unit: "count", Better: "higher"},
		metricDef{Name: "engine.check_batch_width", Unit: "count", Better: "higher"},
		metricDef{Name: "engine.pps_1shard", Unit: "1/s", Better: "higher"},
		metricDef{Name: "engine.speedup_vs_seq", Unit: "ratio", Better: "higher"},
		metricDef{Name: "serve.ingest_engine_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.ingest_engine_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.publish_p50_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.publish_p99_us", Unit: "us", Better: "lower"},
		metricDef{Name: "serve.ingest_burst", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.publish_batch", Unit: "count", Better: "higher"},
		metricDef{Name: "serve.ingest_bytes_per_pkg", Unit: "B", Better: "lower"},
		metricDef{Name: "serve.shed", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.subscriber_drops", Unit: "count", Better: "lower"},
		metricDef{Name: "serve.client_next_ns", Unit: "ns", Better: "lower"},
		metricDef{Name: "serve.latency_p99_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "serve.latency_p999_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "runtime.allocs_per_pkg", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.alloc_bytes_per_pkg", Unit: "B", Better: "lower"},
		metricDef{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
		metricDef{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
		metricDef{Name: "trace_overhead_share", Unit: "share", Better: "lower"},
	)
}

// workload is one named set of inputs and the path they take through the
// program.
type workload struct {
	Name string
	Why  string
	run  func(rc *runCtx) error
}

// workloads is the fixed list BENCHMARK.json names. The load shape of each
// is a set of constants in its own file; none scales with the machine.
var workloads = []workload{
	{"serve-replay-default",
		"the daemon as deployed: replay ingest to bloom,lstm f64 over 2 streams; nn does most of the work, engine micro-batching is bypassed",
		runServeReplay},
	{"serve-live-bloom",
		"the same daemon fed live MBAP frames into bloom only: modbus, tap, signature, bloom, serve and hub do all the work, nn none",
		runServeLive},
	{"engine-fanin-f32",
		"256 in-process streams at f32: cross-stream micro-batching is exercised, no sockets or decoders run",
		runEngineFanin},
	{"engine-wide-f64",
		"the paper's 2x256 LSTM trained in set-up, 32 streams: weights exceed L2, the memory-bound regime where batching must pay",
		runEngineWide},
	{"offline-all-levels",
		"single-goroutine capture-to-verdict over all nine levels with majority fusion: baselines, recon and fusion dominate",
		runOffline},
}

// options are the knobs of one invocation.
type options struct {
	seed    uint64
	seconds float64
	// setups is how many times a run sets the program up; setup_s is their
	// median.
	setups int
	// testdata holds the committed corpus model the model-loading
	// workloads serve.
	testdata string
	// outDir receives spans-<workload>.json; empty writes nothing.
	outDir string
	// corruptReference flips a bit of every reference hash — the smoke
	// test's proof that the correctness check can fail.
	corruptReference bool
}

// runCtx is one run of one workload, traced or untraced.
type runCtx struct {
	opt    options
	traced bool
	tb     scenario.Scenario
	// values holds the metrics the run measured, by name.
	values map[string]float64
	tally  tally
	// counts is the per-phase package counts of the environment stamp.
	counts map[string]uint64
	notes  []string
	spans  spanLog
	clock  int64 // calibrated cost of one clock-read pair, ns
	// heapBefore and weighed belong to weigh.
	heapBefore uint64
	weighed    bool
}

func (rc *runCtx) set(name string, v float64) { rc.values[name] = v }

func (rc *runCtx) note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// scaled sizes a count that the constants give for a run of runSeconds to
// the run length asked for, keeping it a positive multiple of unit.
func (rc *runCtx) scaled(count, unit int) int {
	n := int(math.Round(float64(count) * rc.opt.seconds / runSeconds))
	n -= n % unit
	if n < unit {
		n = unit
	}
	return n
}

// corpusModel loads the committed gas-pipeline corpus model.
func (rc *runCtx) corpusModel() (*core.Framework, error) {
	path := filepath.Join(rc.opt.testdata, "model.fw")
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fw, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("load %s: %w", path, err)
	}
	return fw, nil
}

// setupMedian runs setup opt.setups times, tearing every instance but the
// last down again, and records the median duration as setup_s.
func setupMedian[T any](rc *runCtx, setup func() (T, error), teardown func(T) error) (T, error) {
	var last T
	var took []float64
	for i := 0; i < rc.opt.setups; i++ {
		start := monoNow()
		v, err := setup()
		if err != nil {
			return last, fmt.Errorf("set-up: %w", err)
		}
		took = append(took, float64(monoNow()-start)/1e9)
		if i < rc.opt.setups-1 {
			if err := teardown(v); err != nil {
				return last, fmt.Errorf("tear-down: %w", err)
			}
			continue
		}
		last = v
	}
	rc.set("setup_s", medianFloat(took))
	return last, nil
}

// weigh records state_heap_kb: HeapAlloc after a forced collection of a
// freshly set-up instance — model loaded or trained, engine, server or
// session built, every stream of the workload bound by a first short
// exchange — minus the reading heapBaseline took before any of it existed.
// Every set-up calls it at that point; only an untraced run's first call
// weighs. A fresh instance, because after a flood the program's reusable
// buffers hold stale package references whose extent follows the
// scheduler, not the code: the same commit then weighs anything from 1.5
// to 8.5 MB.
func (rc *runCtx) weigh() {
	if rc.traced || rc.weighed {
		return
	}
	rc.weighed = true
	rc.set("state_heap_kb", float64(heapAfterGC()-rc.heapBefore)/1024)

}

// heapBaseline takes the reading weigh subtracts. Call it once the inputs
// exist and before the first set-up.
func (rc *runCtx) heapBaseline() { rc.heapBefore = heapAfterGC() }

// latencyMetrics records the percentiles of a paced phase's latency
// samples (ns, in arrival order): the two end-to-end ones as medians over
// time slices, and in a traced run the whole phase's tail percentiles,
// which are too noisy to gate on.
func (rc *runCtx) latencyMetrics(lat []int64) {
	rc.set("latency_p50_ms", windowQuantiles(lat, 0.50)/1e6)
	rc.set("latency_p90_ms", windowQuantiles(lat, 0.90)/1e6)
	sortInt64(lat)
	rc.set("serve.latency_p99_ms", quantile(lat, 0.99)/1e6)
	rc.set("serve.latency_p999_ms", quantile(lat, 0.999)/1e6)
	rc.counts["latency_samples"] = uint64(len(lat))
}

// lateMetrics records how late the senders of a paced phase woke. A phase
// whose median lateness exceeds a tick measured the generator, not the
// program, and is reported invalid.
func (rc *runCtx) lateMetrics(phase string, pacers ...*pacer) {
	var late []int64
	for _, p := range pacers {
		late = append(late, p.late...)
	}
	sortInt64(late)
	p50 := quantile(late, 0.50) / 1e6
	rc.set("loadgen.late_p50_ms", p50)
	rc.set("loadgen.late_p99_ms", quantile(late, 0.99)/1e6)
	if p50 > float64(tickEvery)/1e6 {
		rc.note("INVALID: %s senders ran %.2f ms late at the median; the paced latencies measure the generator", phase, p50)
	}
}

// memMetrics records allocator and collector activity per package.
func (rc *runCtx) memMetrics(d memDelta, pkgs int) {
	rc.set("runtime.allocs_per_pkg", float64(d.mallocs)/float64(pkgs))
	rc.set("runtime.alloc_bytes_per_pkg", float64(d.bytes)/float64(pkgs))
	rc.set("runtime.gc_cycles", float64(d.gcCycles))
	rc.set("runtime.gc_pause_ms", float64(d.gcPause)/1e6)
}

// sortedCounts returns the run's counts as "name=value" strings in name
// order, for the human-readable output.
func sortedCounts(counts map[string]uint64) []string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return out
}
