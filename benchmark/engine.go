package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/signature"
)

// engineShape is the fixed load shape of an in-process engine workload,
// per 10 seconds of measuring: half flood, half paced.
type engineShape struct {
	streams, lanes int
	precision      string
	// burst is the packages per SubmitBatchFor; one goroutine deals bursts
	// round-robin over the streams, so streams advance in lock-step and
	// the shard workers find work of many streams in every tick.
	burst int
	// floodPackages is the size of the closed-loop half (blocking
	// admission); tickBursts bursts of tickBurst packages per 1 ms tick is
	// the open-loop half's rate, about 30 % of what the flood sustains at
	// the seed commit.
	floodPackages         int
	tickBursts, tickBurst int
	// walk is how many packages the traced run's layer walk covers.
	walk int
	// train, when set, builds the model in set-up instead of loading the
	// corpus model.
	train func(rc *runCtx, split *dataset.Split) (*core.Framework, error)
}

const engineShards = 2

// fanin: 256 streams of the corpus model at f32; 25 bursts of 8 per tick
// is 200k pkg/s.
var faninShape = engineShape{
	streams: 256, lanes: 4, precision: "f32", burst: 8,
	floodPackages: 3900000, tickBursts: 25, tickBurst: 8, walk: walkPackages,
}

// wide: 32 streams of the paper's 2x256 model at f64; 6 single-package
// bursts per tick is 6k pkg/s, spread over streams so that the paced half
// still has something to batch.
var wideShape = engineShape{
	streams: 32, lanes: 2, precision: "f64", burst: 8,
	floodPackages: 115000, tickBursts: 6, tickBurst: 1, walk: 8192,
	train: trainWide,
}

// wideTrainPackages is the attack-free capture the wide model trains on in
// set-up; one epoch keeps set-up near 2 s, so it can be repeated.
// minTrainPackages is the least a scaled-down run still trains on.
const (
	wideTrainPackages = 4000
	minTrainPackages  = 800
)

func trainWide(rc *runCtx, split *dataset.Split) (*core.Framework, error) {
	cfg := core.DefaultConfig()
	cfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 8, SetpointBins: 5, PIDClusters: 4,
	}
	cfg.Hidden = []int{256, 256}
	cfg.Fit.Epochs = 1
	cfg.Seed = 1
	fw, _, err := core.Train(split, cfg)
	return fw, err
}

// trainingSeed generates the capture the training set-ups fit on. It does
// not follow -seed: the model is part of the workload, like the committed
// corpus model of the loading workloads; the seed varies the traffic.
const trainingSeed = 20170626

// trainingSplit generates the attack-free capture the training set-ups fit
// on, decoded from wire bytes like everything else the program sees.
func trainingSplit(rc *runCtx, packages int) (*dataset.Split, error) {
	ln, err := genLane(rc.tb, trainingSeed, packages, false)
	if err != nil {
		return nil, err
	}
	return dataset.MakeSplit(&dataset.Dataset{Packages: ln.pkgs}, dataset.SplitConfig{})
}

// engineRig is an engine plus the consumer-side bookkeeping its Handler
// fills. Streams stay bound from the warm-up through the last phase, each
// continuing its lane where the previous phase stopped.
type engineRig struct {
	fw      *core.Framework
	eng     *engine.Engine
	shape   *engineShape
	names   []string
	lanes   []*lane
	streams []streamCheck
	// phase is the current phase's handler-side state; nil between phases.
	phase atomic.Pointer[enginePhase]
}

// enginePhase is what the Handler needs to know about the running phase.
// Each stream's slots are written by the one shard goroutine that serves
// the stream and read after the phase's Barrier.
type enginePhase struct {
	base  []uint64 // per stream: seq of the phase's first package
	burst int      // packages per SubmitBatchFor
	// Paced: burst g of the phase is due at startNs + (g/tickBursts) ticks.
	paced   bool
	startNs int64
	lat     [][]int64
	// Traced: handler time of each stream's sampled packages.
	seen [][]int64
}

func (r *engineRig) handle(res engine.Result) {
	i := streamIndex(res.Stream)
	r.streams[i].observe(res.Seq, &res.Verdict)
	p := r.phase.Load()
	if p == nil || res.Seq < p.base[i] {
		return
	}
	k := res.Seq - p.base[i]
	if p.paced {
		g := k/uint64(p.burst)*uint64(r.shape.streams) + uint64(i)
		due := p.startNs + int64(g/uint64(r.shape.tickBursts))*int64(tickEvery)
		p.lat[i] = append(p.lat[i], monoNow()-due)
	}
	if p.seen != nil && k%sampleEvery == 0 && k/sampleEvery < uint64(len(p.seen[i])) {
		p.seen[i][k/sampleEvery] = monoNow()
	}
}

// streamIndex recovers a stream's index from its name's three trailing
// digits — the Handler runs per package and a map lookup would be its
// largest cost.
func streamIndex(name string) int {
	n := len(name)
	return int(name[n-3]-'0')*100 + int(name[n-2]-'0')*10 + int(name[n-1]-'0')
}

func bootEngine(fw *core.Framework, shape *engineShape, lanes []*lane, shards int) (*engineRig, error) {
	spec, err := shape.spec()
	if err != nil {
		return nil, err
	}
	r := &engineRig{fw: fw, shape: shape, lanes: lanes,
		names: make([]string, shape.streams), streams: make([]streamCheck, shape.streams)}
	for i := range r.names {
		r.names[i] = streamName("s", i)
		r.streams[i].lane = i % shape.lanes
	}
	r.eng, err = engine.New(fw, engine.Config{Shards: shards, Stack: spec}, r.handle)
	return r, err
}

func (s *engineShape) spec() (core.StackSpec, error) {
	spec, err := core.ParseStackSpec("bloom,lstm", "first-hit")
	if err != nil {
		return spec, err
	}
	return spec.WithPrecision(s.precision)
}

// stop drains and stops the engine, returning a recovered handler panic.
func (r *engineRig) stop() error { return r.eng.Stop() }

// arm prepares every stream's check for a phase of per more packages and
// returns the phase state for the Handler.
func (r *engineRig) arm(per, burst int) *enginePhase {
	p := &enginePhase{base: make([]uint64, len(r.streams)), burst: burst}
	for i := range r.streams {
		s := &r.streams[i]
		p.base[i] = s.next
		s.base, s.want, s.refAt = s.next, uint64(per), s.next+uint64(per)
	}
	return p
}

// admitTimes is the traced pass's admission bookkeeping: when each burst
// entered SubmitBatchFor and how long the calls took in total.
type admitTimes struct {
	at, end []int64
	total   time.Duration
}

// submit deals bursts rounds×streams bursts round-robin, calling before
// ahead of each burst (the pacer hook) and timing admission when at is
// non-nil.
func (r *engineRig) submit(p *enginePhase, rounds int, before func(g int), at *admitTimes) error {
	burst := p.burst
	g := 0
	for round := 0; round < rounds; round++ {
		for i, name := range r.names {
			if before != nil {
				before(g)
			}
			from := int(p.base[i]) + round*burst
			pkgs := r.lanes[i%r.shape.lanes].pkgs[from : from+burst : from+burst]
			if at == nil {
				if err := r.eng.SubmitBatchFor(nil, name, pkgs); err != nil {
					return err
				}
			} else {
				start := monoNow()
				if err := r.eng.SubmitBatchFor(nil, name, pkgs); err != nil {
					return err
				}
				at.at[g], at.end[g] = start, monoNow()
				at.total += time.Duration(at.end[g] - start)
			}
			g++
		}
	}
	return nil
}

// floodResult is what a phase measured.
type floodResult struct {
	packages int
	marks    []mark
	wall     time.Duration
	streams  []streamCheck
	admit    *admitTimes
	phase    *enginePhase
}

// flood is the closed-loop half: per packages per stream as fast as
// blocking admission lets the one generator goroutine go, ended by a
// Barrier. The milestones read the engine's own classified count: the
// shard queues hold thousands of packages, so the generator's progress
// says little about the engine's. traced adds admission timing and handler
// stamps.
func (r *engineRig) flood(per int, traced bool) (*floodResult, error) {
	rounds := per / r.shape.burst
	bursts := rounds * r.shape.streams
	res := &floodResult{packages: per * r.shape.streams, marks: make([]mark, 0, windows+2)}
	p := r.arm(per, r.shape.burst)
	if traced {
		res.admit = &admitTimes{at: make([]int64, bursts), end: make([]int64, bursts)}
		p.seen = make([][]int64, len(r.streams))
		for i := range p.seen {
			p.seen[i] = make([]int64, per/sampleEvery+1)
		}
	}
	res.phase = p
	r.phase.Store(p)
	defer r.phase.Store(nil)
	slice := max(bursts/windows, 1)
	classified := r.eng.Stats().Packages
	mark := func() { res.marks = append(res.marks, markNow(r.eng.Stats().Packages-classified)) }
	mark()
	err := r.submit(p, rounds, func(g int) {
		if g > 0 && g%slice == 0 && len(res.marks) < windows {
			mark()
		}
	}, res.admit)
	if err == nil {
		err = r.eng.Barrier()
	}
	if err != nil {
		return nil, err
	}
	mark()
	res.wall = res.marks[len(res.marks)-1].at.Sub(res.marks[0].at)
	res.streams = append([]streamCheck(nil), r.streams...)
	return res, nil
}

// paced is the open-loop half: tickBursts bursts on every 1 ms tick, each
// verdict timed from its tick's due time to the Handler. ticks·tickBursts
// must be a multiple of the stream count so every stream gets whole rounds.
func (r *engineRig) paced(ticks int) (*floodResult, *pacer, error) {
	rounds := ticks * r.shape.tickBursts / r.shape.streams
	per := rounds * r.shape.tickBurst
	p := r.arm(per, r.shape.tickBurst)
	p.paced = true
	p.lat = make([][]int64, len(r.streams))
	for i := range p.lat {
		p.lat[i] = make([]int64, 0, per)
	}
	res := &floodResult{packages: per * r.shape.streams, phase: p}
	pc := &pacer{late: make([]int64, 0, ticks), start: time.Now()}
	p.startNs = mono(pc.start)
	r.phase.Store(p)
	defer r.phase.Store(nil)
	err := r.submit(p, rounds, func(g int) {
		if g%r.shape.tickBursts == 0 {
			pc.wait(g / r.shape.tickBursts)
		}
	}, nil)
	if err == nil {
		err = r.eng.Barrier()
	}
	if err != nil {
		return nil, nil, err
	}
	res.wall = time.Since(pc.start)
	res.streams = append([]streamCheck(nil), r.streams...)
	return res, pc, nil
}

// latencies flattens a paced phase's per-stream samples in time order as
// far as the slices of windowQuantiles care: the k-th tenth of every
// stream's samples, stream after stream, for each k in turn.
func (p *enginePhase) latencies() []int64 {
	var all []int64
	for k := 0; k < windows; k++ {
		for _, l := range p.lat {
			all = append(all, l[k*len(l)/windows:(k+1)*len(l)/windows]...)
		}
	}
	return all
}

// queueMetrics turns a traced phase's admission times and handler stamps
// into engine.admit_* and engine.queue_classify_*, with one span pair per
// sampled package.
func (rc *runCtx) queueMetrics(r *engineRig, f *floodResult) {
	at, p := f.admit, f.phase
	rc.set("engine.admit_ns", float64(at.total)/float64(f.packages))
	rc.set("engine.admit_block_share", float64(at.total)/float64(f.wall))
	var waits []int64
	burst, streams := uint64(r.shape.burst), uint64(r.shape.streams)
	for i, seen := range p.seen {
		for k, t := range seen {
			seq := uint64(k) * sampleEvery
			if t == 0 || seq%burst != 0 {
				continue
			}
			g := seq/burst*streams + uint64(i)
			waits = append(waits, t-at.at[g])
			root := rc.spans.add(0, "engine.queue_classify", i, p.base[i]+seq, at.at[g], t, 0, 1)
			rc.spans.add(root, "engine.admit", i, p.base[i]+seq, at.at[g], at.end[g], 0, int(burst))
		}
	}
	sortInt64(waits)
	rc.set("engine.queue_classify_p50_us", quantile(waits, 0.50)/1e3)
	rc.set("engine.queue_classify_p99_us", quantile(waits, 0.99)/1e3)
	rc.counts["boundary_samples"] = uint64(len(waits))
}

func runEngineFanin(rc *runCtx) error { return runEngine(rc, &faninShape) }
func runEngineWide(rc *runCtx) error  { return runEngine(rc, &wideShape) }

// runEngine is both engine workloads: set up (load or train, engine.New,
// warm-up), flood, paced, then check every stream against its lane's
// sequential reference.
func runEngine(rc *runCtx, shape *engineShape) error {
	unit := shape.burst * windows
	per := rc.scaled(shape.floodPackages/shape.streams, unit)
	// Whole rounds per paced phase: ticks·tickBursts ≡ 0 mod streams.
	tickUnit := shape.streams / gcd(shape.streams, shape.tickBursts)
	ticks := rc.scaled(5000, tickUnit)
	if rc.traced {
		// Base flood, traced flood, one-shard flood and a 3 s paced slice.
		per = rc.scaled(shape.floodPackages/shape.streams/2, unit)
		ticks = rc.scaled(3000, tickUnit)
	}
	warm := max(per*warmPercent/100/shape.burst, 1) * shape.burst
	pacedPer := ticks * shape.tickBursts / shape.streams * shape.tickBurst
	need := warm + per + pacedPer
	if rc.traced {
		need = max(warm+2*per+pacedPer, rc.scaled(shape.walk, walkBurst))
	}
	lanes, err := rc.genLanes(shape.lanes, need)
	if err != nil {
		return err
	}
	var split *dataset.Split
	if shape.train != nil {
		n := max(rc.scaled(wideTrainPackages, 1), minTrainPackages)
		if split, err = trainingSplit(rc, n); err != nil {
			return err
		}
	}
	rc.counts["flood_packages"] = uint64(per * shape.streams)
	rc.counts["paced_packages"] = uint64(pacedPer * shape.streams)
	rc.counts["warmup_packages"] = uint64(warm * shape.streams)

	// boot builds the model (unless given one) and the engine and warms it
	// up, which binds every stream.
	boot := func(shards int, fw *core.Framework) (*engineRig, error) {
		var err error
		switch {
		case fw != nil:
		case shape.train != nil:
			fw, err = shape.train(rc, split)
		default:
			fw, err = rc.corpusModel()
		}
		if err != nil {
			return nil, err
		}
		if shape.precision == "f32" {
			// The f32 snapshot of the weights is built on first use without
			// mutual exclusion: two shards that race for it each keep a copy
			// (218 KB here), and state_heap_kb flips between two values.
			// Building it before the shards start keeps it to one.
			fw.Series.Model.Infer32()
		}
		rig, err := bootEngine(fw, shape, lanes, shards)
		if err != nil {
			return nil, err
		}
		if _, err = rig.flood(warm, false); err != nil {
			rig.stop()
			return nil, err
		}
		// The warm-up bound every stream, and the packages it queued belong
		// to the lanes, so what it left in the engine's buffers weighs
		// nothing new.
		rc.weigh()
		return rig, nil
	}
	rc.heapBaseline()
	rig, err := setupMedian(rc, func() (*engineRig, error) { return boot(engineShards, nil) }, (*engineRig).stop)
	if err != nil {
		return err
	}
	defer rig.stop()

	var checks [][]streamCheck
	// Streams continue their lanes from phase to phase; these are the counts
	// at which a phase ends and the reference hash is compared.
	done := warm
	counts := []uint64{uint64(done)}
	if rc.traced {
		if checks, err = rc.engineTraced(rig, per, ticks); err != nil {
			return err
		}
		counts = append(counts, uint64(done+per), uint64(done+2*per), uint64(done+2*per+pacedPer))
	} else {
		if checks, err = rc.enginePhases(rig, per, ticks); err != nil {
			return err
		}
		counts = append(counts, uint64(done+per), uint64(done+per+pacedPer))
	}
	if err := rig.stop(); err != nil {
		return err
	}

	spec, _ := shape.spec()
	refs, err := references(rig.fw, spec, lanes, counts)
	if err != nil {
		return err
	}
	for i, streams := range checks {
		rc.tally.add(checkStreams(fmt.Sprintf("phase %d", i), streams, refs, false, rc.opt.corruptReference))
	}
	if !rc.traced {
		return nil
	}
	rc.referenceMetrics(refs)
	rc.set("engine.speedup_vs_seq", rc.values["throughput_pps"]/rc.values["core.seq_pps"])
	rc.note("engine.speedup_vs_seq = %.0f / %.0f pkg/s", rc.values["throughput_pps"], rc.values["core.seq_pps"])

	// The same flood on one shard: what the second shard buys.
	one, err := boot(1, rig.fw)
	if err != nil {
		return err
	}
	defer one.stop()
	f, err := one.flood(per, false)
	if err != nil {
		return err
	}
	rc.set("engine.pps_1shard", medianRate(f.marks))
	rc.tally.add(checkStreams("one shard", f.streams, refs, false, rc.opt.corruptReference))
	return rc.layerWalk(rig.fw, spec, lanes[0], shape.walk, false)
}

// enginePhases runs the untraced halves and records the end-to-end
// metrics.
func (rc *runCtx) enginePhases(rig *engineRig, per, ticks int) ([][]streamCheck, error) {
	a, err := rig.flood(per, false)
	if err != nil {
		return nil, err
	}
	rc.set("cpu_ns_per_pkg", medianCPU(a.marks))
	rc.set("throughput_pps", medianRate(a.marks))
	rc.note("flood: %d packages in %.2f s", a.packages, a.wall.Seconds())

	b, pc, err := rig.paced(ticks)
	if err != nil {
		return nil, err
	}
	rc.latencyMetrics(b.phase.latencies())
	rc.lateMetrics("paced", pc)
	return [][]streamCheck{a.streams, b.streams}, nil
}

// engineTraced is the boundary pass: the flood with timing off (allocation
// counts, the base of trace_overhead_share) and on, then a paced slice.
func (rc *runCtx) engineTraced(rig *engineRig, per, ticks int) ([][]streamCheck, error) {
	mem := memSnapshot()
	base, err := rig.flood(per, false)
	if err != nil {
		return nil, err
	}
	rc.memMetrics(memSince(mem), base.packages)
	rc.values["throughput_pps"] = medianRate(base.marks)

	before := rig.eng.Stats()
	a, err := rig.flood(per, true)
	if err != nil {
		return nil, err
	}
	rc.engineStatsMetrics(rig.eng.Stats().Since(before))
	rc.set("trace_overhead_share", 1-medianRate(a.marks)/medianRate(base.marks))
	rc.queueMetrics(rig, a)

	b, pc, err := rig.paced(ticks)
	if err != nil {
		return nil, err
	}
	rc.latencyMetrics(b.phase.latencies())
	rc.lateMetrics("paced", pc)
	return [][]streamCheck{base.streams, a.streams, b.streams}, nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
