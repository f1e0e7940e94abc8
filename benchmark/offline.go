package main

import (
	"bytes"
	"fmt"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"
)

// Load shape of offline-all-levels, per 10 seconds of measuring: one
// goroutine takes a capture from bytes to verdicts — trace.Reader.NextInto,
// trace.Decoder.Decode, one core.Session.Classify — first as fast as it
// can, then on the 1 ms schedule at about 30 % of that.
const (
	offlineLevels       = "bloom,bf4,pca,gmm,iforest,bayesnet,svdd,lstm,ae"
	offlineFloodRecords = 420000
	offlinePerTick      = 25
	// offlineTrainPackages is the attack-free capture the set-up fits the
	// framework and the seven promoted levels on.
	offlineTrainPackages = 3000
	// offlineReference caps the sequential reference: the measured path is
	// itself a sequential session, so re-running all of it would double
	// the run to re-prove determinism; a prefix catches plumbing faults
	// (buffer reuse in NextInto, decoder state) just as well.
	offlineReference = 65536
)

func trainAllLevels(spec core.StackSpec, split *dataset.Split) (*core.Framework, error) {
	cfg := core.DefaultConfig()
	cfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 8, SetpointBins: 5, PIDClusters: 4,
	}
	cfg.Hidden = []int{32, 32}
	cfg.Fit.Epochs = 2
	cfg.Seed = 1
	fw, _, err := core.Train(split, cfg)
	if err != nil {
		return nil, err
	}
	return fw, fw.TrainStages(spec, split, 1)
}

// offlineRig is one capture being read: reader, decoder and session keep
// their state from the warm-up through the last phase.
type offlineRig struct {
	fw    *core.Framework
	tr    *trace.Reader
	dec   *trace.Decoder
	sess  *core.Session
	rec   trace.Record
	buf   []byte
	check streamCheck
}

func bootOffline(fw *core.Framework, spec core.StackSpec, raw []byte) (*offlineRig, error) {
	tr, err := trace.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	sess, err := fw.NewStackSession(spec)
	if err != nil {
		return nil, err
	}
	return &offlineRig{fw: fw, tr: tr, dec: trace.NewDecoder(tr.Header()), sess: sess}, nil
}

// next takes one record from bytes to verdict.
func (r *offlineRig) next() error {
	var err error
	if r.buf, err = r.tr.NextInto(&r.rec, r.buf); err != nil {
		return err
	}
	pkg, err := r.dec.Decode(&r.rec)
	if err != nil {
		return err
	}
	v := r.sess.Classify(pkg)
	r.check.observe(r.check.next, &v)
	return nil
}

// flood classifies the next n records back to back and returns the slice
// milestones.
func (r *offlineRig) flood(n int) ([]mark, error) {
	r.check.base, r.check.want = r.check.next, uint64(n)
	per := max(n/windows, 1)
	marks := make([]mark, 0, windows+2)
	marks = append(marks, markNow(0))
	for i := 1; i <= n; i++ {
		if err := r.next(); err != nil {
			return nil, err
		}
		if i%per == 0 {
			marks = append(marks, markNow(uint64(i)))
		}
	}
	return marks, nil
}

// paced classifies offlinePerTick records on every tick; a record's latency
// runs from its tick's due time to its verdict.
func (r *offlineRig) paced(ticks int) ([]int64, *pacer, error) {
	r.check.base, r.check.want = r.check.next, uint64(ticks*offlinePerTick)
	lat := make([]int64, 0, ticks*offlinePerTick)
	pc := &pacer{late: make([]int64, 0, ticks), start: time.Now()}
	for j := 0; j < ticks; j++ {
		pc.wait(j)
		due := pc.due(j)
		for k := 0; k < offlinePerTick; k++ {
			if err := r.next(); err != nil {
				return nil, nil, err
			}
			lat = append(lat, int64(time.Since(due)))
		}
	}
	return lat, pc, nil
}

// runOffline is offline-all-levels.
func runOffline(rc *runCtx) error {
	spec, err := core.ParseStackSpec(offlineLevels, "majority")
	if err != nil {
		return err
	}
	flood := rc.scaled(offlineFloodRecords, windows)
	ticks := rc.scaled(5000, 1)
	if rc.traced {
		flood = rc.scaled(offlineFloodRecords/2, windows)
		ticks = rc.scaled(3000, 1)
	}
	paced := ticks * offlinePerTick
	warm := flood * warmPercent / 100
	total := holdRecords + warm + flood + paced
	lanes, err := rc.genLanes(1, total)
	if err != nil {
		return err
	}
	split, err := trainingSplit(rc, max(rc.scaled(offlineTrainPackages, 1), minTrainPackages))
	if err != nil {
		return err
	}
	rc.counts["flood_packages"] = uint64(flood)
	rc.counts["paced_packages"] = uint64(paced)
	rc.counts["warmup_packages"] = uint64(warm)

	rc.heapBaseline()
	rig, err := setupMedian(rc, func() (*offlineRig, error) {
		fw, err := trainAllLevels(spec, split)
		if err != nil {
			return nil, err
		}
		rig, err := bootOffline(fw, spec, lanes[0].raw)
		if err != nil {
			return nil, err
		}
		if _, err = rig.flood(holdRecords); err == nil {
			rc.weigh()
			_, err = rig.flood(warm)
		}
		return rig, err
	}, func(*offlineRig) error { return nil })
	if err != nil {
		return err
	}
	rig.check.refAt = uint64(min(total, offlineReference))

	mem := memSnapshot()
	marks, err := rig.flood(flood)
	if err != nil {
		return err
	}
	rc.memMetrics(memSince(mem), flood)
	rc.set("cpu_ns_per_pkg", medianCPU(marks))
	rc.set("throughput_pps", medianRate(marks))
	wall := marks[len(marks)-1].at.Sub(marks[0].at).Seconds()
	rc.values["flood_mean_pps"] = float64(flood) / wall
	rc.note("flood: %d packages in %.2f s", flood, wall)

	lat, pc, err := rig.paced(ticks)
	if err != nil {
		return err
	}
	rc.latencyMetrics(lat)
	rc.lateMetrics("paced", pc)

	// One stream, one lane: the whole run is checked for count and order,
	// its first offlineReference verdicts against the reference hash.
	rig.check.base, rig.check.want = 0, uint64(total)
	refs, err := references(rig.fw, spec, lanes, []uint64{rig.check.refAt})
	if err != nil {
		return err
	}
	t := checkStreams("offline", []streamCheck{rig.check}, refs, false, rc.opt.corruptReference)
	t.attempted = uint64(flood + paced) // the set-up's records are not measured work
	rc.tally.add(t)
	if !rc.traced {
		return nil
	}
	rc.referenceMetrics(refs)
	if err := rc.layerWalk(rig.fw, spec, lanes[0], walkPackages, false); err != nil {
		return err
	}
	return rc.layerBudget()
}

// layerBudget is the offline workload's own consistency check: the walked
// layers (plus the benchmark's own per-package bookkeeping) must add up to
// the flood's mean time per package, and walking must not have slowed the
// pipeline beyond recognition.
func (rc *runCtx) layerBudget() error {
	if rc.counts["walk_packages"] < walkPackages {
		rc.note("layer budget not checked: the walk covered %d of %d packages", rc.counts["walk_packages"], walkPackages)
		return nil
	}
	parts := []string{"trace.read", "trace.decode", "core.classify", "core.advance", "benchmark.observe"}
	var sum float64
	line := "layer budget (mean ns/pkg over the walk):"
	for _, name := range parts {
		sum += rc.values["budget."+name]
		line += fmt.Sprintf(" %s %.0f +", name, rc.values["budget."+name])
	}
	whole := 1e9 / rc.values["flood_mean_pps"]
	off := (sum - whole) / whole
	rc.note("%s = %.0f; end to end 1e9/%.0f = %.0f ns/pkg (%+.1f %%)",
		line[:len(line)-2], sum, rc.values["flood_mean_pps"], whole, 100*off)
	if off > 0.15 || off < -0.15 {
		return fmt.Errorf("layer budget %.0f ns/pkg disagrees with end-to-end %.0f ns/pkg by more than 15 %%", sum, whole)
	}
	if o := rc.values["trace_overhead_share"]; o > 0.25 {
		return fmt.Errorf("trace_overhead_share %.2f exceeds 0.25", o)
	}
	return nil
}
