package main

import (
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/serve"
)

// holdRecords is the length of the short traces that keep two streams
// bound while the daemon's heap is weighed.
const holdRecords = 64

// laneTraces re-encodes the first n records of each lane as a trace.
func laneTraces(lanes []*lane, n int) ([][]byte, error) {
	out := make([][]byte, len(lanes))
	for l, ln := range lanes {
		raw, err := prefixTrace(ln, n)
		if err != nil {
			return nil, err
		}
		out[l] = raw
	}
	return out, nil
}

// runServeReplay is serve-replay-default: the daemon as deployed with the
// paper's stack. Half the run floods (closed loop, throughput), half is
// paced (open loop, latency and CPU per package).
func runServeReplay(rc *runCtx) error {
	spec, err := core.ParseStackSpec("bloom,lstm", "first-hit")
	if err != nil {
		return err
	}
	flood := rc.scaled(replayFloodRecords, windows)
	ticks := rc.scaled(5000, 1)
	if rc.traced {
		// The traced run floods twice (tap off, tap on) and paces a 3 s
		// slice; the phases stay prefixes of the same lanes.
		flood = rc.scaled(replayFloodRecords/2, windows)
		ticks = rc.scaled(3000, 1)
	}
	paced := ticks * replayPerTick
	warm := flood * warmPercent / 100
	lanes, err := rc.genLanes(serveConns, max(flood, paced, holdRecords))
	if err != nil {
		return err
	}
	var traces [4][][]byte // warm-up, flood, paced, hold
	for i, n := range []int{warm, flood, paced, holdRecords} {
		if traces[i], err = laneTraces(lanes, n); err != nil {
			return err
		}
	}
	rc.counts["flood_packages"] = uint64(serveConns * flood)
	rc.counts["paced_packages"] = uint64(serveConns * paced)
	rc.counts["warmup_packages"] = uint64(serveConns * warm)

	var fw *core.Framework
	rc.heapBaseline()
	rig, err := setupMedian(rc, func() (*serveRig, error) {
		var err error
		if fw, err = rc.corpusModel(); err != nil {
			return nil, err
		}
		rig, err := bootServe(fw, spec, rc.tb.Registers(), rc.traced)
		if err != nil {
			return nil, err
		}
		// Two replay streams are bound and idle only while parked before
		// their last record: the one moment a fresh daemon can be weighed.
		if err = rig.replayHold("hold", traces[3], holdRecords, rc.weigh); err == nil {
			_, err = rig.replayFlood("warm", traces[0], warm, false)
		}
		if err != nil {
			rig.close()
			return nil, err
		}
		return rig, nil
	}, (*serveRig).close)
	if err != nil {
		return err
	}
	defer rig.close()

	var streams []streamCheck
	if rc.traced {
		streams, err = rc.serveReplayTraced(rig, traces, flood, ticks)
	} else {
		streams, err = rc.serveReplayPhases(rig, traces, flood, ticks)
	}
	if err != nil {
		return err
	}
	if n := rig.stray.Load(); n > 0 {
		rc.tally.violation("subscriber received %d events outside any phase", n)
	}

	refs, err := references(fw, spec, lanes, []uint64{uint64(flood), uint64(paced)})
	if err != nil {
		return err
	}
	rc.tally.add(checkStreams("replay", streams, refs, false, rc.opt.corruptReference))
	if rc.traced {
		rc.referenceMetrics(refs)
		return rc.layerWalk(fw, spec, lanes[0], walkPackages, false)
	}
	return nil
}

// serveReplayPhases runs the untraced flood and paced halves and records
// the end-to-end metrics.
func (rc *runCtx) serveReplayPhases(rig *serveRig, traces [4][][]byte, flood, ticks int) ([]streamCheck, error) {
	a, err := rig.replayFlood("flood", traces[1], flood, false)
	if err != nil {
		return nil, err
	}
	rc.set("throughput_pps", a.rate())

	b, pacers, err := rig.replayPaced("paced", traces[2], ticks, false)
	if err != nil {
		return nil, err
	}
	rc.set("cpu_ns_per_pkg", medianCPU(pacers[0].marks))
	rc.latencyMetrics(b.lat)
	rc.lateMetrics("paced", pacers...)
	return append(a.streams, b.streams...), nil
}

// serveReplayTraced is the boundary pass: the flood once with the tap off
// (allocation counts, the base of trace_overhead_share) and once with it
// on, then a paced slice with every sampled package stamped at OnResult
// and at the subscriber.
func (rc *runCtx) serveReplayTraced(rig *serveRig, traces [4][][]byte, flood, ticks int) ([]streamCheck, error) {
	mem := memSnapshot()
	base, err := rig.replayFlood("base", traces[1], flood, false)
	if err != nil {
		return nil, err
	}
	rc.memMetrics(memSince(mem), base.total)
	baseRate := base.rate()

	srvBefore, engBefore := rig.srv.Stats(), rig.srv.Engine().Stats()
	a, err := rig.replayFlood("flood", traces[1], flood, true)
	if err != nil {
		return nil, err
	}
	rc.serveStatsMetrics(rig.srv.Stats().Since(srvBefore), rig.srv.Engine().Stats().Since(engBefore))
	rc.set("trace_overhead_share", 1-a.rate()/baseRate)

	b, pacers, err := rig.replayPaced("paced", traces[2], ticks, true)
	if err != nil {
		return nil, err
	}
	rc.latencyMetrics(b.lat)
	rc.lateMetrics("paced", pacers...)
	rc.boundaryMetrics(b.tap)
	return append(append(base.streams, a.streams...), b.streams...), nil
}

// runServeLive is serve-live-bloom: the same daemon fed raw MBAP frames on
// the 1 ms schedule, bloom level only. One paced phase; the warm-up runs
// on the same connections.
func runServeLive(rc *runCtx) error {
	spec, err := core.ParseStackSpec("bloom", "first-hit")
	if err != nil {
		return err
	}
	ticks := rc.scaled(10000, 2)
	warmTicks := max(ticks*warmPercent/100, 1)
	lanes, err := rc.genLanes(serveConns, (1+warmTicks+ticks)*livePerTick)
	if err != nil {
		return err
	}
	wires := make([]liveWireBytes, serveConns)
	for c := range wires {
		if wires[c].wire, wires[c].ends, err = liveWire(lanes[c]); err != nil {
			return err
		}
	}
	rc.counts["paced_packages"] = uint64(serveConns * ticks * livePerTick)
	rc.counts["warmup_packages"] = uint64(serveConns * warmTicks * livePerTick)

	type liveRig struct {
		rig   *serveRig
		conns []*liveConn
	}
	closeLive := func(l liveRig) error {
		for _, lc := range l.conns {
			lc.conn.Close()
		}
		return l.rig.close()
	}
	rc.heapBaseline()
	live, err := setupMedian(rc, func() (liveRig, error) {
		fw, err := rc.corpusModel()
		if err != nil {
			return liveRig{}, err
		}
		rig, err := bootServe(fw, spec, rc.tb.Registers(), rc.traced)
		if err != nil {
			return liveRig{}, err
		}
		l := liveRig{rig: rig}
		// One tick binds both streams; the rest of the warm-up follows on the
		// same connections.
		if l.conns, err = rig.dialLive("live", wires); err == nil {
			if _, _, _, err = rig.livePaced("live", l.conns, 1, false); err == nil {
				rc.weigh()
				_, _, _, err = rig.livePaced("live", l.conns, warmTicks, false)
			}
		}
		if err != nil {
			closeLive(l)
			return liveRig{}, err
		}
		return l, nil
	}, closeLive)
	if err != nil {
		return err
	}
	defer closeLive(live)

	if rc.traced {
		// Half the ticks with the tap off (allocation counts, base rate),
		// half with it on.
		mem := memSnapshot()
		base, _, delta, err := live.rig.livePaced("live", live.conns, ticks/2, false)
		if err != nil {
			return err
		}
		rc.memMetrics(memSince(mem), base.total)
		rc.liveTally(base, delta)
		baseRate := liveRate(base)

		engBefore := live.rig.srv.Engine().Stats()
		p, pacers, delta, err := live.rig.livePaced("live", live.conns, ticks/2, true)
		if err != nil {
			return err
		}
		rc.liveTally(p, delta)
		rc.serveStatsMetrics(delta, live.rig.srv.Engine().Stats().Since(engBefore))
		rc.set("trace_overhead_share", 1-liveRate(p)/baseRate)
		rc.latencyMetrics(p.lat)
		rc.lateMetrics("live", pacers...)
		rc.boundaryMetrics(p.tap)
		walkModel, err := rc.liveSeqBaseline(spec, lanes[0])
		if err != nil {
			return err
		}
		return rc.layerWalk(walkModel, spec, lanes[0], walkPackages, true)
	}

	p, pacers, delta, err := live.rig.livePaced("live", live.conns, ticks, false)
	if err != nil {
		return err
	}
	rc.set("cpu_ns_per_pkg", medianCPU(pacers[0].marks))
	rc.set("throughput_pps", liveRate(p))
	rc.latencyMetrics(p.lat)
	rc.lateMetrics("live", pacers...)
	rc.liveTally(p, delta)
	return nil
}

// liveRate is the delivered rate of a live phase: verdicts received over
// the wall time from the first tick's due time to the last verdict.
func liveRate(p *servePhase) float64 {
	first := p.start[0].Load()
	for i := range p.start {
		if s := p.start[i].Load(); s < first {
			first = s
		}
	}
	return float64(p.got) / (float64(p.lastNs-first) / 1e9)
}

// liveTally checks a live phase. Live mode stamps wall-clock time into the
// interval feature, so no sequential reference exists; the check is
// conservation and order: sent = Live+Shed, received = Live−drops, and
// every stream's Seq contiguous unless the subscriber lost frames.
func (rc *runCtx) liveTally(p *servePhase, d serve.ServerStats) {
	t := checkStreams("live", p.streams, nil, true, false)
	if sent := uint64(p.total); d.Live+d.Shed != sent {
		t.violation("live: sent %d frames, daemon admitted %d and shed %d", sent, d.Live, d.Shed)
	}
	if uint64(p.got) != d.Live-d.SubscriberDrops {
		t.violation("live: received %d verdicts, daemon admitted %d and dropped %d at the subscriber",
			p.got, d.Live, d.SubscriberDrops)
	}
	if d.SubscriberDrops == 0 {
		for i := range p.streams {
			if n := p.streams[i].misordered; n > 0 {
				t.violation("live stream %d: %d verdicts out of order with no subscriber drops", i, n)
			}
		}
	}
	if rc.opt.corruptReference {
		t.violation("live: reference deliberately corrupted")
	}
	rc.tally.add(t)
}

// liveSeqBaseline times a single sequential session over the lane's decoded
// packages: core.seq_pps and core.anomaly_share for the live workload,
// whose own verdicts depend on wall-clock time and are not comparable.
func (rc *runCtx) liveSeqBaseline(spec core.StackSpec, ln *lane) (*core.Framework, error) {
	fw, err := rc.corpusModel()
	if err != nil {
		return nil, err
	}
	ref, err := reference(fw, spec, ln.pkgs, []uint64{uint64(len(ln.pkgs))})
	if err != nil {
		return nil, err
	}
	rc.referenceMetrics([]*refLane{ref})
	return fw, nil
}

// referenceMetrics records what the sequential references measured on the
// side: the single-threaded baseline rate and the anomaly share.
func (rc *runCtx) referenceMetrics(refs []*refLane) {
	var pkgs, anomalies int
	var elapsed time.Duration
	for _, r := range refs {
		pkgs += r.packages
		anomalies += r.anomalies
		elapsed += r.elapsed
	}
	rc.set("core.seq_pps", float64(pkgs)/elapsed.Seconds())
	rc.set("core.anomaly_share", float64(anomalies)/float64(pkgs))
}
