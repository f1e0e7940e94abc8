package main

import (
	"bytes"
	"fmt"

	"icsdetect/internal/dataset"
	"icsdetect/internal/modbus"
	"icsdetect/internal/scenario"
	"icsdetect/internal/trace"
)

// normalCycles is the attack-free stretch between two attack episodes of
// the generated traffic; with the corpus episode lengths it puts roughly
// one package in six under attack, the labelled-mix shape a detector is
// judged on (arXiv:2305.09678), not the attack-free trace the old
// -servebench replayed.
const normalCycles = 12

// lane is one independent stream of generated traffic: the recorded wire
// bytes (an ICSTRACE stream) and the same records decoded the way every
// ingest path decodes them. Streams of a workload are dealt onto lanes, so
// one sequential reference per lane checks every stream that replays it.
type lane struct {
	raw  []byte
	hdr  trace.Header
	recs []*trace.Record
	pkgs []*dataset.Package
}

// genLane records exactly n wire records of gas-pipeline traffic from a
// simulator seeded with seed: normalCycles normal poll cycles, then (with
// attacks) one attack episode, cycling the seven Table II categories.
func genLane(tb scenario.Scenario, seed uint64, n int, attacks bool) (*lane, error) {
	sim, err := tb.NewSim(seed)
	if err != nil {
		return nil, err
	}
	// Unrecorded warm-up so the control loop and CRC window settle, as the
	// golden corpus does.
	for i := 0; i < 60; i++ {
		sim.RunNormalCycle(dataset.Normal)
	}
	var buf bytes.Buffer
	rec, err := trace.NewRecorder(&buf, trace.SimHeader("benchmark", "", tb.Registers()))
	if err != nil {
		return nil, err
	}
	sim.SetFrameSink(func(f scenario.Frame) {
		if rec.Count() < n {
			rec.RecordSim(f)
		}
	})
	var episodes []trace.CorpusScenario
	for _, sc := range trace.CorpusScenarios() {
		if sc.Attack != dataset.Normal {
			episodes = append(episodes, sc)
		}
	}
	for k := 0; rec.Count() < n; k++ {
		for i := 0; i < normalCycles; i++ {
			sim.RunNormalCycle(dataset.Normal)
		}
		if !attacks {
			continue
		}
		ep := episodes[k%len(episodes)]
		if err := sim.RunAttackEpisode(ep.Attack, ep.Episode); err != nil {
			return nil, err
		}
	}
	sim.SetFrameSink(nil)
	if err := rec.Flush(); err != nil {
		return nil, err
	}
	ln := &lane{raw: buf.Bytes()}
	if ln.hdr, ln.recs, err = trace.ReadAll(bytes.NewReader(ln.raw)); err != nil {
		return nil, err
	}
	if ln.pkgs, err = trace.Packages(ln.hdr, ln.recs); err != nil {
		return nil, err
	}
	if len(ln.pkgs) != n {
		return nil, fmt.Errorf("generated %d records, want %d", len(ln.pkgs), n)
	}
	return ln, nil
}

// genLanes generates count lanes of n records and notes their attack
// share; lane l of run seed s is a pure function of (s, l).
func (rc *runCtx) genLanes(count, n int) ([]*lane, error) {
	lanes := make([]*lane, count)
	var attacks int
	for l := range lanes {
		ln, err := genLane(rc.tb, rc.opt.seed*1000003+uint64(l)+1, n, true)
		if err != nil {
			return nil, fmt.Errorf("generate lane %d: %w", l, err)
		}
		for _, p := range ln.pkgs {
			if p.IsAttack() {
				attacks++
			}
		}
		lanes[l] = ln
	}
	rc.note("traffic: %d lanes of %d packages, %.1f %% labelled attack", count, n, 100*float64(attacks)/float64(count*n))
	return lanes, nil
}

// prefixTrace re-encodes the first n records of a lane as a complete
// ICSTRACE stream of their own.
func prefixTrace(ln *lane, n int) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, ln.hdr)
	if err != nil {
		return nil, err
	}
	for _, rec := range ln.recs[:n] {
		if err := w.Write(rec); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// liveWire rebuilds a lane's RTU records as the MBAP-framed Modbus/TCP byte
// stream a live master/slave pair would put on the wire: each command opens
// a fresh transaction ID and the next response closes the oldest open one,
// which is what the daemon's direction inference keys on. It returns the
// bytes plus the end offset of every frame.
func liveWire(ln *lane) ([]byte, []int, error) {
	wire := make([]byte, 0, len(ln.raw))
	ends := make([]int, 0, len(ln.recs))
	var open []uint16
	var next uint16
	for i, rec := range ln.recs {
		rtu, _, err := modbus.DecodeRTU(rec.Frame)
		if err != nil {
			return nil, nil, fmt.Errorf("record %d: %w", i, err)
		}
		var tid uint16
		if !rec.IsCmd && len(open) > 0 {
			tid, open = open[0], open[1:]
		} else {
			next++
			tid = next
			if rec.IsCmd {
				open = append(open, tid)
			}
		}
		raw, err := modbus.EncodeTCP(&modbus.TCPFrame{
			Header: modbus.MBAPHeader{TransactionID: tid, UnitID: rtu.Address},
			PDU:    rtu.PDU,
		})
		if err != nil {
			return nil, nil, fmt.Errorf("record %d: %w", i, err)
		}
		wire = append(wire, raw...)
		ends = append(ends, len(wire))
	}
	return wire, ends, nil
}
