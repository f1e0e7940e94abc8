package main

import (
	"bufio"
	"bytes"
	"fmt"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/mathx"
	"icsdetect/internal/modbus"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"
)

// walkBurst is how many packages a layer processes between two clock reads
// of the layer walk, so that reading the clock stays under a few percent of
// even the cheapest layer.
const walkBurst = 64

// walkPackages is how much of a lane the layer walk covers in a run of
// runSeconds.
const walkPackages = 65536

// layerTimes accumulates one layer's per-burst busy times.
type layerTimes struct {
	perPkg []float64 // ns per package, one entry per burst
}

// walk is one layer walk in progress.
type walk struct {
	rc     *runCtx
	layers map[string]*layerTimes
	burst  uint64
	root   int // span ID of the current burst
}

// span books busy nanoseconds spent on pkgs packages of the current burst
// under name, as a child of parent (0: the burst's root span).
func (w *walk) span(parent int, name string, start, end, busy int64, pkgs int) int {
	lt := w.layers[name]
	if lt == nil {
		lt = &layerTimes{}
		w.layers[name] = lt
	}
	lt.perPkg = append(lt.perPkg, float64(busy)/float64(pkgs))
	if parent == 0 {
		parent = w.root
	}
	return w.rc.spans.add(parent, name, -1, w.burst, start, end, busy, pkgs)
}

// timed runs fn over the burst between two clock reads.
func (w *walk) timed(parent int, name string, pkgs int, fn func()) int {
	start := monoNow()
	fn()
	end := monoNow()
	return w.span(parent, name, start, end, end-start, pkgs)
}

// ns is a layer's cost per package: the median over bursts, so a scheduler
// stall inside one burst does not move it.
func (w *walk) ns(name string) float64 {
	if lt := w.layers[name]; lt != nil {
		return medianFloat(lt.perPkg)
	}
	return 0
}

// meanNs is a layer's cost per package averaged over the whole walk —
// what the layer budget adds up, because means sum to the whole and
// medians do not (a collection that lands in one burst is part of the
// end-to-end time).
func (w *walk) meanNs(name string) float64 {
	lt := w.layers[name]
	if lt == nil {
		return 0
	}
	var sum float64
	for _, v := range lt.perPkg {
		sum += v
	}
	return sum / float64(len(lt.perPkg))
}

// timedStage wraps a detection stage so that the walk's second pass can
// charge Check and Advance time to the stage's kind. It reads the clock per
// call; the calibrated cost of the reads is subtracted.
type timedStage struct {
	core.StageDetector
	check, advance *int64
}

func (t timedStage) Check(st core.StageState, pc *core.PackageContext, r *core.StageResult) {
	start := monoNow()
	t.StageDetector.Check(st, pc, r)
	*t.check += monoNow() - start
}

func (t timedStage) Advance(st core.StageState, pc *core.PackageContext, v *core.Verdict) {
	start := monoNow()
	t.StageDetector.Advance(st, pc, v)
	*t.advance += monoNow() - start
}

// layerWalk pushes the head of a lane through the layers' exported
// functions in pipeline order on one goroutine, one span per layer per
// burst, and records every per-layer ns metric the workload's path has.
// live walks the MBAP path (ReadTCPFrame, DecodePDU) instead of the trace
// path.
func (rc *runCtx) layerWalk(fw *core.Framework, spec core.StackSpec, ln *lane, n int, live bool) error {
	n = min(rc.scaled(n, walkBurst), len(ln.recs)) / walkBurst * walkBurst
	if n == 0 {
		return fmt.Errorf("layer walk needs at least %d records", walkBurst)
	}
	w := &walk{rc: rc, layers: make(map[string]*layerTimes)}
	clock := rc.clock

	tr, err := trace.NewReader(bytes.NewReader(ln.raw))
	if err != nil {
		return err
	}
	dec := trace.NewDecoder(tr.Header())
	var wire *bufio.Reader
	if live {
		raw, _, err := liveWire(&lane{recs: ln.recs[:n]})
		if err != nil {
			return err
		}
		wire = bufio.NewReader(bytes.NewReader(raw))
	}
	sess, err := fw.NewStackSession(spec)
	if err != nil {
		return err
	}
	regs := ln.hdr.Registers
	dim := fw.Encoder.Dim()
	var (
		recs   [walkBurst]trace.Record
		bufs   [walkBurst][]byte
		pkgs   [walkBurst]*dataset.Package
		frames [walkBurst]*modbus.TCPFrame
		cs     [walkBurst][]int
		sigb   [walkBurst][]byte
		sigs   [walkBurst]string
		prev   *dataset.Package
	)
	for k := range cs {
		cs[k] = make([]int, dim)
	}
	var unknown, anomalies int
	var check streamCheck
	walkStart := time.Now()
	for b := 0; b < n/walkBurst; b++ {
		w.burst = uint64(b)
		burstStart := monoNow()
		w.root = rc.spans.add(0, "burst", -1, w.burst, burstStart, burstStart, 0, walkBurst)
		var walkErr error
		fail := func(err error) {
			if err != nil && walkErr == nil {
				walkErr = err
			}
		}

		w.timed(0, "trace.read", walkBurst, func() {
			for k := range recs {
				var err error
				bufs[k], err = tr.NextInto(&recs[k], bufs[k])
				fail(err)
			}
		})
		decode := w.timed(0, "trace.decode", walkBurst, func() {
			for k := range recs {
				var err error
				pkgs[k], err = dec.Decode(&recs[k])
				fail(err)
			}
		})
		// The RTU decode (with its CRC) is part of Decoder.Decode; timed
		// again on its own, as that span's child.
		w.timed(decode, "modbus.decode_rtu", walkBurst, func() {
			for k := range recs {
				_, _, err := modbus.DecodeRTU(recs[k].Frame)
				fail(err)
			}
		})
		if live {
			w.timed(0, "modbus.read_tcp_frame", walkBurst, func() {
				for k := range frames {
					var err error
					frames[k], err = modbus.ReadTCPFrame(wire)
					fail(err)
				}
			})
			w.timed(0, "tap.decode_pdu", walkBurst, func() {
				for k, f := range frames {
					p := dataset.Package{Address: float64(f.Header.UnitID), Function: float64(f.PDU.Function)}
					regs.DecodePDU(&p, f.PDU, recs[k].IsCmd)
				}
			})
		}
		if walkErr != nil {
			return fmt.Errorf("layer walk burst %d: %w", b, walkErr)
		}

		first := prev
		w.timed(0, "signature.encode", walkBurst, func() {
			p := first
			for k, cur := range pkgs {
				fw.Encoder.EncodeInto(cs[k], p, cur)
				sigb[k] = signature.AppendSignature(sigb[k][:0], cs[k])
				p = cur
			}
		})
		w.timed(0, "signature.intern", walkBurst, func() {
			for k := range sigb {
				sigs[k] = fw.DB.Intern(sigb[k])
			}
		})
		w.timed(0, "bloom.contains", walkBurst, func() {
			for _, sig := range sigs {
				if fw.Package.Anomalous(sig) {
					unknown++
				}
			}
		})

		// ClassifyOnly and Advance alternate per package, so these two read
		// the clock per package and subtract what the reads cost.
		var classify, advance, observe int64
		coreStart := monoNow()
		for _, p := range pkgs {
			t0 := monoNow()
			v, pc := sess.ClassifyOnly(p)
			t1 := monoNow()
			sess.Advance(pc, v)
			t2 := monoNow()
			check.observe(check.next, &v)
			t3 := monoNow()
			classify += t1 - t0 - clock
			advance += t2 - t1 - clock
			observe += t3 - t2 - clock
			if v.Anomaly {
				anomalies++
			}
		}
		coreEnd := monoNow()
		w.span(0, "core.classify", coreStart, coreEnd, max(classify, 0), walkBurst)
		w.span(0, "core.advance", coreStart, coreEnd, max(advance, 0), walkBurst)
		// What the benchmark's own consumer (order check, verdict hash) costs
		// per package: part of every end-to-end figure, no layer's fault.
		w.span(0, "benchmark.observe", coreStart, coreEnd, max(observe, 0), walkBurst)
		prev = pkgs[walkBurst-1]
		rc.spans.spans[w.root-1].EndNs = coreEnd
	}
	walkWall := time.Since(walkStart)

	for _, name := range []string{"trace.read", "trace.decode", "modbus.decode_rtu", "modbus.read_tcp_frame",
		"tap.decode_pdu", "signature.encode", "signature.intern", "bloom.contains", "core.classify", "core.advance"} {
		rc.set(name+"_ns", w.ns(name))
	}
	for _, name := range []string{"trace.read", "trace.decode", "core.classify", "core.advance", "benchmark.observe"} {
		rc.values["budget."+name] = w.meanNs(name)
	}
	rc.set("signature.unknown_share", float64(unknown)/float64(n))
	rc.counts["walk_packages"] = uint64(n)
	rc.counts["walk_anomalies"] = uint64(anomalies)
	if _, done := rc.values["trace_overhead_share"]; !done {
		// Workloads without a boundary pass compare the walk itself with the
		// untraced rate.
		rc.set("trace_overhead_share", 1-float64(n)/walkWall.Seconds()/rc.values["throughput_pps"])
	}

	if err := rc.stageWalk(w, fw, spec, ln.pkgs[:n]); err != nil {
		return err
	}
	for _, ss := range spec.Stages {
		if ss.Kind == core.StageLSTM {
			rc.kernelWalk(w, fw, spec, cs[:], ln.pkgs[:n])
		}
	}
	return nil
}

// stageWalk is the walk's second pass: the same packages through a session
// whose stages are wrapped with timers, giving core.stage.<kind>.* and, by
// subtraction from the first pass, core.self_ns.
func (rc *runCtx) stageWalk(w *walk, fw *core.Framework, spec core.StackSpec, pkgs []*dataset.Package) error {
	stack, err := fw.NewStack(spec)
	if err != nil {
		return err
	}
	inner := stack.Stages()
	times := make([][2]int64, len(inner))
	wrapped := make([]core.StageDetector, len(inner))
	for i, st := range inner {
		wrapped[i] = timedStage{StageDetector: st, check: &times[i][0], advance: &times[i][1]}
	}
	tstack, err := core.NewStackFromStages(fw, spec, wrapped)
	if err != nil {
		return err
	}
	sess := tstack.NewSession()
	for b := 0; b+walkBurst <= len(pkgs); b += walkBurst {
		w.burst = uint64(b / walkBurst)
		w.root = 0
		for i := range times {
			times[i] = [2]int64{}
		}
		start := monoNow()
		for _, p := range pkgs[b : b+walkBurst] {
			sess.Classify(p)
		}
		end := monoNow()
		for i, st := range inner {
			for j, half := range []string{"check", "advance"} {
				// Every stage call read the clock twice; first-hit fusion may
				// have skipped some calls, which only makes this subtraction
				// err towards less stage time.
				busy := max(times[i][j]-walkBurst*rc.clock, 0)
				w.span(0, "core.stage."+st.Name()+"."+half, start, end, busy, walkBurst)
			}
		}
	}
	var stages float64
	for _, st := range inner {
		for _, half := range []string{"check", "advance"} {
			name := "core.stage." + st.Name() + "." + half
			rc.set(name+"_ns", w.ns(name))
			stages += w.ns(name)
		}
	}
	rc.set("core.self_ns", max(rc.values["core.classify_ns"]+rc.values["core.advance_ns"]-stages, 0))
	return nil
}

// kernelWalk times the LSTM kernels the workload's stack runs underneath,
// at its model and precision, on the one-hot inputs the walked packages
// encode to: the single step, the 8-wide batched step, and the gate
// activations.
func (rc *runCtx) kernelWalk(w *walk, fw *core.Framework, spec core.StackSpec, scratch [][]int, pkgs []*dataset.Package) {
	model := fw.Series.Model
	idxs := make([][]int, len(pkgs))
	var prev *dataset.Package
	c := scratch[0]
	for i, p := range pkgs {
		fw.Encoder.EncodeInto(c, prev, p)
		idxs[i] = fw.Input.EncodeSparse(nil, c, false)
		prev = p
	}
	const batch = 8
	w.root = 0
	f32 := spec.Precision == core.PrecisionF32
	var step, stepBatch func(b int)
	if f32 {
		m := model.Infer32()
		state, scores := m.NewState(), make([]float32, m.Classes())
		buf, states, out := m.NewBatchBuffer(batch), make([]*nn.State32, batch), make([][]float32, batch)
		for i := range states {
			states[i], out[i] = m.NewState(), make([]float32, m.Classes())
		}
		step = func(b int) {
			for _, idx := range idxs[b : b+walkBurst] {
				m.StepLogitsOneHot(state, idx, scores)
			}
		}
		stepBatch = func(b int) {
			for k := b; k < b+walkBurst; k += batch {
				m.StepBatchLogitsOneHot(buf, states, idxs[k:k+batch], out)
			}
		}
	} else {
		state, scores := model.NewState(), make([]float64, model.Classes())
		buf, states, out := model.NewBatchBuffer(batch), make([]*nn.State, batch), make([][]float64, batch)
		for i := range states {
			states[i], out[i] = model.NewState(), make([]float64, model.Classes())
		}
		step = func(b int) {
			for _, idx := range idxs[b : b+walkBurst] {
				model.StepLogitsOneHot(state, idx, scores)
			}
		}
		stepBatch = func(b int) {
			for k := b; k < b+walkBurst; k += batch {
				model.StepBatchLogitsOneHot(buf, states, idxs[k:k+batch], out)
			}
		}
	}
	gates := 4 * model.Layers[0].HiddenSize
	src, dst := make([]float64, gates), make([]float64, gates)
	src32, dst32 := make([]float32, gates), make([]float32, gates)
	rng := mathx.NewRNG(11)
	for i := range src {
		src[i] = rng.Norm()
		src32[i] = float32(src[i])
	}
	for b := 0; b+walkBurst <= len(pkgs); b += walkBurst {
		w.burst = uint64(b / walkBurst)
		w.timed(0, "nn.step_onehot", walkBurst, func() { step(b) })
		w.timed(0, "nn.step_batch8_onehot", walkBurst, func() { stepBatch(b) })
		w.timed(0, "mathx.act", walkBurst, func() {
			for k := 0; k < walkBurst; k++ {
				if f32 {
					mathx.VSigmoid32(dst32, src32)
					mathx.VTanh32(dst32, src32)
				} else {
					mathx.VSigmoid(dst, src)
					mathx.VTanh(dst, src)
				}
			}
		})
	}
	for _, name := range []string{"nn.step_onehot", "nn.step_batch8_onehot", "mathx.act"} {
		rc.set(name+"_ns", w.ns(name))
	}
}
