package main

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/serve"
	"icsdetect/internal/tap"
)

// Load shape of the two serving workloads, per 10 seconds of measuring.
// Fixed constants, sized for the 2-core shared box: 2 ingest connections
// (= 2 streams, one sender goroutine each) and 1 measuring subscriber on
// loopback against an in-process serve.Server.
const (
	serveConns  = 2
	serveShards = 2
	// replayFloodRecords is what each connection writes in one serve.Replay
	// during the closed-loop flood half (blocking admission pushes back on
	// the socket); replayPerTick is each connection's records per 1 ms tick
	// in the open-loop half: 40k pkg/s in total, about 29 % of what the
	// flood sustains at the seed commit.
	replayFloodRecords = 340000
	replayPerTick      = 20
	// livePerTick is each live connection's frames per tick: 200k pkg/s in
	// total. There is no live flood: live admission sheds instead of
	// blocking, so a flood would only measure how much was thrown away.
	livePerTick = 100
	// warmPercent is the untimed warm-up before a phase, as a share of it.
	warmPercent = 10
	// sampleEvery is the boundary pass's sampling: 1 package in 64 carries
	// per-boundary timestamps.
	sampleEvery = 64
	// lostAfter bounds the wait for verdicts still in flight once every
	// sender has finished; past it they count as lost.
	lostAfter = 20 * time.Second
)

// serveRig is an in-process daemon plus the one measuring subscriber.
type serveRig struct {
	srv      *serve.Server
	ingest   string
	sub      *serve.Subscription
	phase    atomic.Pointer[servePhase]
	tap      atomic.Pointer[boundaryTap]
	stray    atomic.Uint64
	traced   bool
	pumpDone chan struct{}
	pumpErr  error
}

// servePhase is what the subscriber records for one phase. The pump
// goroutine owns every non-atomic field until done/drained close.
type servePhase struct {
	index   map[string]int
	streams []streamCheck
	// total verdicts are measured; tail more (the replay hold sentinels)
	// follow them. done closes at total, drained at total+tail.
	total, tail   int
	got           int
	done, drained chan struct{}
	// Flood: first write and last verdict.
	begun, ended time.Time
	// Paced: stream i's package k is due at start[i] + (k/perTick) ticks.
	paced   bool
	perTick uint64
	ticks   uint64
	start   []atomic.Int64
	lat     []int64
	lastNs  int64
	tap     *boundaryTap
}

// boundarySample is one sampled package's trip: due on the wire, seen by
// Config.OnResult on its shard, returned by Subscription.Next.
type boundarySample struct {
	stream               int
	seq                  uint64
	due, onResult, heard int64
}

// boundaryTap is the traced pass's extra bookkeeping: OnResult stamps (one
// slot per sampled package, written by shard goroutines, read by the
// pump), and the pump's own samples.
type boundaryTap struct {
	index    map[string]int
	base     []uint64
	onResult [][]atomic.Int64
	samples  []boundarySample
	nextNs   []int64
}

func newBoundaryTap(p *servePhase) *boundaryTap {
	t := &boundaryTap{index: p.index, base: make([]uint64, len(p.streams))}
	for i := range p.streams {
		t.base[i] = p.streams[i].base
		t.onResult = append(t.onResult, make([]atomic.Int64, p.streams[i].want/sampleEvery+1))
	}
	t.samples = make([]boundarySample, 0, p.total/sampleEvery+len(p.streams))
	t.nextNs = make([]int64, 0, p.total+p.tail)
	return t
}

// stamp is the Config.OnResult hook of a traced rig.
func (t *boundaryTap) stamp(r engine.Result) {
	i, ok := t.index[r.Stream]
	if !ok || r.Seq < t.base[i] {
		return
	}
	if k := r.Seq - t.base[i]; k%sampleEvery == 0 && k/sampleEvery < uint64(len(t.onResult[i])) {
		t.onResult[i][k/sampleEvery].Store(monoNow())
	}
}

// bootServe starts a daemon serving fw under spec, binds loopback
// listeners and attaches the measuring subscriber.
func bootServe(fw *core.Framework, spec core.StackSpec, regs tap.RegisterMap, traced bool) (*serveRig, error) {
	r := &serveRig{traced: traced, pumpDone: make(chan struct{})}
	cfg := serve.Config{
		Engine: engine.Config{Shards: serveShards, Stack: spec},
		Models: []serve.Model{{Name: "gaspipeline", Framework: fw, Registers: regs}},
		// Deep enough that the one subscriber never loses a frame: drops
		// would be the generator's failure, not the program's.
		SubscriberBuffer: 1 << 17,
		DrainGrace:       time.Minute,
	}
	if traced {
		cfg.OnResult = func(res engine.Result) {
			if t := r.tap.Load(); t != nil {
				t.stamp(res)
			}
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	r.srv = srv
	if r.ingest, err = srv.ListenIngest("127.0.0.1:0"); err != nil {
		srv.Shutdown()
		return nil, err
	}
	verdicts, err := srv.ListenVerdicts("127.0.0.1:0")
	if err != nil {
		srv.Shutdown()
		return nil, err
	}
	if r.sub, err = serve.Subscribe(verdicts); err != nil {
		srv.Shutdown()
		return nil, err
	}
	// Subscribe returns when the daemon has acknowledged the handshake,
	// which is just before it registers the subscriber with the hub;
	// verdicts published in between would be lost without a trace.
	for deadline := time.Now().Add(lostAfter); srv.Stats().Subscribers == 0; {
		if time.Now().After(deadline) {
			srv.Shutdown()
			return nil, fmt.Errorf("subscriber never registered")
		}
		time.Sleep(100 * time.Microsecond)
	}
	go r.pump()
	return r, nil
}

// close detaches the subscriber, waits for the pump and shuts the daemon
// down.
func (r *serveRig) close() error {
	r.sub.Close()
	<-r.pumpDone
	return r.srv.Shutdown()
}

// pump is the measuring subscriber goroutine: it reads every event and
// books it on the current phase.
func (r *serveRig) pump() {
	defer close(r.pumpDone)
	for {
		var asked int64
		if r.traced {
			asked = monoNow()
		}
		ev, err := r.sub.Next()
		if err != nil {
			r.pumpErr = err
			return
		}
		p := r.phase.Load()
		if p == nil {
			r.stray.Add(1)
			continue
		}
		i, ok := p.index[ev.Stream]
		if !ok || ev.Seq < p.streams[i].base {
			r.stray.Add(1)
			continue
		}
		if p.paced || p.tap != nil {
			now := monoNow()
			if p.tap != nil {
				p.tap.nextNs = append(p.tap.nextNs, now-asked)
			}
			if k := ev.Seq - p.streams[i].base; p.paced && k/p.perTick < p.ticks {
				due := p.start[i].Load() + int64(k/p.perTick)*int64(tickEvery)
				p.lat = append(p.lat, now-due)
				p.lastNs = now
				if t := p.tap; t != nil && k%sampleEvery == 0 {
					if seen := t.onResult[i][k/sampleEvery].Load(); seen != 0 {
						t.samples = append(t.samples, boundarySample{i, ev.Seq, due, seen, now})
					}
				}
			}
		}
		p.streams[i].observe(ev.Seq, &ev.Verdict)
		p.got++
		if p.got == p.total {
			p.ended = time.Now()
			close(p.done)
		}
		if p.tail > 0 && p.got == p.total+p.tail {
			close(p.drained)
		}
	}
}

// newPhase lays out a phase over serveConns streams named prefix-<i>, each
// delivering want verdicts from seq base[i] on.
func newPhase(prefix string, base []uint64, want, tail int) *servePhase {
	p := &servePhase{
		index:   make(map[string]int, serveConns),
		streams: make([]streamCheck, serveConns),
		total:   serveConns * want,
		tail:    serveConns * tail,
		done:    make(chan struct{}),
		drained: make(chan struct{}),
	}
	for i := range p.streams {
		p.index[streamName(prefix, i)] = i
		p.streams[i] = streamCheck{lane: i, want: uint64(want + tail)}
		if base != nil {
			p.streams[i].base, p.streams[i].next = base[i], base[i]
		}
	}
	if tail == 0 {
		p.drained = p.done
	}
	return p
}

func streamName(prefix string, i int) string { return fmt.Sprintf("%s-%03d", prefix, i) }

// begin installs the phase (and its tap) on the pump.
func (r *serveRig) begin(p *servePhase) {
	if p.tap != nil {
		r.tap.Store(p.tap)
	}
	r.phase.Store(p)
}

// end waits for the phase's last verdict and detaches the phase.
func (r *serveRig) end(p *servePhase) error {
	defer r.phase.Store(nil)
	defer r.tap.Store(nil)
	select {
	case <-p.drained:
		return nil
	case <-r.pumpDone:
		return fmt.Errorf("subscriber ended early: %v", r.pumpErr)
	case <-time.After(lostAfter):
		st := r.srv.Stats()
		return fmt.Errorf("lost verdicts: shed=%d subscriber drops=%d, %d verdicts expected",
			st.Shed, st.SubscriberDrops, p.total+p.tail)
	}
}

// rate is a flood phase's throughput: packages over the wall time from the
// first write to the last verdict received. (Not a median over time
// slices as in the in-process workloads: with both cores saturated the Go
// scheduler lets the subscriber goroutine wait for hundreds of
// milliseconds and then hands it tens of thousands of verdicts at once, so
// slices of the arrival stream say nothing about the sustained rate.)
func (p *servePhase) rate() float64 {
	return float64(p.total) / p.ended.Sub(p.begun).Seconds()
}

// replayFlood is the closed-loop half: every connection writes its whole
// trace in one serve.Replay and blocking admission paces it. It returns
// once every verdict is back.
func (r *serveRig) replayFlood(prefix string, traces [][]byte, records int, traced bool) (*servePhase, error) {
	p := newPhase(prefix, nil, records, 0)
	for i := range p.streams {
		p.streams[i].refAt = uint64(records)
	}
	if traced {
		p.tap = newBoundaryTap(p)
	}
	p.begun = time.Now()
	r.begin(p)
	if err := r.replayAll(prefix, traces, records, func(int) serve.ReplayOptions { return serve.ReplayOptions{} }); err != nil {
		r.phase.Store(nil)
		return nil, err
	}
	return p, r.end(p)
}

// replayPaced is the open-loop half: each sender wakes on the 1 ms
// schedule and hands that tick's records to the wire in one write.
func (r *serveRig) replayPaced(prefix string, traces [][]byte, ticks int, traced bool) (*servePhase, []*pacer, error) {
	want := ticks * replayPerTick
	p := newPhase(prefix, nil, want, 0)
	p.paced, p.perTick, p.ticks = true, replayPerTick, uint64(ticks)
	p.start = make([]atomic.Int64, serveConns)
	p.lat = make([]int64, 0, p.total)
	for i := range p.streams {
		p.streams[i].refAt = uint64(want)
	}
	if traced {
		p.tap = newBoundaryTap(p)
	}
	pacers := newPacers(ticks, replayPerTick)
	r.begin(p)
	line := newStartLine(serveConns)
	err := r.replayAll(prefix, traces, want, func(c int) serve.ReplayOptions {
		pc := pacers[c]
		return serve.ReplayOptions{
			FlushEvery: replayPerTick,
			OnRecord: func(i int) {
				if i%replayPerTick != 0 {
					return
				}
				if i == 0 {
					// serve.Replay has parsed its trace by now; only here can
					// the senders agree on tick 0.
					pc.start = line.arrive()
					p.start[c].Store(mono(pc.start))
				}
				pc.wait(i / replayPerTick)
			},
		}
	})
	if err != nil {
		r.phase.Store(nil)
		return nil, nil, err
	}
	err = r.end(p)
	pacers[0].marks = append(pacers[0].marks, markNow(uint64(p.total)))
	return p, pacers, err
}

// newPacers makes one pacer per connection; the first also notes the
// process CPU time at windows milestones of the phase.
func newPacers(ticks, perTick int) []*pacer {
	pacers := make([]*pacer, serveConns)
	for c := range pacers {
		pacers[c] = &pacer{late: make([]int64, 0, ticks)}
	}
	pacers[0].markEvery, pacers[0].perTick = max(ticks/windows, 1), serveConns*perTick
	return pacers
}

// replayAll runs one serve.Replay per connection and checks the accepted
// counts.
func (r *serveRig) replayAll(prefix string, traces [][]byte, records int, opts func(c int) serve.ReplayOptions) error {
	errs := make(chan error, serveConns)
	for c := 0; c < serveConns; c++ {
		go func(c int) {
			o := opts(c)
			o.Stream = streamName(prefix, c)
			n, err := serve.Replay(r.ingest, traces[c], o)
			if err == nil && n != uint64(records) {
				err = fmt.Errorf("server accepted %d of %d records", n, records)
			}
			errs <- err
		}(c)
	}
	var first error
	for c := 0; c < serveConns; c++ {
		if err := <-errs; err != nil && first == nil {
			first = fmt.Errorf("replay %s: %w", prefix, err)
		}
	}
	return first
}

// replayHold binds one fresh stream per connection, feeds each all but the
// last record of its (short) trace and, once those verdicts are back, calls
// atHold while both streams are still bound — the only moment the daemon's
// steady state can be weighed, because a replay connection releases its
// stream when it ends. Then the senders finish.
func (r *serveRig) replayHold(prefix string, traces [][]byte, records int, atHold func()) error {
	p := newPhase(prefix, nil, records-1, 1)
	r.begin(p)
	hold := make(chan struct{})
	sent := make(chan error, 1)
	go func() {
		sent <- r.replayAll(prefix, traces, records, func(int) serve.ReplayOptions {
			return serve.ReplayOptions{
				FlushEvery: records - 1,
				OnRecord: func(i int) {
					if i == records-1 {
						<-hold
					}
				},
			}
		})
	}()
	var err error
	select {
	case <-p.done:
		atHold()
	case err = <-sent:
		if err == nil {
			err = fmt.Errorf("replay %s: senders finished before the hold", prefix)
		}
		r.phase.Store(nil)
		close(hold)
		return err
	case <-time.After(lostAfter):
		err = fmt.Errorf("replay %s: lost verdicts before the hold", prefix)
	}
	close(hold)
	if sendErr := <-sent; err == nil {
		err = sendErr
	}
	if err != nil {
		r.phase.Store(nil)
		return err
	}
	return r.end(p)
}

// liveConn is one live-mode ingest connection and the pre-encoded MBAP
// byte stream it plays, a tick at a time.
type liveConn struct {
	conn   net.Conn
	wire   []byte
	ends   []int
	frames int // written so far
}

// liveWireBytes is one connection's pre-encoded MBAP stream and the end
// offset of each of its frames.
type liveWireBytes struct {
	wire []byte
	ends []int
}

// dialLive opens the live connections of a rig. On error the connections
// opened so far are returned for the caller to close.
func (r *serveRig) dialLive(prefix string, wires []liveWireBytes) ([]*liveConn, error) {
	var conns []*liveConn
	for c, w := range wires {
		conn, err := serve.DialLive(r.ingest, serve.ReplayOptions{Stream: streamName(prefix, c)})
		if err != nil {
			return conns, err
		}
		conns = append(conns, &liveConn{conn: conn, wire: w.wire, ends: w.ends})
	}
	return conns, nil
}

// livePaced plays the next ticks of every live connection on the 1 ms
// schedule and waits for the verdicts. Live admission sheds on a full
// shard queue, so fewer verdicts than frames is a legal outcome; the
// returned stats delta says how many were shed or dropped.
func (r *serveRig) livePaced(prefix string, conns []*liveConn, ticks int, traced bool) (*servePhase, []*pacer, serve.ServerStats, error) {
	want := ticks * livePerTick
	base := make([]uint64, serveConns)
	for c, lc := range conns {
		base[c] = uint64(lc.frames)
	}
	p := newPhase(prefix, base, want, 0)
	p.paced, p.perTick, p.ticks = true, livePerTick, uint64(ticks)
	p.start = make([]atomic.Int64, serveConns)
	p.lat = make([]int64, 0, p.total)
	if traced {
		p.tap = newBoundaryTap(p)
	}
	pacers := newPacers(ticks, livePerTick)
	before := r.srv.Stats()
	r.begin(p)
	var wg sync.WaitGroup
	errs := make([]error, serveConns)
	line := newStartLine(serveConns)
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			lc, pc := conns[c], pacers[c]
			pc.start = line.arrive()
			p.start[c].Store(mono(pc.start))
			for j := 0; j < ticks; j++ {
				pc.wait(j)
				from := 0
				if lc.frames > 0 {
					from = lc.ends[lc.frames-1]
				}
				to := lc.ends[lc.frames+livePerTick-1]
				if _, err := lc.conn.Write(lc.wire[from:to]); err != nil {
					errs[c] = err
					return
				}
				lc.frames += livePerTick
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			r.phase.Store(nil)
			return nil, nil, before, fmt.Errorf("live %s: %w", prefix, err)
		}
	}
	// Either every verdict arrives, or the daemon accounts for the
	// difference: everything sent was admitted or shed, and some of it will
	// never come.
	deadline := time.After(lostAfter)
	poll := time.NewTicker(50 * time.Millisecond)
	defer poll.Stop()
	for waiting := true; waiting; {
		select {
		case <-p.done:
			waiting = false
		case <-deadline:
			waiting = false
		case <-poll.C:
			if d := r.srv.Stats().Since(before); d.Shed+d.SubscriberDrops > 0 && d.Live+d.Shed == uint64(p.total) {
				time.Sleep(200 * time.Millisecond) // let the admitted rest drain
				waiting = false
			}
		}
	}
	delta := r.srv.Stats().Since(before)
	r.phase.Store(nil)
	r.tap.Store(nil)
	pacers[0].marks = append(pacers[0].marks, markNow(uint64(p.total)))
	return p, pacers, delta, nil
}

// boundaryMetrics turns a traced paced pass's samples into the serve.*
// boundary metrics and spans.
func (rc *runCtx) boundaryMetrics(t *boundaryTap) {
	var ingest, publish []int64
	for _, s := range t.samples {
		ingest = append(ingest, s.onResult-s.due)
		publish = append(publish, s.heard-s.onResult)
		root := rc.spans.add(0, "wire_to_verdict", s.stream, s.seq, s.due, s.heard, 0, 1)
		rc.spans.add(root, "serve.ingest_engine", s.stream, s.seq, s.due, s.onResult, 0, 1)
		rc.spans.add(root, "serve.publish", s.stream, s.seq, s.onResult, s.heard, 0, 1)
	}
	sortInt64(ingest)
	sortInt64(publish)
	rc.set("serve.ingest_engine_p50_us", quantile(ingest, 0.50)/1e3)
	rc.set("serve.ingest_engine_p99_us", quantile(ingest, 0.99)/1e3)
	rc.set("serve.publish_p50_us", quantile(publish, 0.50)/1e3)
	rc.set("serve.publish_p99_us", quantile(publish, 0.99)/1e3)
	// Most events arrive in multi-event frames, so the median Next is the
	// cost of decoding one already-buffered event, not of waiting for it.
	sortInt64(t.nextNs)
	rc.set("serve.client_next_ns", quantile(t.nextNs, 0.50))
	rc.counts["boundary_samples"] = uint64(len(t.samples))
}

// serveStatsMetrics records the daemon's own counters over one phase.
func (rc *runCtx) serveStatsMetrics(d serve.ServerStats, e engine.Stats) {
	rc.set("serve.ingest_burst", d.MeanIngestBurst())
	rc.set("serve.publish_batch", d.MeanPublishBatch())
	if d.IngestRecords > 0 {
		rc.set("serve.ingest_bytes_per_pkg", float64(d.IngestBytes)/float64(d.IngestRecords))
	}
	rc.set("serve.shed", float64(d.Shed))
	rc.set("serve.subscriber_drops", float64(d.SubscriberDrops))
	rc.engineStatsMetrics(e)
}

// engineStatsMetrics records the micro-batch widths of an engine.Stats
// interval.
func (rc *runCtx) engineStatsMetrics(e engine.Stats) {
	rc.set("engine.advance_batch_width", e.MeanBatch())
	if e.CheckBatches > 0 {
		rc.set("engine.check_batch_width", float64(e.CheckBatched)/float64(e.CheckBatches))
	}
}
