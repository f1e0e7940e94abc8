package serve

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/modbus"
	"icsdetect/internal/tap"
	"icsdetect/internal/trace"
)

// Model is one named detection model the daemon serves: a trained
// framework plus the register layout of the devices it monitors. Ingest
// connections select a model by name in their handshake; the first model
// of a Config is the default for connections that name none.
type Model struct {
	// Name is the handshake name ("gaspipeline", "watertank", …).
	Name string
	// Framework is the trained framework connections bind to. Hot-swap
	// (SwapModel) replaces it for connections accepted afterwards.
	Framework *core.Framework
	// Registers decodes live Modbus frames into the Table I parameter
	// columns (replay traces carry their own map in the trace header).
	Registers tap.RegisterMap
}

// Config configures a Server.
type Config struct {
	// Engine tunes the embedded detection engine (shards, batch width,
	// queue depth, stack).
	Engine engine.Config
	// Models are the served models; at least one. The first is the
	// default.
	Models []Model
	// SubscriberBuffer bounds each verdict subscriber's frame queue (a
	// frame carries the coalesced events of one shard tick); a subscriber
	// that falls further behind loses frames (their events counted, never
	// blocking the engine). The bound costs memory only while a backlog
	// exists: a queue grows with the frames waiting in it, 8 bytes a
	// frame, and shrinks back once its writer drains it. Default: 1024.
	SubscriberBuffer int
	// SubscriberWriteTimeout, when positive, bounds every subscriber
	// socket write. A wedged subscriber (a peer that stopped reading)
	// otherwise parks its hub writer in a blocking Write until Shutdown's
	// force-close while its queue sheds everything; with the deadline it is
	// abandoned at runtime, with the queued events re-counted as drops —
	// the subscriber-side mirror of the ingest IdleTimeout. Zero disables
	// the deadline.
	SubscriberWriteTimeout time.Duration
	// DrainGrace bounds how long Shutdown waits for ingest connections to
	// finish before force-closing them. Default: 5s.
	DrainGrace time.Duration
	// IdleTimeout, when positive, bounds how long an ingest connection may
	// go without delivering a byte before the server gives up on it. A
	// half-open live-mode peer (silent TCP, no FIN) would otherwise hold
	// its claimed stream ID, its engine stream state and its handler
	// goroutine forever; on expiry the connection closes and the stream
	// releases like any other disconnect. Zero disables the deadline
	// (replay feeds from slow storage may legitimately stall).
	IdleTimeout time.Duration
	// OnResult, when non-nil, observes every classified result before it
	// is fanned out to subscribers — a test and embedding hook, called on
	// shard goroutines under the engine Handler contract.
	OnResult func(engine.Result)
}

// ingestBurst caps how many packages an ingest connection admits into the
// engine per call: the replay and live loops batch every record already
// buffered on the wire, up to the cap, into one burst.
const ingestBurst = 256

// modelEntry is the server's mutable slot for one served model. The
// framework pointer is read at connection accept (and pinned for the
// connection's lifetime — a hot-swap never re-scores a live stream) and
// written by SwapModel.
type modelEntry struct {
	name string
	mu   sync.RWMutex
	fw   *core.Framework
	regs tap.RegisterMap
	// fp caches fw.Fingerprint(): the digest walks every model parameter,
	// far too expensive to recompute on each replay connection's
	// trace-pin check. Updated together with fw under mu.
	fp string

	swaps atomic.Uint64
}

// current returns the entry's framework, register map and cached
// fingerprint.
func (m *modelEntry) current() (*core.Framework, tap.RegisterMap, string) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.fw, m.regs, m.fp
}

// Server is the wire-to-verdict daemon: engine, ingest listener, verdict
// hub and ops endpoint. Create with New, attach listeners with
// ListenIngest / ListenVerdicts / ListenHTTP, stop with Shutdown.
type Server struct {
	cfg    Config
	eng    *engine.Engine
	hub    *hub
	models map[string]*modelEntry
	def    *modelEntry

	mu        sync.Mutex
	closed    bool
	listeners []net.Listener
	active    map[string]net.Conn // live ingest streams, by stream ID
	ingestWG  sync.WaitGroup
	acceptWG  sync.WaitGroup

	// burst caps the packages one ingest admission carries (ingestBurst;
	// tests lower it).
	burst int
	// swapLimit caps a /swap request body (maxSwapBody; tests lower it).
	swapLimit int64
	// frames holds, per engine shard, the frame accumulating the current
	// tick's encoded events. Each slot is touched only by its shard's
	// worker goroutine (handleResult and the TickEnd callback run there),
	// so the slice needs no locking.
	frames []*frame
	// scratch is the per-shard event-encoding staging buffer (see
	// appendEvent); like frames, each slot is touched only by its shard's
	// goroutine.
	scratch [][]byte

	nextID atomic.Uint64
	// Connection and admission counters (see ServerStats).
	accepted atomic.Uint64
	rejected atomic.Uint64
	replayed atomic.Uint64
	live     atomic.Uint64
	shed     atomic.Uint64
	// Ingest-plane counters: bytes and records read off ingest
	// connections, and engine admissions (bursts plus the packages they
	// carried — burstPkgs/bursts is the mean admitted burst width).
	ingestBytes   atomic.Uint64
	ingestRecords atomic.Uint64
	bursts        atomic.Uint64
	burstPkgs     atomic.Uint64

	statsMu    sync.Mutex
	lastStats  engine.Stats
	lastServer ServerStats
	lastTime   time.Time
}

// ServerStats is a point-in-time snapshot of the daemon's own counters,
// alongside the engine's Stats.
type ServerStats struct {
	// ActiveConns is the number of ingest connections currently serving;
	// AcceptedConns and RejectedConns count handshakes over the lifetime.
	ActiveConns, AcceptedConns, RejectedConns uint64
	// Replayed and Live count packages admitted per ingest mode; Shed
	// counts live packages dropped on a full shard queue.
	Replayed, Live, Shed uint64
	// IngestBytes and IngestRecords count the payload the ingest
	// connections read off the wire: every connection byte (handshakes
	// included) and every decoded record/frame, admitted or shed.
	IngestBytes, IngestRecords uint64
	// IngestBursts counts engine admission calls; IngestBurstPkgs the
	// packages they carried.
	IngestBursts, IngestBurstPkgs uint64
	// Subscribers is the number of attached verdict subscribers;
	// SubscriberDrops counts events lost to slow (or abandoned)
	// subscribers.
	Subscribers     uint64
	SubscriberDrops uint64
	// HubPublishes counts published verdict frames; HubPublishedEvents the
	// events they carried (see MeanPublishBatch).
	HubPublishes, HubPublishedEvents uint64
	// ModelSwaps counts SwapModel cutovers across all models.
	ModelSwaps uint64
}

// MeanIngestBurst is the mean number of packages per engine admission
// call — how much submit amortization the ingest bursting bought.
func (s ServerStats) MeanIngestBurst() float64 {
	if s.IngestBursts == 0 {
		return 0
	}
	return float64(s.IngestBurstPkgs) / float64(s.IngestBursts)
}

// MeanPublishBatch is the mean number of events per published verdict
// frame — how much fan-out amortization the tick coalescing bought.
func (s ServerStats) MeanPublishBatch() float64 {
	if s.HubPublishes == 0 {
		return 0
	}
	return float64(s.HubPublishedEvents) / float64(s.HubPublishes)
}

// Since returns the interval delta between two snapshots of the same
// server: cumulative counters minus their value in prev, following
// engine.Stats.Since. Gauges (ActiveConns, Subscribers) keep s's
// point-in-time value. prev must be the earlier snapshot (the zero
// ServerStats works as "since start").
func (s ServerStats) Since(prev ServerStats) ServerStats {
	d := s
	d.AcceptedConns -= prev.AcceptedConns
	d.RejectedConns -= prev.RejectedConns
	d.Replayed -= prev.Replayed
	d.Live -= prev.Live
	d.Shed -= prev.Shed
	d.IngestBytes -= prev.IngestBytes
	d.IngestRecords -= prev.IngestRecords
	d.IngestBursts -= prev.IngestBursts
	d.IngestBurstPkgs -= prev.IngestBurstPkgs
	d.SubscriberDrops -= prev.SubscriberDrops
	d.HubPublishes -= prev.HubPublishes
	d.HubPublishedEvents -= prev.HubPublishedEvents
	d.ModelSwaps -= prev.ModelSwaps
	return d
}

// New builds a server and starts its engine. The caller owns no goroutines
// yet — attach listeners to accept traffic.
func New(cfg Config) (*Server, error) {
	if len(cfg.Models) == 0 {
		return nil, fmt.Errorf("serve: no models configured")
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 5 * time.Second
	}
	s := &Server{
		cfg:       cfg,
		hub:       newHub(cfg.SubscriberBuffer, cfg.SubscriberWriteTimeout),
		models:    make(map[string]*modelEntry, len(cfg.Models)),
		active:    make(map[string]net.Conn),
		burst:     ingestBurst,
		swapLimit: maxSwapBody,
		lastTime:  time.Now(),
	}
	// Coalesce verdict fan-out per shard tick: handleResult accumulates
	// into per-shard frames, and the engine's TickEnd callback (on the
	// same shard goroutine) publishes each shard's frame once per tick.
	s.cfg.Engine.TickEnd = s.tickEnd
	for _, m := range cfg.Models {
		if m.Name == "" {
			return nil, fmt.Errorf("serve: model with empty name")
		}
		if m.Framework == nil {
			return nil, fmt.Errorf("serve: model %q has no framework", m.Name)
		}
		if _, dup := s.models[m.Name]; dup {
			return nil, fmt.Errorf("serve: model %q configured twice", m.Name)
		}
		entry := &modelEntry{
			name: m.Name, fw: m.Framework, regs: m.Registers,
			fp: m.Framework.Fingerprint(),
		}
		s.models[m.Name] = entry
		if s.def == nil {
			s.def = entry
		}
	}
	eng, err := engine.New(cfg.Models[0].Framework, s.cfg.Engine, s.handleResult)
	if err != nil {
		return nil, err
	}
	s.eng = eng
	// Safe to size after New: TickEnd cannot fire before the first
	// submission, and no listener accepts traffic yet.
	s.frames = make([]*frame, eng.Shards())
	s.scratch = make([][]byte, eng.Shards())
	// Non-default models must support the engine's stack too, fail-fast at
	// startup rather than on their first connection.
	for _, m := range cfg.Models[1:] {
		if _, err := m.Framework.NewStack(eng.StackSpec()); err != nil {
			eng.Stop()
			return nil, fmt.Errorf("serve: model %q: %w", m.Name, err)
		}
	}
	return s, nil
}

// Engine exposes the embedded engine (stats, barriers) to embedders and
// tests.
func (s *Server) Engine() *engine.Engine { return s.eng }

// handleResult is the engine Handler: observe, encode once, and append
// the event to the shard's pending frame (published by tickEnd).
func (s *Server) handleResult(r engine.Result) {
	if s.cfg.OnResult != nil {
		s.cfg.OnResult(r)
	}
	f := s.frames[r.Shard]
	if f == nil {
		f = s.hub.newFrame()
		s.frames[r.Shard] = f
	}
	f.buf, s.scratch[r.Shard] = appendEvent(f.buf, s.scratch[r.Shard], r)
	f.events++
}

// tickEnd is the engine's per-shard tick callback: publish the shard's
// coalesced frame — one hub pass per tick instead of one per event. It
// runs on the shard goroutine, after the tick's last handleResult.
func (s *Server) tickEnd(shard int) {
	if f := s.frames[shard]; f != nil && f.events > 0 {
		s.frames[shard] = nil
		s.hub.publishFrame(f)
	}
}

// ListenIngest binds the ingest listener and starts accepting device
// connections. It returns the bound address (for ":0" ephemeral binds).
func (s *Server) ListenIngest(addr string) (string, error) {
	return s.listen(addr, s.serveIngest)
}

// ListenVerdicts binds the verdict subscription listener.
func (s *Server) ListenVerdicts(addr string) (string, error) {
	return s.listen(addr, s.serveSubscribe)
}

// listen binds one listener and runs an accept loop feeding handler.
func (s *Server) listen(addr string, handler func(net.Conn)) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen: %w", err)
	}
	if err := s.track(ln); err != nil {
		return "", err
	}
	go func() {
		defer s.acceptWG.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go handler(conn)
		}
	}()
	return ln.Addr().String(), nil
}

// track registers a bound listener, and its accept loop, with Shutdown —
// or closes it when the server is already shut down.
func (s *Server) track(ln net.Listener) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		ln.Close()
		return fmt.Errorf("serve: server is shut down")
	}
	s.listeners = append(s.listeners, ln)
	s.acceptWG.Add(1)
	return nil
}

// model resolves a handshake model name.
func (s *Server) model(name string) (*modelEntry, error) {
	if name == "" {
		return s.def, nil
	}
	if entry, ok := s.models[name]; ok {
		return entry, nil
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// claimStream reserves a stream ID for one ingest connection. Stream IDs
// name engine streams, so two live connections must never share one.
func (s *Server) claimStream(stream string, conn net.Conn) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server is shutting down")
	}
	if _, busy := s.active[stream]; busy {
		return fmt.Errorf("stream %q is already connected", stream)
	}
	s.active[stream] = conn
	s.ingestWG.Add(1)
	return nil
}

// releaseStream unmaps a finished connection and releases its engine
// stream, so connection churn cannot grow engine state without bound. A
// release racing Stop (shutdown force-close) is quietly skipped — Stop
// frees everything anyway.
func (s *Server) releaseStream(stream string) {
	s.mu.Lock()
	delete(s.active, stream)
	s.mu.Unlock()
	_ = s.eng.Release(stream)
	s.ingestWG.Done()
}

// serveIngest handles one device connection: handshake, claim the stream,
// then pump frames into the engine until EOF.
func (s *Server) serveIngest(conn net.Conn) {
	defer conn.Close()
	if s.cfg.IdleTimeout > 0 {
		// Wrap before the buffered reader so every read on the connection —
		// handshake, replay records, live frames — re-arms the deadline.
		conn = &idleConn{Conn: conn, timeout: s.cfg.IdleTimeout}
	}
	// Count every ingest byte read off the wire (IngestBytes).
	conn = &countingConn{Conn: conn, count: &s.ingestBytes}
	br := bufio.NewReader(conn)
	h, err := readHello(br)
	if err != nil {
		s.rejected.Add(1)
		writeStatus(conn, 1, err.Error())
		return
	}
	entry, err := s.model(h.Model)
	if err != nil {
		s.rejected.Add(1)
		writeStatus(conn, 1, err.Error())
		return
	}
	// Pin the model now: a hot-swap during this connection's lifetime must
	// not re-score a live recurrent stream with different weights.
	fw, regs, fp := entry.current()
	stream := h.Stream
	if stream == "" {
		stream = fmt.Sprintf("conn-%d", s.nextID.Add(1))
	}
	if err := s.claimStream(stream, conn); err != nil {
		s.rejected.Add(1)
		writeStatus(conn, 1, err.Error())
		return
	}
	release := sync.OnceFunc(func() { s.releaseStream(stream) })
	defer release()
	if h.Precision != "" {
		p, err := core.ParsePrecision(h.Precision)
		if err == nil {
			err = s.eng.BindPrecision(stream, p)
		}
		if err != nil {
			s.rejected.Add(1)
			writeStatus(conn, 1, err.Error())
			return
		}
	}
	if err := writeStatus(conn, 0, ""); err != nil {
		return
	}
	s.accepted.Add(1)
	switch h.Mode {
	case ModeReplay:
		count, err := s.serveReplay(br, fw, fp, stream)
		// Release before answering: a client that re-dials the stream ID as
		// soon as Replay returns must find it free.
		release()
		if err != nil {
			writeStatus(conn, 1, err.Error())
			return
		}
		// Trailer: the peer half-closed its write side and reads this before
		// closing. A vanished peer is its own acknowledgement.
		if err := writeStatus(conn, 0, ""); err == nil {
			var buf [10]byte
			conn.Write(buf[:putUvarint(buf[:], count)])
		}
	case ModeLive:
		s.serveLive(br, fw, regs, stream)
	}
}

// serveReplay streams a recorded trace into the engine with blocking
// admission: every record is decoded through the exact tap rules
// (trace.Decoder) and submitted under the connection's model; a saturated
// engine pushes back on the socket. Records are admitted in bursts —
// decode until ingestBurst packages have accumulated or the reader's
// buffered data runs dry, then one SubmitBatchFor — so the engine's
// per-submit costs amortize over whatever the wire already delivered. It
// returns the accepted-package count at EOF, which the client gets in a
// trailing status, or the error to answer with instead.
func (s *Server) serveReplay(br *bufio.Reader, fw *core.Framework, fp, stream string) (uint64, error) {
	tr, err := trace.NewReader(br)
	if err != nil {
		return 0, err
	}
	hdr := tr.Header()
	if hdr.Fingerprint != "" && hdr.Fingerprint != fp {
		return 0, fmt.Errorf("trace is pinned to model %s, connection's model is %s", hdr.Fingerprint, fp)
	}
	dec := trace.NewDecoder(hdr)
	var count uint64
	var batch []*dataset.Package
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		// The engine owns the slice after submit; the next burst gets a
		// fresh one (one allocation amortized over the whole burst).
		if err := s.eng.SubmitBatchFor(fw, stream, batch); err != nil {
			return err
		}
		count += uint64(len(batch))
		s.bursts.Add(1)
		s.burstPkgs.Add(uint64(len(batch)))
		batch = nil
		return nil
	}
	// Each record is decoded into its Package before the next read, so
	// one reused Record and payload buffer carry the whole trace.
	var rec trace.Record
	var rbuf []byte
	for {
		rbuf, err = tr.NextInto(&rec, rbuf)
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, err
		}
		pkg, err := dec.Decode(&rec)
		if err != nil {
			return 0, err
		}
		s.ingestRecords.Add(1)
		if batch == nil {
			batch = make([]*dataset.Package, 0, s.burst)
		}
		batch = append(batch, pkg)
		// Flush when the burst is full or the wire has nothing more
		// buffered — trace.NewReader(br) reuses br (bufio on bufio is the
		// identity), so Buffered() sees exactly the decoder's unread data.
		if len(batch) >= s.burst || br.Buffered() == 0 {
			if err := flush(); err != nil {
				return 0, err
			}
		}
	}
	if err := flush(); err != nil {
		return 0, err
	}
	s.replayed.Add(count)
	return count, nil
}

// serveLive pumps raw Modbus/TCP frames into the engine with shedding
// admission: frames are decoded exactly as the live tap decodes them, with
// direction inferred from the MBAP transaction ID (an unseen ID opens a
// command, a matching outstanding ID closes it as the response). Each
// wakeup blocks for one frame, then drains every complete MBAP frame
// already sitting in the read buffer (up to ingestBurst) and admits the
// burst with one TrySubmitBatchFor — a full shard queue drops the whole
// burst and counts the shed instead of stalling the wire.
func (s *Server) serveLive(br *bufio.Reader, fw *core.Framework, regs tap.RegisterMap, stream string) {
	dec := &liveDecoder{regs: regs, started: time.Now()}
	fr := modbus.NewFrameReader(br)
	for {
		f, err := fr.Next()
		if err != nil {
			return
		}
		s.ingestRecords.Add(1)
		batch := append(make([]*dataset.Package, 0, s.burst), dec.decode(f))
		for len(batch) < s.burst && bufferedFrame(br) {
			f, err := fr.Next()
			if err != nil {
				return
			}
			s.ingestRecords.Add(1)
			batch = append(batch, dec.decode(f))
		}
		ok, err := s.eng.TrySubmitBatchFor(fw, stream, batch)
		if err != nil {
			return
		}
		s.bursts.Add(1)
		s.burstPkgs.Add(uint64(len(batch)))
		if ok {
			s.live.Add(uint64(len(batch)))
		} else {
			s.shed.Add(uint64(len(batch)))
		}
	}
}

// liveDecoder turns one live Modbus/TCP frame into the Table I package
// schema, carrying the per-connection direction table and clock.
type liveDecoder struct {
	regs tap.RegisterMap
	// outstanding has one bit per transaction ID, set while a command with
	// that ID awaits its response; open counts the set bits.
	outstanding [1 << 16 / 64]uint64
	open        int
	started     time.Time
}

func (d *liveDecoder) decode(f *modbus.TCPFrame) *dataset.Package {
	tid := f.Header.TransactionID
	word, bit := &d.outstanding[tid/64], uint64(1)<<(tid%64)
	isCmd := *word&bit == 0
	if isCmd {
		*word |= bit
		d.open++
		if d.open > 4096 {
			// A peer that never answers its own commands would fill the
			// direction table; resetting mis-directs only the responses of
			// the dropped transactions.
			clear(d.outstanding[:])
			d.open = 0
		}
	} else {
		*word &^= bit
		d.open--
	}
	pkg := &dataset.Package{
		Address:  float64(f.Header.UnitID),
		Function: float64(f.PDU.Function),
		Length:   float64(mbapHeaderLen + f.PDU.Length()),
		Time:     time.Since(d.started).Seconds(),
	}
	if isCmd {
		pkg.CmdResponse = 1
	}
	d.regs.DecodePDU(pkg, f.PDU, isCmd)
	return pkg
}

// mbapHeaderLen is the MBAP header's size on the wire: TID u16, protocol
// u16, length u16, unit u8.
const mbapHeaderLen = 7

// bufferedFrame reports whether a complete MBAP frame is already sitting
// in br's buffer — the live burst loop's "drain without blocking" probe.
// A buffered header whose length field is invalid reports true so the
// next frame read surfaces the framing error.
func bufferedFrame(br *bufio.Reader) bool {
	if br.Buffered() < mbapHeaderLen {
		return false
	}
	hdr, err := br.Peek(mbapHeaderLen)
	if err != nil {
		return false
	}
	length := binary.BigEndian.Uint16(hdr[4:6])
	if length < 1 {
		return true
	}
	// A full frame is the 6 fixed header bytes plus length (unit + PDU).
	return br.Buffered() >= 6+int(length)
}

// serveSubscribe handshakes one verdict subscriber and hands the
// connection to the hub. The hub registers the subscriber before its writer
// acknowledges the handshake, so every verdict published after Subscribe
// returns is delivered or counted as a drop.
func (s *Server) serveSubscribe(conn net.Conn) {
	br := bufio.NewReader(conn)
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil || m != subscribeMagic {
		writeStatus(conn, 1, "not a subscription connection (bad magic)")
		conn.Close()
		return
	}
	var ver [2]byte
	if _, err := io.ReadFull(br, ver[:]); err != nil {
		conn.Close()
		return
	}
	if v := uint16(ver[0])<<8 | uint16(ver[1]); v != ProtocolVersion {
		writeStatus(conn, 1, fmt.Sprintf("protocol version %d (this server speaks %d)", v, ProtocolVersion))
		conn.Close()
		return
	}
	if !s.hub.add(conn, appendStatus(nil, 0, "")) {
		writeStatus(conn, 1, "server is shutting down")
		conn.Close()
	}
}

// SwapModel replaces a served model's framework — the hot-swap path for
// retrained icstrain checkpoints. The new framework must support the
// engine's stack; an engine Barrier then provides the consistent cutover
// point: every package submitted before the swap is classified under the
// weights it was admitted with, connections accepted after SwapModel
// returns bind the new framework, and connections alive across the swap
// keep their pinned framework (recurrent state is model-specific, so
// re-scoring them would corrupt their streams).
func (s *Server) SwapModel(name string, fw *core.Framework) error {
	entry, err := s.model(name)
	if err != nil {
		return fmt.Errorf("serve: swap: %w", err)
	}
	if fw == nil {
		return fmt.Errorf("serve: swap: nil framework")
	}
	if _, err := fw.NewStack(s.eng.StackSpec()); err != nil {
		return fmt.Errorf("serve: swap %q: %w", entry.name, err)
	}
	if err := s.eng.Barrier(); err != nil {
		return fmt.Errorf("serve: swap %q: %w", entry.name, err)
	}
	fp := fw.Fingerprint()
	entry.mu.Lock()
	entry.fw = fw
	entry.fp = fp
	entry.mu.Unlock()
	entry.swaps.Add(1)
	return nil
}

// Stats snapshots the daemon's own counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	activeConns := uint64(len(s.active))
	s.mu.Unlock()
	var swaps uint64
	for _, entry := range s.models {
		swaps += entry.swaps.Load()
	}
	return ServerStats{
		ActiveConns:        activeConns,
		AcceptedConns:      s.accepted.Load(),
		RejectedConns:      s.rejected.Load(),
		Replayed:           s.replayed.Load(),
		Live:               s.live.Load(),
		Shed:               s.shed.Load(),
		IngestBytes:        s.ingestBytes.Load(),
		IngestRecords:      s.ingestRecords.Load(),
		IngestBursts:       s.bursts.Load(),
		IngestBurstPkgs:    s.burstPkgs.Load(),
		Subscribers:        uint64(s.hub.count()),
		SubscriberDrops:    s.hub.drops.Load(),
		HubPublishes:       s.hub.publishes.Load(),
		HubPublishedEvents: s.hub.publishedEvents.Load(),
		ModelSwaps:         swaps,
	}
}

// SubscriberStats snapshots every attached verdict subscriber: queue
// depth (frames pending), capacity and per-subscriber drops.
func (s *Server) SubscriberStats() []SubscriberStats {
	return s.hub.subscriberStats()
}

// Shutdown is the graceful drain: stop accepting, wait for live ingest
// connections to finish (bounded by DrainGrace, then force-close), drain
// the engine queues via Stop — every admitted package is classified — and
// flush the verdict subscribers before detaching them. It returns the
// engine's Stop error (the first recovered handler panic, if any).
// Shutdown is idempotent.
func (s *Server) Shutdown() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return s.eng.Stop()
	}
	s.closed = true
	for _, ln := range s.listeners {
		ln.Close()
	}
	s.mu.Unlock()
	s.acceptWG.Wait()

	done := make(chan struct{})
	go func() {
		s.ingestWG.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(s.cfg.DrainGrace):
		s.mu.Lock()
		for _, conn := range s.active {
			conn.Close()
		}
		s.mu.Unlock()
		<-done
	}

	err := s.eng.Stop()
	s.hub.close(s.cfg.DrainGrace)
	return err
}

// idleConn arms a fresh read deadline before every Read, so the deadline
// measures inactivity, not total connection lifetime. When the peer goes
// silent past the timeout the read fails with a timeout error and the
// handler unwinds through its usual release path.
type idleConn struct {
	net.Conn
	timeout time.Duration
}

func (c *idleConn) Read(b []byte) (int, error) {
	if err := c.Conn.SetReadDeadline(time.Now().Add(c.timeout)); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

// countingConn counts the bytes read off an ingest connection into the
// server's IngestBytes counter.
type countingConn struct {
	net.Conn
	count *atomic.Uint64
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.count.Add(uint64(n))
	}
	return n, err
}

// putUvarint is binary.PutUvarint without the import-side dependency
// spelled out at the call site.
func putUvarint(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
