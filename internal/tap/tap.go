// Package tap implements a transparent Modbus/TCP network tap: a proxy that
// relays frames between masters and a slave while decoding every frame into
// the Table I package schema for the anomaly detector. This is the
// deployment shape the paper assumes — "anomaly detection systems for ICS
// are often deployed by monitoring the network traffic between field
// devices" (§III) — realized as an in-path software tap.
package tap

import (
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"time"

	"icsdetect/internal/dataset"
	"icsdetect/internal/modbus"
)

// RegisterMap describes how the monitored device lays out its controller
// state block in holding registers. Indices of -1 mark absent fields (a
// testbed without that column leaves the feature zero). Scaling follows the
// testbed conventions: process values, gains and rates are stored ×100,
// cycle time ×1000. Each scenario supplies its own layout (for example
// gaspipeline.Registers and watertank.Registers); field names refer to the
// Table I package columns the registers decode into, not to what the
// registers mean in the physical process — the water tank maps its level
// measurement onto the Pressure column and its alarm setpoints onto the PID
// parameter columns.
type RegisterMap struct {
	Setpoint  int
	Gain      int
	ResetRate int
	Deadband  int
	CycleTime int
	Rate      int
	Mode      int
	Scheme    int
	Pump      int
	Solenoid  int
	Pressure  int
	// MinRegisters is the smallest payload (in registers) that carries the
	// parameter block; shorter reads/writes are treated as partial and
	// leave the parameter columns zero.
	MinRegisters int
}

// field decodes register idx of regs, big-endian register bytes as they
// are on the wire.
func (m *RegisterMap) field(regs []byte, idx int, scale float64) float64 {
	if idx < 0 || idx >= len(regs)/2 {
		return 0
	}
	return float64(binary.BigEndian.Uint16(regs[2*idx:])) / scale
}

// DecodePDU populates the parameter columns of p from the function-specific
// payload of one PDU, given its direction: write-multiple commands carry the
// controller block the master is sending, register-read responses carry the
// block the device reported (including the pressure measurement); every
// other function leaves the parameter columns zero. This is the single
// frame→schema decode rule shared by the live tap and the trace replayer,
// so a replayed capture reconstructs exactly the packages the tap would
// have produced. Registers are read in place from pdu's payload.
func (m *RegisterMap) DecodePDU(p *dataset.Package, pdu *modbus.PDU, isCmd bool) {
	switch pdu.Function {
	case modbus.FuncWriteMultipleRegs:
		if isCmd {
			if _, regs, err := modbus.WriteMultipleData(pdu); err == nil {
				m.decode(p, regs)
			}
		}
	case modbus.FuncReadHoldingRegisters, modbus.FuncReadInputRegisters, modbus.FuncReadState:
		if !isCmd && !pdu.IsException() {
			if regs, err := modbus.ReadRegistersData(pdu); err == nil {
				m.decode(p, regs)
			}
		}
	}
}

// decode populates the parameter columns of p from a register payload,
// big-endian register bytes.
func (m *RegisterMap) decode(p *dataset.Package, regs []byte) {
	if len(regs)/2 < m.MinRegisters {
		return
	}
	p.Setpoint = m.field(regs, m.Setpoint, 100)
	p.Gain = m.field(regs, m.Gain, 100)
	p.ResetRate = m.field(regs, m.ResetRate, 100)
	p.Deadband = m.field(regs, m.Deadband, 100)
	p.CycleTime = m.field(regs, m.CycleTime, 1000)
	p.Rate = m.field(regs, m.Rate, 100)
	p.SystemMode = m.field(regs, m.Mode, 1)
	p.ControlScheme = m.field(regs, m.Scheme, 1)
	p.Pump = m.field(regs, m.Pump, 1)
	p.Solenoid = m.field(regs, m.Solenoid, 1)
	p.Pressure = m.field(regs, m.Pressure, 100)
}

// Proxy is the tap. Create with New, start with Listen, collect packages
// with Drain or stream them with SetSink.
type Proxy struct {
	upstream string
	regs     RegisterMap

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup
	closed   bool

	pkgMu    sync.Mutex
	buffered []capture
	// recSent counts the leading buffered entries whose frames have already
	// been delivered to a recorder; buffered[recSent:] are pending for one.
	recSent  int
	sink     func(*dataset.Package)
	recorder FrameFunc
	started  time.Time
}

// capture is one observed frame with its decoded package, buffered until a
// sink (package view) and recorder (frame view) consume it.
type capture struct {
	pkg   *dataset.Package
	raw   []byte
	isCmd bool
}

// FrameFunc receives one raw relayed frame (see SetRecorder): the wire
// bytes, the direction, and the package the tap decoded from it (whose Time
// field timestamps the frame). raw must not be retained or mutated. Like a
// sink, it is called from relay goroutines and must be safe for concurrent
// use unless the tap serves a single client.
type FrameFunc func(raw []byte, isCmd bool, pkg *dataset.Package)

// New creates a tap that forwards to the slave at upstream.
func New(upstream string, regs RegisterMap) *Proxy {
	return &Proxy{
		upstream: upstream,
		regs:     regs,
		conns:    make(map[net.Conn]struct{}),
		started:  time.Now(),
	}
}

// Listen binds the tap and returns its address. Each accepted client gets
// its own upstream connection; both directions are decoded.
func (p *Proxy) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("tap: listen: %w", err)
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ln.Close()
		return "", fmt.Errorf("tap: already closed")
	}
	p.listener = ln
	p.mu.Unlock()
	p.wg.Add(1)
	go p.acceptLoop(ln)
	return ln.Addr().String(), nil
}

// SetSink streams every decoded package to fn (called from relay
// goroutines; fn must be safe for concurrent use or the tap must serve one
// client). Any packages already buffered for Drain are first flushed to fn
// in arrival order, so switching from polling (Drain) to streaming loses
// nothing and never mixes the two delivery modes: packages recorded while
// the flush is in progress keep buffering and are drained before the sink
// is installed, so buffered packages are always delivered ahead of live
// ones. The flush calls fn outside the package lock — like live delivery —
// so a slow sink delays only delivery, never frame relaying. fn must not
// call SetSink. Passing nil reverts to buffering.
func (p *Proxy) SetSink(fn func(*dataset.Package)) {
	p.pkgMu.Lock()
	if fn == nil {
		p.sink = nil
		p.pkgMu.Unlock()
		return
	}
	for len(p.buffered) > 0 {
		// Entries whose frames a recorder has not consumed yet are released
		// too: the package view (sink/Drain) owns the buffer lifetime, and a
		// recorder only replays frames still buffered at attach time.
		buffered := p.buffered
		p.buffered = nil
		p.recSent = 0
		p.pkgMu.Unlock()
		for _, c := range buffered {
			fn(c.pkg)
		}
		p.pkgMu.Lock()
	}
	p.sink = fn
	p.pkgMu.Unlock()
}

// SetRecorder streams every relayed frame (raw bytes plus decoded package)
// to fn, independently of any package sink: a recorder and a sink can be
// attached in either order, simultaneously, without stealing each other's
// buffered packages. Frames still buffered for Drain/SetSink at attach time
// are first flushed to fn in arrival order — outside the package lock, with
// the same ordering discipline as SetSink, so frames relayed during the
// flush queue behind it rather than overtaking it. Buffer lifetime belongs
// to the package view: frames released by Drain or a SetSink flush before a
// recorder attaches are no longer replayable (the recorder then starts at
// the live stream). fn must not call SetRecorder; passing nil detaches.
func (p *Proxy) SetRecorder(fn FrameFunc) {
	p.pkgMu.Lock()
	if fn == nil {
		p.recorder = nil
		p.pkgMu.Unlock()
		return
	}
	for p.recSent < len(p.buffered) {
		pending := p.buffered[p.recSent:]
		p.recSent = len(p.buffered)
		p.pkgMu.Unlock()
		for _, c := range pending {
			fn(c.raw, c.isCmd, c.pkg)
		}
		p.pkgMu.Lock()
	}
	p.recorder = fn
	p.pkgMu.Unlock()
}

func (p *Proxy) acceptLoop(ln net.Listener) {
	defer p.wg.Done()
	for {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.upstream)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			client.Close()
			server.Close()
			return
		}
		p.conns[client] = struct{}{}
		p.conns[server] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(2)
		go p.relay(client, server, true)  // master → slave: commands
		go p.relay(server, client, false) // slave → master: responses
	}
}

func (p *Proxy) relay(src, dst net.Conn, isCmd bool) {
	defer p.wg.Done()
	defer func() {
		src.Close()
		dst.Close()
		p.mu.Lock()
		delete(p.conns, src)
		delete(p.conns, dst)
		p.mu.Unlock()
	}()
	for {
		frame, err := modbus.ReadTCPFrame(src)
		if err != nil {
			return
		}
		p.record(frame, isCmd)
		if err := modbus.WriteTCPFrame(dst, frame); err != nil {
			return
		}
	}
}

// record converts a frame to the Table I schema and delivers it.
func (p *Proxy) record(frame *modbus.TCPFrame, isCmd bool) {
	raw, err := modbus.EncodeTCP(frame)
	if err != nil {
		return
	}
	pkg := &dataset.Package{
		Address:  float64(frame.Header.UnitID),
		Function: float64(frame.PDU.Function),
		Length:   float64(len(raw)),
		Time:     time.Since(p.started).Seconds(),
	}
	if isCmd {
		pkg.CmdResponse = 1
	}
	p.regs.DecodePDU(pkg, frame.PDU, isCmd)

	p.pkgMu.Lock()
	sink, rec := p.sink, p.recorder
	if sink == nil {
		p.buffered = append(p.buffered, capture{pkg: pkg, raw: raw, isCmd: isCmd})
		if rec != nil {
			// The frame is delivered live below; only its package side stays
			// buffered.
			p.recSent = len(p.buffered)
		}
	}
	p.pkgMu.Unlock()
	if rec != nil {
		rec(raw, isCmd, pkg)
	}
	if sink != nil {
		sink(pkg)
	}
}

// Drain returns and clears the buffered packages. Frames not yet consumed
// by a recorder are released with them (polling mode trades frame replay
// for bounded memory).
func (p *Proxy) Drain() []*dataset.Package {
	p.pkgMu.Lock()
	defer p.pkgMu.Unlock()
	out := make([]*dataset.Package, len(p.buffered))
	for i, c := range p.buffered {
		out[i] = c.pkg
	}
	p.buffered = nil
	p.recSent = 0
	if len(out) == 0 {
		return nil
	}
	return out
}

// Close stops the tap and waits for all relay goroutines.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.wg.Wait()
		return
	}
	p.closed = true
	if p.listener != nil {
		p.listener.Close()
	}
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
}
