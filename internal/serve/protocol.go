// Package serve is the wire-to-verdict serving plane: a long-running
// daemon wrapping internal/engine that accepts network connections from
// monitored devices, maps each connection onto one engine stream (bind on
// accept, Release on close), and fans classified verdicts out to
// subscribers.
//
// The daemon speaks three protocols on three listeners:
//
//   - Ingest (this file): a connection handshakes with an 8-byte magic,
//     a version, a mode byte and three uvarint-prefixed strings (stream ID,
//     model name, precision), then streams either a recorded ICSTRACE
//     byte stream (replay mode, admitted in bursts with blocking
//     SubmitBatchFor — a saturated engine pushes back on the socket) or
//     raw Modbus/TCP frames (live mode, admitted in bursts with
//     TrySubmitBatchFor — an in-path tap sheds rather than stalls the
//     protocol path).
//   - Verdicts: a subscriber handshakes with its own magic and then
//     receives every engine.Result as a length-prefixed binary event,
//     through a per-subscriber bounded buffer with slow-consumer drop
//     accounting (see hub.go).
//   - HTTP ops: health, interval-delta metrics over engine.ShardStats,
//     and model hot-swap (see http.go).
//
// All multi-byte integers are big-endian; "uvarint"/"varint" are the
// varints of encoding/binary in their shortest form (a longer encoding of
// the same value is rejected, so every message has exactly one wire form).
// Strings are uvarint length + UTF-8 bytes.
//
// Ingest handshake:
//
//	hello  := magic "ICSSERVE" (8 bytes)
//	          version u16        // this package speaks 1
//	          mode    u8         // 1 = replay, 2 = live
//	          stream    string   // engine stream ID; empty = server-assigned
//	          model     string   // model name; empty = server default
//	          precision string   // numeric tier; empty = engine default
//	status := code u8            // 0 = ok, non-zero = rejected
//	          message string     // empty on ok
//
// The server answers the hello with a status. In replay mode the payload
// that follows is an ICSTRACE v1 stream (header + records, see package
// trace); at EOF the server answers with a trailing status plus a uvarint
// count of the packages it accepted. In live mode the payload is a
// sequence of MBAP-framed Modbus/TCP frames and has no trailer; direction
// is inferred per frame from the MBAP transaction ID (an unseen ID opens a
// command, a matching outstanding ID closes it as the response).
//
// Verdict subscription:
//
//	subscribe := magic "ICSSUBSC" (8 bytes), version u16
//	status    := as above
//	event     := uvarint payloadLen, payload
//	payload   := stream string, seq uvarint,
//	             anomaly u8, level varint, rank varint, signature string,
//	             evidence uvarint n, n × (stage string, level varint,
//	               flags u8 (bit0 scored, bit1 flagged),
//	               score u64 (IEEE-754 bits), rank varint)
//
// Flag bits beyond those listed and payload bytes past the last field are
// rejected.
package serve

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
)

// ProtocolVersion is the ingest and subscription protocol version this
// package speaks.
const ProtocolVersion = 1

// Ingest modes.
const (
	// ModeReplay streams a recorded ICSTRACE capture; admission blocks on
	// the engine's bounded queues (every package is classified).
	ModeReplay = 1
	// ModeLive streams raw Modbus/TCP frames from an in-path tap;
	// admission sheds on a full shard queue instead of stalling the wire.
	ModeLive = 2
)

var (
	ingestMagic    = [8]byte{'I', 'C', 'S', 'S', 'E', 'R', 'V', 'E'}
	subscribeMagic = [8]byte{'I', 'C', 'S', 'S', 'U', 'B', 'S', 'C'}
)

// Limits guarding the decoders against corrupt or hostile peers.
const (
	maxStringLen = 1024
	maxEventLen  = 1 << 20
	maxEvidence  = 4096
)

// hello is a parsed ingest handshake.
type hello struct {
	Mode      byte
	Stream    string
	Model     string
	Precision string
}

// appendString serializes a uvarint-prefixed string.
func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// errLongVarint rejects a varint longer than its value needs.
var errLongVarint = errors.New("serve: varint too long for its value")

// readUvarint is binary.ReadUvarint restricted to the shortest form: a
// last byte of zero after a continuation byte adds nothing.
func readUvarint(br *bufio.Reader) (uint64, error) {
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := br.ReadByte()
		if err != nil {
			if err == io.EOF && i > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		x |= uint64(b&0x7f) << (7 * i)
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, errLongVarint
			}
			return x, nil
		}
	}
	return 0, errLongVarint
}

// readProtoString reads a uvarint-prefixed string.
func readProtoString(br *bufio.Reader) (string, error) {
	n, err := readUvarint(br)
	if err != nil {
		return "", err
	}
	if n > maxStringLen {
		return "", fmt.Errorf("serve: string of %d bytes exceeds limit", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// appendHello serializes an ingest handshake.
func appendHello(b []byte, h hello) []byte {
	b = append(b, ingestMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, ProtocolVersion)
	b = append(b, h.Mode)
	b = appendString(b, h.Stream)
	b = appendString(b, h.Model)
	b = appendString(b, h.Precision)
	return b
}

// readHello parses an ingest handshake.
func readHello(br *bufio.Reader) (hello, error) {
	var h hello
	var m [8]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return h, fmt.Errorf("serve: read handshake: %w", err)
	}
	if m != ingestMagic {
		return h, fmt.Errorf("serve: not an ingest connection (bad magic)")
	}
	var fixed [3]byte
	if _, err := io.ReadFull(br, fixed[:]); err != nil {
		return h, fmt.Errorf("serve: truncated handshake: %w", err)
	}
	if v := binary.BigEndian.Uint16(fixed[0:2]); v != ProtocolVersion {
		return h, fmt.Errorf("serve: protocol version %d (this server speaks %d)", v, ProtocolVersion)
	}
	h.Mode = fixed[2]
	if h.Mode != ModeReplay && h.Mode != ModeLive {
		return h, fmt.Errorf("serve: unknown ingest mode %d", h.Mode)
	}
	var err error
	if h.Stream, err = readProtoString(br); err != nil {
		return h, fmt.Errorf("serve: handshake stream: %w", err)
	}
	if h.Model, err = readProtoString(br); err != nil {
		return h, fmt.Errorf("serve: handshake model: %w", err)
	}
	if h.Precision, err = readProtoString(br); err != nil {
		return h, fmt.Errorf("serve: handshake precision: %w", err)
	}
	return h, nil
}

// writeStatus answers a handshake (or closes a replay) with a status code
// and message. Write errors are returned for the caller to log or ignore —
// the peer may already be gone.
func writeStatus(w io.Writer, code byte, msg string) error {
	_, err := w.Write(appendStatus(make([]byte, 0, 2+len(msg)), code, msg))
	return err
}

// appendStatus appends the wire form of a status answer to b.
func appendStatus(b []byte, code byte, msg string) []byte {
	if len(msg) > maxStringLen {
		msg = msg[:maxStringLen]
	}
	return appendString(append(b, code), msg)
}

// readStatus parses a status answer; a non-zero code comes back as an
// error carrying the server's message.
func readStatus(br *bufio.Reader) error {
	code, err := br.ReadByte()
	if err != nil {
		return fmt.Errorf("serve: read status: %w", err)
	}
	msg, err := readProtoString(br)
	if err != nil {
		return fmt.Errorf("serve: read status message: %w", err)
	}
	if code != 0 {
		return fmt.Errorf("serve: rejected: %s", msg)
	}
	return nil
}

// Event is one classified package as delivered to a verdict subscriber.
type Event struct {
	// Stream is the engine stream ID (the ingest connection's stream).
	Stream string
	// Seq is the package's 0-based position within its stream.
	Seq uint64
	// Verdict is the engine's verdict, evidence included.
	Verdict core.Verdict
}

// appendEvent serializes one result as a length-prefixed event. The
// payload is staged in scratch — grown as needed and returned for reuse —
// because the shard goroutines encode every verdict through here and a
// fresh staging buffer per event is pure GC pressure. Pass nil when the
// call is not hot.
func appendEvent(b, scratch []byte, r engine.Result) ([]byte, []byte) {
	p := scratch[:0]
	p = appendString(p, r.Stream)
	p = binary.AppendUvarint(p, r.Seq)
	v := r.Verdict
	var flag byte
	if v.Anomaly {
		flag = 1
	}
	p = append(p, flag)
	p = binary.AppendVarint(p, int64(v.Level))
	p = binary.AppendVarint(p, int64(v.Rank))
	p = appendString(p, v.Signature)
	p = binary.AppendUvarint(p, uint64(len(v.Evidence)))
	for _, e := range v.Evidence {
		p = appendString(p, e.Stage)
		p = binary.AppendVarint(p, int64(e.Level))
		var eb byte
		if e.Scored {
			eb |= 1
		}
		if e.Flagged {
			eb |= 2
		}
		p = append(p, eb)
		p = binary.BigEndian.AppendUint64(p, math.Float64bits(e.Score))
		p = binary.AppendVarint(p, int64(e.Rank))
	}
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...), p
}

// eventCursor decodes an event payload in place. A subscriber pays this
// per verdict, so the cursor allocates nothing beyond the strings it
// returns (an interposed bufio layer here once dominated subscriber CPU);
// the first malformed field latches err and turns the rest into no-ops.
type eventCursor struct {
	b   []byte
	err error
}

func (c *eventCursor) fail(what string) {
	if c.err == nil {
		c.err = fmt.Errorf("serve: truncated event %s", what)
	}
}

// uvarint reads a uvarint in its shortest form.
func (c *eventCursor) uvarint(what string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b)
	switch {
	case n <= 0:
		c.fail(what)
		return 0
	case n > 1 && c.b[n-1] == 0:
		c.err = errLongVarint
		return 0
	}
	c.b = c.b[n:]
	return v
}

// varint reads a zig-zag varint: a uvarint underneath, in shortest form.
func (c *eventCursor) varint(what string) int64 {
	u := c.uvarint(what)
	return int64(u>>1) ^ -int64(u&1)
}

// flags reads a flag byte with no bits set outside mask.
func (c *eventCursor) flags(what string, mask byte) byte {
	v := c.u8(what)
	if v&^mask != 0 && c.err == nil {
		c.err = fmt.Errorf("serve: event %s %#x has unknown bits", what, v)
	}
	return v
}

func (c *eventCursor) u8(what string) byte {
	if c.err != nil {
		return 0
	}
	if len(c.b) == 0 {
		c.fail(what)
		return 0
	}
	v := c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *eventCursor) str(what string) string {
	n := c.uvarint(what)
	if c.err != nil {
		return ""
	}
	if n > maxStringLen {
		c.err = fmt.Errorf("serve: string of %d bytes exceeds limit", n)
		return ""
	}
	if uint64(len(c.b)) < n {
		c.fail(what)
		return ""
	}
	s := string(c.b[:n])
	c.b = c.b[n:]
	return s
}

func (c *eventCursor) f64(what string) float64 {
	if c.err != nil {
		return 0
	}
	if len(c.b) < 8 {
		c.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(c.b))
	c.b = c.b[8:]
	return v
}

// readEvent parses the next event off a subscription stream. It returns
// io.EOF at a clean end of stream.
func readEvent(br *bufio.Reader) (Event, error) {
	var ev Event
	plen, err := readUvarint(br)
	if err != nil {
		if err == io.EOF {
			return ev, io.EOF
		}
		return ev, fmt.Errorf("serve: event length: %w", err)
	}
	if plen > maxEventLen {
		return ev, fmt.Errorf("serve: event of %d bytes exceeds limit", plen)
	}
	payload := make([]byte, plen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return ev, fmt.Errorf("serve: truncated event: %w", err)
	}
	c := eventCursor{b: payload}
	ev.Stream = c.str("stream")
	ev.Seq = c.uvarint("seq")
	flag := c.flags("flags", 1)
	ev.Verdict.Anomaly = flag&1 != 0
	ev.Verdict.Level = core.Level(c.varint("level"))
	ev.Verdict.Rank = int(c.varint("rank"))
	ev.Verdict.Signature = c.str("signature")
	n := c.uvarint("evidence count")
	if c.err == nil && n > maxEvidence {
		return ev, fmt.Errorf("serve: event with %d evidence entries", n)
	}
	if c.err == nil && n > 0 {
		ev.Verdict.Evidence = make([]core.LevelEvidence, n)
		for i := range ev.Verdict.Evidence {
			e := &ev.Verdict.Evidence[i]
			e.Stage = c.str("evidence stage")
			e.Level = core.Level(c.varint("evidence level"))
			eb := c.flags("evidence flags", 3)
			e.Scored, e.Flagged = eb&1 != 0, eb&2 != 0
			e.Score = c.f64("evidence score")
			e.Rank = int(c.varint("evidence rank"))
			if c.err != nil {
				break
			}
		}
	}
	if c.err == nil && len(c.b) > 0 {
		c.err = fmt.Errorf("serve: %d bytes after the event's last field", len(c.b))
	}
	if c.err != nil {
		return ev, c.err
	}
	return ev, nil
}
