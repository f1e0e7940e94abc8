package serve

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"icsdetect/internal/trace"
)

// This file is the client side of the ingest and subscription protocols:
// what a replay harness (or cmd/icsserved -selftest, or the e2e tests)
// speaks against a running daemon. Live-mode clients are just Modbus
// masters — they need no helper beyond DialLive's handshake.

// ReplayOptions selects the model, stream identity and pacing hooks of a
// Replay call. The zero value replays under the server's default model
// with a server-assigned stream ID.
type ReplayOptions struct {
	// Stream is the engine stream ID; empty lets the server assign one.
	Stream string
	// Model names the server-side model; empty means the default.
	Model string
	// Precision pins the stream's numeric tier ("f32"); empty means the
	// engine default.
	Precision string
	// OnRecord, when non-nil, is called before each record is written
	// (0-based index) — the hook mid-replay orchestration (hot-swap
	// drills) keys on.
	OnRecord func(i int)
	// FlushEvery, with OnRecord set, flushes the connection every N
	// records instead of after every one — per-record hooks without
	// per-record syscalls, the load-generator shape (send times stamped
	// per record, writes in chunks so the server's burst path sees
	// realistic wire batches). 0 or 1 keeps the per-record flush.
	FlushEvery int
}

// Replay streams a recorded trace to a daemon's ingest listener and
// returns the number of packages the server accepted. The raw argument is
// a complete ICSTRACE byte stream (a testdata .trace file).
func Replay(addr string, raw []byte, opts ReplayOptions) (uint64, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return 0, fmt.Errorf("serve: dial ingest: %w", err)
	}
	defer conn.Close()
	hb := appendHello(nil, hello{
		Mode: ModeReplay, Stream: opts.Stream, Model: opts.Model, Precision: opts.Precision,
	})
	if _, err := conn.Write(hb); err != nil {
		return 0, fmt.Errorf("serve: send handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	if err := readStatus(br); err != nil {
		return 0, err
	}
	if opts.OnRecord == nil {
		if _, err := conn.Write(raw); err != nil {
			return 0, fmt.Errorf("serve: send trace: %w", err)
		}
	} else {
		// Record-granular writes so the hook observes replay progress.
		hdr, recs, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			return 0, fmt.Errorf("serve: parse trace: %w", err)
		}
		tw, err := trace.NewWriter(conn, hdr)
		if err != nil {
			return 0, err
		}
		every := opts.FlushEvery
		if every < 1 {
			every = 1
		}
		for i, rec := range recs {
			opts.OnRecord(i)
			if err := tw.Write(rec); err != nil {
				return 0, fmt.Errorf("serve: send record %d: %w", i, err)
			}
			if (i+1)%every == 0 {
				if err := tw.Flush(); err != nil {
					return 0, fmt.Errorf("serve: send record %d: %w", i, err)
				}
			}
		}
		if err := tw.Flush(); err != nil {
			return 0, fmt.Errorf("serve: flush trace: %w", err)
		}
	}
	// Half-close: the server sees EOF, drains, and answers the trailer.
	if tc, ok := conn.(*net.TCPConn); ok {
		if err := tc.CloseWrite(); err != nil {
			return 0, fmt.Errorf("serve: close write: %w", err)
		}
	}
	if err := readStatus(br); err != nil {
		return 0, err
	}
	count, err := binary.ReadUvarint(br)
	if err != nil {
		return 0, fmt.Errorf("serve: read trailer count: %w", err)
	}
	return count, nil
}

// DialLive opens a live-mode ingest connection: after the returned
// connection is handed back, the caller streams raw MBAP-framed
// Modbus/TCP bytes (modbus.WriteTCPFrame) and closes when done.
func DialLive(addr string, opts ReplayOptions) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial ingest: %w", err)
	}
	hb := appendHello(nil, hello{
		Mode: ModeLive, Stream: opts.Stream, Model: opts.Model, Precision: opts.Precision,
	})
	if _, err := conn.Write(hb); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: send handshake: %w", err)
	}
	if err := readStatus(bufio.NewReader(conn)); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// Subscription is an attached verdict stream.
type Subscription struct {
	conn net.Conn
	br   *bufio.Reader
}

// Subscribe attaches to a daemon's verdict listener.
func Subscribe(addr string) (*Subscription, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("serve: dial verdicts: %w", err)
	}
	var b []byte
	b = append(b, subscribeMagic[:]...)
	b = binary.BigEndian.AppendUint16(b, ProtocolVersion)
	if _, err := conn.Write(b); err != nil {
		conn.Close()
		return nil, fmt.Errorf("serve: send handshake: %w", err)
	}
	br := bufio.NewReader(conn)
	if err := readStatus(br); err != nil {
		conn.Close()
		return nil, err
	}
	return &Subscription{conn: conn, br: br}, nil
}

// Next reads the next event, blocking until one arrives. It returns
// io.EOF when the server flushed and closed the stream (shutdown).
func (s *Subscription) Next() (Event, error) {
	ev, err := readEvent(s.br)
	if err != nil && err != io.EOF {
		return ev, err
	}
	return ev, err
}

// Close detaches the subscriber.
func (s *Subscription) Close() error { return s.conn.Close() }
