package serve

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
)

// testEvent encodes one synthetic result as a wire event.
func testEvent(stream string, seq uint64) []byte {
	b, _ := appendEvent(nil, nil, engine.Result{
		Stream:  stream,
		Seq:     seq,
		Verdict: core.Verdict{Anomaly: seq%2 == 0, Level: 1, Signature: "sig"},
	})
	return b
}

// publishOne publishes one pre-encoded event as a single-event frame —
// the granularity the conservation arithmetic of these tests is written
// in.
func publishOne(h *hub, b []byte) {
	f := h.newFrame()
	f.buf = append(f.buf, b...)
	f.events = 1
	h.publishFrame(f)
}

// TestHubSlowConsumerDrops: a subscriber that never reads loses events
// (counted) without ever blocking publish, while a healthy subscriber on
// the same hub receives everything it can drain.
func TestHubSlowConsumerDrops(t *testing.T) {
	h := newHub(4, 0)

	slowSrv, slowCli := net.Pipe() // nobody reads slowCli: writes park forever
	defer slowCli.Close()
	if !h.add(slowSrv, nil) {
		t.Fatal("add slow subscriber")
	}

	fastSrv, fastCli := net.Pipe()
	if !h.add(fastSrv, nil) {
		t.Fatal("add fast subscriber")
	}
	var gotMu sync.Mutex
	var got []string
	fastDone := make(chan struct{})
	go func() {
		defer close(fastDone)
		br := bufio.NewReader(fastCli)
		for {
			ev, err := readEvent(br)
			if err != nil {
				return
			}
			gotMu.Lock()
			got = append(got, ev.Stream)
			gotMu.Unlock()
		}
	}()

	// Publish far past the slow subscriber's buffer. Publish must never
	// block: a wedged subscriber cannot be allowed to stall the engine's
	// handler goroutines.
	const events = 200
	published := make(chan struct{})
	go func() {
		defer close(published)
		for i := 0; i < events; i++ {
			publishOne(h, testEvent(fmt.Sprintf("s-%03d", i), uint64(i)))
		}
	}()
	select {
	case <-published:
	case <-time.After(10 * time.Second):
		t.Fatal("publish blocked on a slow subscriber")
	}

	// The slow subscriber's writer is parked in a blocking Write; close must
	// force it loose after the grace window instead of hanging Shutdown.
	closed := make(chan struct{})
	go func() {
		h.close(100 * time.Millisecond)
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("hub close hung on a wedged subscriber")
	}
	<-fastDone
	fastCli.Close()

	gotMu.Lock()
	defer gotMu.Unlock()
	drops := h.drops.Load()
	if drops == 0 {
		t.Error("slow subscriber registered no drops")
	}
	if len(got) == 0 {
		t.Fatal("fast subscriber received nothing")
	}
	// Conservation: every published event was either delivered into a
	// subscriber queue or counted as dropped, across both subscribers.
	delivered := h.delivered.Load()
	if delivered+drops != 2*events {
		t.Errorf("delivered %d + dropped %d != published %d × 2 subscribers", delivered, drops, 2*events)
	}
}

// TestHubSubscriberErrorRemoves: a subscriber whose connection dies is
// removed from the hub; publishing afterwards neither blocks nor panics,
// and close() still returns.
func TestHubSubscriberErrorRemoves(t *testing.T) {
	h := newHub(4, 0)
	srv, cli := net.Pipe()
	if !h.add(srv, nil) {
		t.Fatal("add")
	}
	cli.Close() // next write errors

	ev := testEvent("x", 0)
	deadline := time.Now().Add(5 * time.Second)
	for h.count() != 0 {
		publishOne(h, ev)
		if time.Now().After(deadline) {
			t.Fatal("dead subscriber never removed")
		}
		time.Sleep(time.Millisecond)
	}
	publishOne(h, ev) // no subscribers: must not panic
	h.close(time.Second)
	if h.count() != 0 {
		t.Errorf("count = %d after close", h.count())
	}
}

// wedgedConn is a net.Conn whose Write signals entry, parks until the
// connection is released, and fails from then on — the shape of a peer
// that stops acking and then resets mid-stream.
type wedgedConn struct {
	entered   chan struct{}
	release   chan struct{}
	enterOnce sync.Once
	closeOnce sync.Once
}

func newWedgedConn() *wedgedConn {
	return &wedgedConn{entered: make(chan struct{}), release: make(chan struct{})}
}

func (c *wedgedConn) Write(b []byte) (int, error) {
	c.enterOnce.Do(func() { close(c.entered) })
	<-c.release
	return 0, fmt.Errorf("write to wedged peer")
}

func (c *wedgedConn) Read(b []byte) (int, error) { <-c.release; return 0, io.EOF }
func (c *wedgedConn) Close() error {
	c.closeOnce.Do(func() { close(c.release) })
	return nil
}
func (c *wedgedConn) LocalAddr() net.Addr                { return nil }
func (c *wedgedConn) RemoteAddr() net.Addr               { return nil }
func (c *wedgedConn) SetDeadline(t time.Time) error      { return nil }
func (c *wedgedConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *wedgedConn) SetWriteDeadline(t time.Time) error { return nil }

// TestHubWriterErrorDrainsQueue: when a subscriber's connection fails
// mid-write, the events still queued behind the failure were counted
// delivered but will never reach the wire — the writer must re-count
// them as drops on its way out, or the documented conservation invariant
// (delivered + drops = publishes × subscribers) silently breaks. This is
// the regression test for the writer-error path abandoning sub.ch
// without draining it.
func TestHubWriterErrorDrainsQueue(t *testing.T) {
	h := newHub(8, 0)
	conn := newWedgedConn()
	if !h.add(conn, nil) {
		t.Fatal("add")
	}

	// First event: the writer dequeues it, the queue runs dry, and the
	// flush parks inside conn.Write.
	publishOne(h, testEvent("s", 0))
	select {
	case <-conn.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the connection write")
	}

	// Three more events queue up behind the parked writer, all counted
	// delivered at publish time.
	const queued = 3
	for i := 1; i <= queued; i++ {
		publishOne(h, testEvent("s", uint64(i)))
	}
	if d := h.delivered.Load(); d != 1+queued {
		t.Fatalf("delivered = %d before failure, want %d", d, 1+queued)
	}

	// Release the connection: the parked flush fails and the writer exits.
	conn.Close()
	deadline := time.Now().Add(5 * time.Second)
	for h.count() != 0 || h.drops.Load() != queued {
		if time.Now().After(deadline) {
			t.Fatalf("after writer error: drops = %d, delivered = %d, want %d queued events re-counted as drops",
				h.drops.Load(), h.delivered.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
	if d := h.delivered.Load(); d != 1 {
		t.Errorf("delivered = %d after drain, want 1 (only the event that reached the writer)", d)
	}
	// Conservation: 4 publishes × 1 subscriber.
	if got := h.delivered.Load() + h.drops.Load(); got != 1+queued {
		t.Errorf("delivered+drops = %d, want %d", got, 1+queued)
	}
	h.close(time.Second)
}

// TestHubCoalescedFrameDelivery: a multi-event frame reaches the
// subscriber as its individual events, in order, while the hub counters
// account at event granularity — one publish, N published events, N
// delivered.
func TestHubCoalescedFrameDelivery(t *testing.T) {
	h := newHub(4, 0)
	srv, cli := net.Pipe()
	if !h.add(srv, nil) {
		t.Fatal("add")
	}

	const events = 5
	f := h.newFrame()
	for i := 0; i < events; i++ {
		f.buf, _ = appendEvent(f.buf, nil, engine.Result{
			Stream:  "s",
			Seq:     uint64(i),
			Verdict: core.Verdict{Anomaly: i%2 == 0, Level: 1, Signature: "sig"},
		})
		f.events++
	}
	h.publishFrame(f)

	br := bufio.NewReader(cli)
	for i := 0; i < events; i++ {
		ev, err := readEvent(br)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Stream != "s" || ev.Seq != uint64(i) {
			t.Fatalf("event %d: got %q/%d", i, ev.Stream, ev.Seq)
		}
	}
	if p, pe := h.publishes.Load(), h.publishedEvents.Load(); p != 1 || pe != events {
		t.Errorf("publishes = %d, publishedEvents = %d, want 1 and %d", p, pe, events)
	}
	if d := h.delivered.Load(); d != events {
		t.Errorf("delivered = %d, want %d", d, events)
	}
	cli.Close()
	h.close(time.Second)
}

// TestHubSubscriberWriteTimeout is the regression test for the wedged
// subscriber bugfix: before SubscriberWriteTimeout existed, a peer that
// stopped reading parked its hub writer in a blocking Write until
// shutdown's force-close — the subscriber was never abandoned at runtime
// and every later event just queued or dropped against a dead peer. With
// the per-write deadline the writer fails at the deadline and the
// subscriber is abandoned through the same hub.abandon path a broken
// connection takes, re-counting its queued events as drops. (Run against
// a hub built with writeTimeout 0 this test times out in the poll below —
// the pre-fix failure mode.)
func TestHubSubscriberWriteTimeout(t *testing.T) {
	h := newHub(8, 50*time.Millisecond)
	srv, cli := net.Pipe() // nobody reads cli: writes park until their deadline
	defer cli.Close()
	if !h.add(srv, nil) {
		t.Fatal("add")
	}

	// Publish steadily: the writer's first flush against the unread pipe
	// parks for the write deadline while events pile up behind it, then
	// fails — and the subscriber must be abandoned at runtime, well before
	// any close(grace) force-close.
	deadline := time.Now().Add(5 * time.Second)
	var i uint64
	for h.count() != 0 {
		publishOne(h, testEvent("s", i))
		i++
		if time.Now().After(deadline) {
			t.Fatal("wedged subscriber never abandoned at runtime (write deadline did not fire)")
		}
		time.Sleep(time.Millisecond)
	}
	// Conservation across the abandon re-count: every event published
	// while the subscriber was attached is either delivered (reached the
	// writer before the failure) or dropped — at enqueue on the full
	// queue, or re-counted when abandon drained the rest.
	if got, want := h.delivered.Load()+h.drops.Load(), h.publishedEvents.Load(); got != want {
		t.Errorf("delivered+drops = %d, want %d (published events)", got, want)
	}
	if h.drops.Load() == 0 {
		t.Error("abandoning a wedged subscriber re-counted no drops")
	}
	// With the subscriber long gone, close is immediate.
	start := time.Now()
	h.close(10 * time.Second)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("close took %v despite the wedged subscriber being abandoned", elapsed)
	}
}

// TestHubAddAfterClose: add on a closed hub reports failure so the caller
// closes the connection instead of leaking it.
func TestHubAddAfterClose(t *testing.T) {
	h := newHub(0, 0)
	h.close(time.Second)
	srv, cli := net.Pipe()
	defer srv.Close()
	defer cli.Close()
	if h.add(srv, nil) {
		t.Error("add succeeded on a closed hub")
	}
	h.close(time.Second) // idempotent
}

// TestEventRoundTrip pins the event wire encoding: encode → decode is
// identity, including evidence, and the decoder rejects oversized frames.
func TestEventRoundTrip(t *testing.T) {
	want := engine.Result{
		Stream: "plc-7",
		Seq:    42,
		Verdict: core.Verdict{
			Anomaly:   true,
			Level:     3,
			Rank:      -1,
			Signature: "sig",
			Evidence: []core.LevelEvidence{
				{Stage: "bloom", Level: 0, Scored: true, Flagged: false, Score: 0.25, Rank: 2},
				{Stage: "lstm", Level: 3, Scored: true, Flagged: true, Score: 0.99, Rank: -1},
			},
		},
	}
	framed, _ := appendEvent(nil, nil, want)
	ev, err := readEvent(bufio.NewReader(bytes.NewReader(framed)))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Stream != want.Stream || ev.Seq != want.Seq {
		t.Errorf("round trip identity: got %q/%d", ev.Stream, ev.Seq)
	}
	v, wv := ev.Verdict, want.Verdict
	if v.Anomaly != wv.Anomaly || v.Level != wv.Level || v.Rank != wv.Rank || v.Signature != wv.Signature {
		t.Errorf("verdict mismatch: %+v", v)
	}
	if len(v.Evidence) != len(wv.Evidence) {
		t.Fatalf("evidence count %d, want %d", len(v.Evidence), len(wv.Evidence))
	}
	for i, e := range v.Evidence {
		if e != wv.Evidence[i] {
			t.Errorf("evidence %d: %+v, want %+v", i, e, wv.Evidence[i])
		}
	}

	huge := make([]byte, 0, 10)
	huge = appendTestUvarint(huge, maxEventLen+1)
	if _, err := readEvent(bufio.NewReader(bytes.NewReader(huge))); err == nil {
		t.Error("oversized event frame accepted")
	}
	if _, err := readEvent(bufio.NewReader(bytes.NewReader(nil))); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func appendTestUvarint(b []byte, x uint64) []byte {
	for x >= 0x80 {
		b = append(b, byte(x)|0x80)
		x >>= 7
	}
	return append(b, byte(x))
}
