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
// mid-write, the frames behind the failure were counted delivered but will
// never reach the wire — the writer must re-count them as drops on its way
// out, or the documented conservation invariant (delivered + drops =
// publishes × subscribers) silently breaks. The first case is the
// regression test for the writer-error path abandoning its queue without
// draining it; the second fails a write in the middle of a batch the
// writer has already taken off the queue.
func TestHubWriterErrorDrainsQueue(t *testing.T) {
	t.Run("parked flush", func(t *testing.T) {
		h := newHub(8, 0)
		conn := newWedgedConn()
		if !h.add(conn, nil) {
			t.Fatal("add")
		}

		// First event: the writer takes it, and the flush parks inside
		// conn.Write.
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
	})

	t.Run("mid-batch write", func(t *testing.T) {
		h := newHub(8, 0)
		conn := newScriptedConn()
		if !h.add(conn, nil) {
			t.Fatal("add")
		}
		// Frames larger than the writer's buffer reach the connection one
		// Write each.
		big := make([]byte, 2*4096)

		publishOne(h, testEvent("s", 0))
		conn.await(t) // flush of frame 0
		for i := 0; i < 3; i++ {
			publishOne(h, big)
		}
		conn.answer <- nil
		conn.await(t) // frame 1: the writer has taken frames 1-3 as one batch
		const queued = 2
		for i := 0; i < queued; i++ {
			publishOne(h, big)
		}
		if st := h.subscriberStats(); len(st) != 1 || st[0].QueueDepth != queued {
			t.Fatalf("subscriber stats %+v, want %d frames queued behind the batch", st, queued)
		}
		conn.answer <- nil
		conn.await(t) // frame 2 fails
		conn.answer <- fmt.Errorf("connection reset")

		deadline := time.Now().Add(5 * time.Second)
		for h.count() != 0 {
			if time.Now().After(deadline) {
				t.Fatal("subscriber not abandoned after the failed write")
			}
			time.Sleep(time.Millisecond)
		}
		// Frames 0-2 reached the writer; frame 3 (the rest of the batch)
		// and the two queued frames are re-counted as drops.
		if d, dr := h.delivered.Load(), h.drops.Load(); d != 3 || dr != 1+queued {
			t.Errorf("delivered = %d, drops = %d, want 3 and %d", d, dr, 1+queued)
		}
		if got, want := h.delivered.Load()+h.drops.Load(), h.publishedEvents.Load(); got != want || want != 6 {
			t.Errorf("delivered+drops = %d, want %d = 6 publishes × 1 subscriber", got, want)
		}
		h.close(time.Second)
	})
}

// scriptedConn is a net.Conn whose every Write reports itself on writes
// and returns the error the test sends on answer.
type scriptedConn struct {
	writes chan struct{}
	answer chan error
}

func newScriptedConn() *scriptedConn {
	return &scriptedConn{writes: make(chan struct{}), answer: make(chan error)}
}

func (c *scriptedConn) Write(b []byte) (int, error) {
	c.writes <- struct{}{}
	if err := <-c.answer; err != nil {
		return 0, err
	}
	return len(b), nil
}

// await waits for the writer's next Write to reach the connection.
func (c *scriptedConn) await(t *testing.T) {
	t.Helper()
	select {
	case <-c.writes:
	case <-time.After(5 * time.Second):
		t.Fatal("writer never reached the connection write")
	}
}

func (c *scriptedConn) Read(b []byte) (int, error)         { return 0, io.EOF }
func (c *scriptedConn) Close() error                       { return nil }
func (c *scriptedConn) LocalAddr() net.Addr                { return pipeAddr{} }
func (c *scriptedConn) RemoteAddr() net.Addr               { return pipeAddr{} }
func (c *scriptedConn) SetDeadline(t time.Time) error      { return nil }
func (c *scriptedConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *scriptedConn) SetWriteDeadline(t time.Time) error { return nil }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// TestHubQueueFollowsBacklog: a subscriber's queue holds memory for its
// backlog, not for its bound. Attaching to a hub bounded at 1<<20 frames
// allocates a few KB (a preallocated queue of that bound is 8 MiB); a
// stalled subscriber's queue holds its whole backlog; once a reader
// drains it, the queue keeps at most spareFrames slots.
func TestHubQueueFollowsBacklog(t *testing.T) {
	const bound = 1 << 20
	srv, cli := net.Pipe()
	defer cli.Close()
	ack := []byte("ack")
	var h *hub
	var added bool
	if n := bytesAllocated(func() {
		h = newHub(bound, 0)
		added = h.add(srv, ack) // nobody reads yet: the writer parks on ack
	}); n >= 64<<10 {
		t.Errorf("newHub + add allocated %d bytes, want < 64 KB", n)
	}
	if !added {
		t.Fatal("add")
	}

	const events = 10000
	for i := 0; i < events; i++ {
		publishOne(h, testEvent("s", uint64(i)))
	}
	st := h.subscriberStats()
	if len(st) != 1 || st[0].QueueDepth != events || st[0].QueueCap != bound {
		t.Fatalf("stalled subscriber stats %+v, want depth %d, cap %d", st, events, bound)
	}

	br := bufio.NewReader(cli)
	if _, err := io.ReadFull(br, make([]byte, len(ack))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		ev, err := readEvent(br)
		if err != nil {
			t.Fatalf("event %d: %v", i, err)
		}
		if ev.Seq != uint64(i) {
			t.Fatalf("event %d arrived with seq %d", i, ev.Seq)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, slots := h.subscriberStats(), h.queueSlots()
		if len(st) == 1 && st[0].QueueDepth == 0 && len(slots) == 1 && slots[0] <= spareFrames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drained subscriber keeps %v queue slots (stats %+v), want at most %d", slots, st, spareFrames)
		}
		time.Sleep(time.Millisecond)
	}
	if d := h.delivered.Load(); d != events {
		t.Errorf("delivered = %d, want %d", d, events)
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
// identity, including evidence, both for an event parsed in place and for
// one longer than the reader's buffer, read back to back, and the decoder
// rejects oversized frames.
func TestEventRoundTrip(t *testing.T) {
	short := engine.Result{
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
	long := short
	long.Seq++
	long.Verdict.Evidence = nil
	for i := 0; i < 300; i++ { // about 10 KB, past bufio's default 4 KB
		long.Verdict.Evidence = append(long.Verdict.Evidence, short.Verdict.Evidence...)
	}
	var framed []byte
	for _, r := range []engine.Result{short, long} {
		framed, _ = appendEvent(framed, nil, r)
	}
	br := bufio.NewReader(bytes.NewReader(framed))
	for _, want := range []engine.Result{short, long} {
		ev, err := readEvent(br)
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
	}
	if _, err := readEvent(br); err != io.EOF {
		t.Errorf("after both events: err = %v, want io.EOF", err)
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
