package serve

import (
	"bufio"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// frame is one published batch of pre-encoded verdict events: the unit the
// hub fans out, so a subscriber pays one channel operation per batch
// instead of one per event. Frames are pooled and reference-counted — the
// publisher sets refs to the subscriber count before fan-out, and every
// way a frame can leave the fan-out (written to the wire, dropped at a
// full queue, drained by abandon, flushed at writer exit) releases one
// reference; the last release returns the frame and its encode buffer to
// the pool, so steady-state publishing allocates nothing.
type frame struct {
	buf    []byte
	events int
	refs   atomic.Int32
}

// hub fans classified results out to verdict subscribers. Each subscriber
// owns a bounded channel of frames and a writer goroutine; a subscriber
// that cannot keep up loses whole frames (their events counted per
// subscriber and hub-wide) instead of stalling the shard workers
// publishing into the hub — the same shed-don't-stall discipline the live
// ingest path applies to the engine queues.
type hub struct {
	buffer int
	// writeTimeout, when positive, bounds every subscriber socket write: a
	// wedged peer (stopped reading, window closed) fails its writer at the
	// deadline and is abandoned at runtime — with the frames still queued
	// behind the failure re-counted as drops — instead of parking the
	// writer in a blocking Write until shutdown's force-close.
	writeTimeout time.Duration
	pool         sync.Pool

	mu     sync.Mutex
	subs   map[*subscriber]struct{}
	closed bool
	wg     sync.WaitGroup

	// drops counts (subscriber, event) pairs lost to full buffers or
	// abandoned writers; delivered counts pairs that reached the wire (or
	// a writer's buffer). Their sum is the Σ over publishes of
	// events × subscribers at publish time.
	drops     atomic.Uint64
	delivered atomic.Uint64
	// publishes counts published frames; publishedEvents the events they
	// carried. publishedEvents/publishes is the mean publish batch width —
	// how much fan-out amortization the tick coalescing actually bought.
	publishes       atomic.Uint64
	publishedEvents atomic.Uint64
}

// subscriber is one verdict stream consumer.
type subscriber struct {
	conn  net.Conn
	ch    chan *frame
	drops atomic.Uint64
}

func newHub(buffer int, writeTimeout time.Duration) *hub {
	if buffer <= 0 {
		buffer = 1024
	}
	return &hub{
		buffer:       buffer,
		writeTimeout: writeTimeout,
		subs:         make(map[*subscriber]struct{}),
	}
}

// newFrame returns an empty frame, reusing a pooled one when available.
// The caller appends encoded events to buf, counts them in events, and
// hands the frame back through publishFrame (which owns it from then on).
func (h *hub) newFrame() *frame {
	if f, ok := h.pool.Get().(*frame); ok {
		return f
	}
	return &frame{}
}

// release resets a frame and returns it to the pool.
func (h *hub) release(f *frame) {
	f.buf = f.buf[:0]
	f.events = 0
	h.pool.Put(f)
}

// unref drops one reference, releasing the frame on the last one.
func (h *hub) unref(f *frame) {
	if f.refs.Add(-1) == 0 {
		h.release(f)
	}
}

// add registers a handshaken subscriber connection and starts its writer,
// which puts ack (the handshake's answer, if any) on the wire ahead of every
// frame: a peer that waits for the ack is already counted in every publish
// once it has read it. It reports false when the hub has already shut down.
func (h *hub) add(conn net.Conn, ack []byte) bool {
	sub := &subscriber{conn: conn, ch: make(chan *frame, h.buffer)}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return false
	}
	h.subs[sub] = struct{}{}
	h.wg.Add(1)
	h.mu.Unlock()
	go h.write(sub, ack)
	return true
}

// remove detaches a subscriber (writer error path). The writer goroutine
// drains and exits on its own; no further frames are enqueued.
func (h *hub) remove(sub *subscriber) {
	h.mu.Lock()
	delete(h.subs, sub)
	h.mu.Unlock()
}

// abandon detaches a subscriber whose connection failed mid-write and
// re-counts the events still queued behind the failure: they were counted
// delivered when publishFrame enqueued them, but they will never reach
// the wire, so each one moves from delivered to drops — keeping both the
// drops+delivered conservation invariant and the close contract ("on the
// wire or counted as drops") honest. Once remove returns no publisher can
// enqueue (publishFrame holds the hub mutex the whole pass), so the
// non-blocking drain below observes the final queue; a concurrent
// hub.close may have closed the channel already, which the drain treats
// as end of queue.
func (h *hub) abandon(sub *subscriber) {
	h.remove(sub)
	for {
		select {
		case f, ok := <-sub.ch:
			if !ok {
				return
			}
			n := uint64(f.events)
			sub.drops.Add(n)
			h.drops.Add(n)
			h.delivered.Add(^(n - 1))
			h.unref(f)
		default:
			return
		}
	}
}

// publishFrame enqueues one frame of events to every subscriber — one
// channel operation per subscriber per batch — dropping (and counting the
// frame's events) for subscribers whose buffer is full. It takes
// ownership of f. It is called from shard worker goroutines: per-stream
// event order is preserved because one stream publishes from one shard,
// and a shard's frames are published in tick order.
func (h *hub) publishFrame(f *frame) {
	h.mu.Lock()
	if h.closed || len(h.subs) == 0 || f.events == 0 {
		h.mu.Unlock()
		h.release(f)
		return
	}
	n := uint64(f.events)
	h.publishes.Add(1)
	h.publishedEvents.Add(n)
	f.refs.Store(int32(len(h.subs)))
	for sub := range h.subs {
		select {
		case sub.ch <- f:
			h.delivered.Add(n)
		default:
			sub.drops.Add(n)
			h.drops.Add(n)
			h.unref(f)
		}
	}
	h.mu.Unlock()
}

// write is the per-subscriber writer loop: it writes ack, then streams
// queued frames through a buffered writer, flushing whenever the queue runs
// dry, and exits when the hub closes its channel (flushing first) or the
// peer stops accepting writes — at the armed deadline, for a wedged peer
// under a write timeout.
func (h *hub) write(sub *subscriber, ack []byte) {
	defer h.wg.Done()
	defer sub.conn.Close()
	if len(ack) > 0 {
		if h.writeTimeout > 0 {
			sub.conn.SetWriteDeadline(time.Now().Add(h.writeTimeout))
		}
		if _, err := sub.conn.Write(ack); err != nil {
			h.abandon(sub)
			return
		}
	}
	bw := bufio.NewWriter(sub.conn)
	for f := range sub.ch {
		if h.writeTimeout > 0 {
			sub.conn.SetWriteDeadline(time.Now().Add(h.writeTimeout))
		}
		_, err := bw.Write(f.buf)
		if err == nil && len(sub.ch) == 0 {
			err = bw.Flush()
		}
		h.unref(f)
		if err != nil {
			h.abandon(sub)
			return
		}
	}
	if h.writeTimeout > 0 {
		sub.conn.SetWriteDeadline(time.Now().Add(h.writeTimeout))
	}
	bw.Flush()
}

// count returns the number of attached subscribers.
func (h *hub) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.subs)
}

// SubscriberStats describes one attached verdict subscriber (see
// Server.SubscriberStats and /stats).
type SubscriberStats struct {
	// Addr is the subscriber's remote address.
	Addr string `json:"addr"`
	// QueueDepth and QueueCap describe the subscriber's bounded frame
	// queue at snapshot time.
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	// Drops counts the events this subscriber lost — enqueue-time drops on
	// a full queue plus frames re-counted when the subscriber was
	// abandoned mid-write.
	Drops uint64 `json:"drops"`
}

// subscriberStats snapshots every attached subscriber, ordered by remote
// address for stable output.
func (h *hub) subscriberStats() []SubscriberStats {
	h.mu.Lock()
	out := make([]SubscriberStats, 0, len(h.subs))
	for sub := range h.subs {
		out = append(out, SubscriberStats{
			Addr:       sub.conn.RemoteAddr().String(),
			QueueDepth: len(sub.ch),
			QueueCap:   cap(sub.ch),
			Drops:      sub.drops.Load(),
		})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// close flushes and detaches every subscriber and waits for their writers:
// frames published before close are on the wire (or counted as drops) when
// it returns. The wait is bounded by grace — a wedged subscriber (a peer
// that stopped reading) parks its writer in a blocking Write, so after
// grace the remaining connections are force-closed to unblock them.
// Publishing after close is a silent no-op.
func (h *hub) close(grace time.Duration) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.wg.Wait()
		return
	}
	h.closed = true
	subs := make([]*subscriber, 0, len(h.subs))
	for sub := range h.subs {
		subs = append(subs, sub)
		close(sub.ch)
	}
	h.subs = make(map[*subscriber]struct{})
	h.mu.Unlock()

	done := make(chan struct{})
	go func() {
		h.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(grace):
		for _, sub := range subs {
			sub.conn.Close()
		}
		<-done
	}
}
