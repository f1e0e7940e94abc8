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
// hub fans out, so a subscriber pays one queue operation per batch
// instead of one per event. Frames are pooled and reference-counted — the
// publisher sets refs to the subscriber count before fan-out, and every
// way a frame can leave the fan-out (written to the wire, dropped at a
// full queue, re-counted by abandon) releases one reference; the last
// release returns the frame and its encode buffer to the pool, so
// steady-state publishing allocates nothing.
type frame struct {
	buf    []byte
	events int
	refs   atomic.Int32
}

// spareFrames is the largest queue backing array a subscriber keeps
// between batches. A burst grows the queue past it; once the burst has
// been written the large array is let go, so an idle subscriber holds a
// few hundred bytes whatever its bound.
const spareFrames = 64

// hub fans classified results out to verdict subscribers. Each subscriber
// owns a bounded FIFO of frames and a writer goroutine; a subscriber that
// cannot keep up loses whole frames (their events counted per subscriber
// and hub-wide) instead of stalling the shard workers publishing into the
// hub — the same shed-don't-stall discipline the live ingest path applies
// to the engine queues. The bound is a cap, not a reservation: a queue's
// memory follows its backlog.
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
	drops atomic.Uint64
	// bell (capacity 1) wakes the writer after an enqueue or close.
	bell chan struct{}

	// mu guards the queue: frames published but not yet taken by the
	// writer, in publish order. spare is the writer's last drained batch
	// array (at most spareFrames slots), swapped in as the next queue.
	mu     sync.Mutex
	queue  []*frame
	spare  []*frame
	closed bool
}

// ring wakes the writer; a pending wake-up already covers this one.
func (sub *subscriber) ring() {
	select {
	case sub.bell <- struct{}{}:
	default:
	}
}

// next hands back the writer's written batch done for reuse and returns
// every queued frame, waiting for the first; it returns an empty batch once
// the queue is closed and drained.
func (sub *subscriber) next(done []*frame) []*frame {
	clear(done)
	sub.mu.Lock()
	if cap(done) <= spareFrames {
		sub.spare = done[:0]
	}
	for len(sub.queue) == 0 && !sub.closed {
		sub.mu.Unlock()
		<-sub.bell
		sub.mu.Lock()
	}
	batch := sub.queue
	sub.queue, sub.spare = sub.spare, nil
	sub.mu.Unlock()
	return batch
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
	sub := &subscriber{conn: conn, bell: make(chan struct{}, 1)}
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

// abandon detaches a subscriber whose connection failed mid-write and
// re-counts the frames that will never reach the wire: unwritten, the rest
// of the writer's batch, and the frames still queued behind it. Each was
// counted delivered when publishFrame enqueued it, so its events move from
// delivered to drops — keeping both the drops+delivered conservation
// invariant and the close contract ("on the wire or counted as drops")
// honest. It holds the hub mutex throughout, so no publisher can enqueue
// behind the queue taken below, and a caller that sees the subscriber
// gone (count, subscriberStats) also sees its drops.
func (h *hub) abandon(sub *subscriber, unwritten []*frame) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.subs, sub)
	sub.mu.Lock()
	queued := sub.queue
	sub.queue = nil
	sub.mu.Unlock()
	for _, fs := range [2][]*frame{unwritten, queued} {
		for _, f := range fs {
			n := uint64(f.events)
			sub.drops.Add(n)
			h.drops.Add(n)
			h.delivered.Add(^(n - 1))
			h.unref(f)
		}
	}
}

// publishFrame enqueues one frame of events to every subscriber — one
// queue append per subscriber per batch — dropping (and counting the
// frame's events) for subscribers whose queue is at its bound. It takes
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
		sub.mu.Lock()
		queued := len(sub.queue) < h.buffer
		if queued {
			sub.queue = append(sub.queue, f)
		}
		sub.mu.Unlock()
		if queued {
			h.delivered.Add(n)
			sub.ring()
		} else {
			sub.drops.Add(n)
			h.drops.Add(n)
			h.unref(f)
		}
	}
	h.mu.Unlock()
}

// write is the per-subscriber writer loop: it writes ack, then takes the
// whole queue at a time, writes its frames through a buffered writer and
// flushes once per batch, and exits when the hub closes the queue (once
// it is drained and flushed) or the peer stops accepting writes — at the
// armed deadline, for a wedged peer under a write timeout.
func (h *hub) write(sub *subscriber, ack []byte) {
	defer h.wg.Done()
	defer sub.conn.Close()
	if len(ack) > 0 {
		h.armDeadline(sub)
		if _, err := sub.conn.Write(ack); err != nil {
			h.abandon(sub, nil)
			return
		}
	}
	bw := bufio.NewWriter(sub.conn)
	var batch []*frame
	for {
		batch = sub.next(batch)
		if len(batch) == 0 {
			return
		}
		for i, f := range batch {
			h.armDeadline(sub)
			_, err := bw.Write(f.buf)
			h.unref(f)
			if err == nil && i == len(batch)-1 {
				err = bw.Flush()
			}
			if err != nil {
				h.abandon(sub, batch[i+1:])
				return
			}
		}
	}
}

// armDeadline bounds the subscriber's next socket write by the write
// timeout, if one is set.
func (h *hub) armDeadline(sub *subscriber) {
	if h.writeTimeout > 0 {
		sub.conn.SetWriteDeadline(time.Now().Add(h.writeTimeout))
	}
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
	// QueueDepth is the number of frames queued for the subscriber's
	// writer at snapshot time; QueueCap is the queue's bound
	// (Config.SubscriberBuffer). The bound is not preallocated: a queue
	// holds memory for its backlog only, and keeps at most a small spare
	// array once the backlog drains.
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
		sub.mu.Lock()
		depth := len(sub.queue)
		sub.mu.Unlock()
		out = append(out, SubscriberStats{
			Addr:       sub.conn.RemoteAddr().String(),
			QueueDepth: depth,
			QueueCap:   h.buffer,
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
		sub.mu.Lock()
		sub.closed = true
		sub.mu.Unlock()
		sub.ring()
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
