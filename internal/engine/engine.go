// Package engine is the concurrent multi-stream detection engine: it runs
// a detection stack of internal/core over many package streams at once
// (one stream per monitored device, link or unit), sharded across worker
// goroutines with per-stage-kind micro-batched inference.
//
// Architecture:
//
//	SubmitBatchFor(fw, stream, pkgs) ──hash(stream)──▶ shard 0 ─▶ worker goroutine
//	                                                   shard 1 ─▶ worker goroutine
//	                                                   …            │
//	                                                                ▼
//	                      tick: drain queued packets
//	                        precompute batchable Check scores (window
//	                          levels: PCA/GMM batched kernels)
//	                        waves of one package per queued stream:
//	                          per-stream Session Check phase, sequential
//	                          micro-batched Advance passes (LSTM steps via
//	                            nn.StepBatchLogitsOneHot); scalar stages inline
//
// Each stream is pinned to one shard by a hash of its ID, so per-stream
// package order — and therefore per-stream verdicts — are exactly those of
// a sequential core.Session over the same stack. Within a shard, the
// batchable work of distinct streams advances through one batched pass per
// drained tick instead of one scalar pass per package; the engine asks
// each stage what it can batch (core.AdvanceBatchStage,
// core.CheckBatchStage) instead of hard-coding the LSTM. Shard input
// channels are bounded: a saturated engine pushes back on SubmitBatchFor
// instead of growing without bound.
package engine

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
)

// Config tunes the engine. The zero value picks sensible defaults.
type Config struct {
	// Shards is the number of worker goroutines (and stream partitions).
	// Default: GOMAXPROCS.
	Shards int
	// MaxBatch caps the micro-batch width of one batched stage pass.
	// Default: 64.
	MaxBatch int
	// QueueDepth bounds each shard's input channel; a full shard blocks
	// SubmitBatchFor (backpressure). Default: 4 * MaxBatch.
	QueueDepth int
	// Stack describes the detection stack every stream applies. Empty
	// means the paper's two-level bloom,lstm stack under first-hit fusion.
	// Stack.Precision sets the default numeric tier; individual streams
	// opt into a different tier with BindPrecision before their first
	// package.
	Stack core.StackSpec
	// TickEnd, when non-nil, is called on the shard worker goroutine after
	// each drained tick has been fully classified and flushed (and once
	// more when the worker exits), with the shard index. It is the
	// coalescing point for embedders that batch downstream work per tick —
	// the serving daemon publishes one multi-event verdict frame per shard
	// tick through it. Like a Handler it runs concurrently across shards
	// and a slow callback stalls its shard.
	TickEnd func(shard int)
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if len(c.Stack.Stages) == 0 {
		c.Stack = core.DefaultStackSpec()
	}
	return c
}

// Result is one classified package.
type Result struct {
	// Stream is the stream ID the package was submitted under.
	Stream string
	// Seq is the package's 0-based position within its stream.
	Seq uint64
	// Shard is the index of the shard worker that classified the package
	// (fixed per stream). Handlers that batch downstream work per shard —
	// one accumulator per shard needs no locking, because a shard calls its
	// Handler from one goroutine — key it by this.
	Shard int
	// Package is the classified package.
	Package *dataset.Package
	// Verdict is identical to what a sequential core.Session for this
	// stream would have produced.
	Verdict core.Verdict
}

// Handler receives every classified package. It is called on shard
// goroutines — possibly concurrently for packages of different shards — and
// must be safe for that; a slow handler stalls its shard and, through the
// bounded queues, eventually the submitters.
type Handler func(Result)

// packet is one queued unit of work: a burst of packages of one stream
// (pkgs never empty, classified under key), a barrier marker (barrier
// non-nil) that the worker acknowledges once everything queued before it
// has been classified and flushed, or a release marker (release non-nil)
// that drops the stream's shard state the same way.
type packet struct {
	stream string
	// pkgs is the burst: the stream's packages in submission order. The
	// engine owns the slice once the packet is enqueued.
	pkgs    []*dataset.Package
	key     pair
	barrier *sync.WaitGroup
	release *sync.WaitGroup
}

// pair is what a batched pass never mixes: one framework's weights at one
// numeric tier. A stream runs under one pair, fixed by its first burst.
type pair struct {
	fw   *core.Framework
	prec core.Precision
}

// Engine is a running multi-stream detection engine. Create one with New,
// feed it with SubmitBatchFor, stop it with Stop. The framework must not be
// mutated (SetK, Update, …) while the engine runs.
//
// Stream state (a Session with its per-level states) is retained until the
// stream is explicitly released — recurrent detection has no natural point
// to forget a stream on its own. Deployments that key streams by
// connection-scoped identities (the serving daemon maps one network
// connection to one stream) must call Release when the identity dies, or
// churn of distinct stream IDs grows memory without bound.
type Engine struct {
	// def is the default pair: New's framework at the configured
	// precision. New proved it supports the stack, and no Release forgets
	// it.
	def     pair
	cfg     Config
	handler Handler
	shards  []*shard
	wg      sync.WaitGroup
	started time.Time
	stopped atomic.Bool
	// mu serializes submissions against Stop: submitters hold it shared
	// for the duration of their channel send, and Stop takes it exclusive
	// before closing the shard channels, so a racing submit returns the
	// stopped error instead of panicking on a closed channel.
	mu sync.RWMutex
	// bindMu guards the binding table. binds maps stream → its pair as
	// bound so far: the tier BindPrecision chose ("" means the engine
	// default) and, from the stream's first burst on, its framework. Release
	// deletes the row. Rebinding a live stream to another model would
	// silently score it with the wrong weights, so admission enforces the
	// binding here, where it can return an error. refs counts the
	// traffic-carrying streams of each pair: a pair is proven to support
	// the engine's stack when its count leaves zero and forgotten when the
	// count returns there, so a swapped-out model does not stay reachable.
	// Built-in maps, not a sync.Map: sync.Map boxes the key on every
	// lookup, one heap allocation per burst.
	bindMu sync.RWMutex
	binds  map[string]pair
	refs   map[pair]int
	// firstPanic keeps the first handler/stage panic a shard worker
	// recovered; Stop surfaces it once the workers have drained.
	firstPanic atomic.Pointer[PanicError]
}

// PanicError is a panic a shard worker recovered from a Handler or stage
// (see ShardStats.HandlerPanics). The worker keeps running — a panicking
// handler must not wedge every stream pinned to its shard — and Stop
// returns the first recovered panic so it cannot pass silently.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the worker's stack at recovery time.
	Stack string
}

func (p *PanicError) Error() string {
	return fmt.Sprintf("engine: recovered handler panic: %v", p.Value)
}

// New builds and starts an engine over a trained framework. handler may be
// nil when only the counters are of interest. The configured stack must
// resolve against the framework (levels beyond the built-in two need their
// stage models trained; see core.Framework.TrainStages).
func New(fw *core.Framework, cfg Config, handler Handler) (*Engine, error) {
	cfg = cfg.withDefaults()
	if _, err := fw.NewStack(cfg.Stack); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e := &Engine{
		def:     pair{fw: fw, prec: cfg.Stack.Precision},
		cfg:     cfg,
		handler: handler,
		shards:  make([]*shard, cfg.Shards),
		started: time.Now(),
		binds:   make(map[string]pair),
		refs:    make(map[pair]int),
	}
	if e.def.prec == "" {
		e.def.prec = core.PrecisionF64
	}
	for i := range e.shards {
		e.shards[i] = newShard(i, e)
	}
	e.wg.Add(len(e.shards))
	for _, s := range e.shards {
		go s.run(&e.wg)
	}
	return e, nil
}

// shardFor pins a stream to a shard by FNV-1a hash, so stream placement is
// deterministic across runs and processes.
func (e *Engine) shardFor(stream string) *shard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(stream); i++ {
		h ^= uint64(stream[i])
		h *= prime64
	}
	return e.shards[h%uint64(len(e.shards))]
}

// SubmitBatchFor enqueues a burst of packages of one stream, in order, as
// one operation, blocking while the stream's shard queue is full
// (backpressure). fw classifies the stream (nil means the engine default),
// so one engine serves streams of different models on shared shards;
// batched passes never mix frameworks or precisions, and per-stream
// verdicts are exactly those of a sequential core.Session over fw,
// however the stream is cut into bursts.
//
// A stream's first burst binds it to fw until Release. A burst under a
// different framework (nil counts as the default), or under one that lacks
// a level's stage model, is rejected before anything is enqueued —
// recurrent state is model-specific. A stream's bursts must come from one
// goroutine at a time. The engine owns pkgs once the call succeeds: the
// caller must not mutate it. An empty burst is a no-op that binds nothing.
// Submitting during or after Stop returns an error.
func (e *Engine) SubmitBatchFor(fw *core.Framework, stream string, pkgs []*dataset.Package) error {
	_, err := e.admit(fw, stream, pkgs, true)
	return err
}

// TrySubmitBatchFor is SubmitBatchFor without blocking — the in-path shape
// of live ingest, where shedding beats stalling the protocol path. A burst
// occupies one slot of the stream's shard queue; when the queue is full
// the whole burst is shed and reported false — all-or-nothing, so a shed
// never splits a burst and per-stream verdict sequences stay prefixes of
// the full sequence per admission decision. A shed burst binds nothing.
// An empty burst reports true.
func (e *Engine) TrySubmitBatchFor(fw *core.Framework, stream string, pkgs []*dataset.Package) (bool, error) {
	return e.admit(fw, stream, pkgs, false)
}

// admit is the one admission body: check (or, on the stream's first
// burst, record) the binding, then enqueue the burst — waiting for room
// when block is set, shedding it otherwise.
func (e *Engine) admit(fw *core.Framework, stream string, pkgs []*dataset.Package, block bool) (bool, error) {
	if len(pkgs) == 0 {
		return true, nil
	}
	if fw == nil {
		fw = e.def.fw
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return false, fmt.Errorf("engine: submit after Stop")
	}
	key, fresh, err := e.bind(stream, fw)
	if err != nil {
		return false, err
	}
	pkt := packet{stream: stream, pkgs: pkgs, key: key}
	in := e.shardFor(stream).in
	if block {
		in <- pkt
		return true, nil
	}
	select {
	case in <- pkt:
		return true, nil
	default:
		if fresh {
			e.unbind(stream, false)
		}
		return false, nil
	}
}

// bind checks a stream's binding against fw and returns the stream's pair.
// On the stream's first burst it records the binding (fresh) and counts
// the stream against its pair; the first stream of a pair proves that fw
// supports the engine's stack at the pair's precision.
func (e *Engine) bind(stream string, fw *core.Framework) (key pair, fresh bool, err error) {
	e.bindMu.RLock()
	b := e.binds[stream]
	e.bindMu.RUnlock()
	if b.fw == fw {
		return e.pairOf(b), false, nil
	}
	e.bindMu.Lock()
	defer e.bindMu.Unlock()
	b = e.binds[stream]
	switch {
	case b.fw == fw:
		return e.pairOf(b), false, nil
	case b.fw != nil:
		return pair{}, false, fmt.Errorf("engine: stream %q is already bound to a different framework", stream)
	}
	b.fw = fw
	key = e.pairOf(b)
	if e.refs[key] == 0 && key != e.def {
		if _, err := fw.NewStack(e.stackFor(key.prec)); err != nil {
			return pair{}, false, fmt.Errorf("engine: submit for framework: %w", err)
		}
	}
	e.refs[key]++
	e.binds[stream] = b
	return key, true, nil
}

// unbind drops a stream's framework binding and its count against its
// pair. all also forgets the stream's precision (Release); a shed first
// burst keeps it.
func (e *Engine) unbind(stream string, all bool) {
	e.bindMu.Lock()
	defer e.bindMu.Unlock()
	b, ok := e.binds[stream]
	if !ok {
		return
	}
	if b.fw != nil {
		key := e.pairOf(b)
		if e.refs[key]--; e.refs[key] == 0 {
			delete(e.refs, key)
		}
	}
	if b.fw = nil; all || b.prec == "" {
		delete(e.binds, stream)
	} else {
		e.binds[stream] = b
	}
}

// pairOf resolves a row of the binding table: its tier defaults to the
// engine's.
func (e *Engine) pairOf(b pair) pair {
	if b.prec == "" {
		b.prec = e.def.prec
	}
	return b
}

// StackSpec returns the engine's resolved stack spec (defaults applied):
// what every stream's sessions run, at the configured default precision.
func (e *Engine) StackSpec() core.StackSpec { return e.cfg.Stack }

// Shards returns the number of shard workers (defaults applied) — the
// index space of Result.Shard and Config.TickEnd.
func (e *Engine) Shards() int { return len(e.shards) }

// stackFor returns the engine's stack spec at the given numeric tier.
func (e *Engine) stackFor(p core.Precision) core.StackSpec {
	spec := e.cfg.Stack
	spec.Precision = p
	return spec
}

// BindPrecision pins a stream to a numeric tier before its first package:
// the stream's sessions and micro-batches run the engine's stack at p
// instead of the configured default, and — like the per-framework batches
// — streams of distinct tiers never share a batched pass. Binding must
// happen before the stream carries traffic (recurrent state is
// tier-specific, so re-tiering a live stream would corrupt it); an
// unsupported tier for the engine's stack is rejected here, fail-fast,
// with the same validation the -precision flag gets at startup. Release
// forgets the tier with the rest of the stream's binding.
func (e *Engine) BindPrecision(stream string, p core.Precision) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: bind precision after Stop")
	}
	if _, err := e.def.fw.NewStack(e.stackFor(p)); err != nil {
		return fmt.Errorf("engine: bind precision: %w", err)
	}
	e.bindMu.Lock()
	defer e.bindMu.Unlock()
	b := e.binds[stream]
	if b.fw != nil {
		return fmt.Errorf("engine: stream %q already carries traffic; precision is fixed at first package", stream)
	}
	if b.prec != "" && b.prec != p {
		return fmt.Errorf("engine: stream %q is already bound to precision %s", stream, b.prec)
	}
	b.prec = p
	e.binds[stream] = b
	return nil
}

// Release drops every trace of a stream — the shard's session state and
// its row of the binding table — so the ID can be reused with fresh
// recurrent state or a different model. It enqueues a release marker
// behind everything already submitted for the stream and waits for the
// shard to process it. A framework and precision pair that no stream uses
// any more is forgotten with its batches, so a swapped-out model is not
// kept reachable. The stream must not be submitted concurrently with
// Release. Connection-scoped deployments bind on accept and Release on
// close, or ID churn grows memory without bound. Releasing an unknown
// stream is a no-op. Like SubmitBatchFor it blocks while the shard queue
// is full, and errors during or after Stop.
func (e *Engine) Release(stream string) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: release after Stop")
	}
	var wg sync.WaitGroup
	wg.Add(1)
	e.shardFor(stream).in <- packet{stream: stream, release: &wg}
	wg.Wait()
	// The shard state is gone; new submissions of this ID (the
	// single-writer rule orders them after Release returns) bind afresh.
	e.unbind(stream, true)
	return nil
}

// Barrier blocks until every package submitted before it has been fully
// processed — verdict delivered to the handler and stream state advanced
// through its batched steps — without stopping the engine. It is the
// replay entry point for workloads that feed the engine in bounded phases
// (one recorded trace after another through a single warm engine) and need
// a completion point between phases; unlike Stop it can be called
// repeatedly. Packages submitted concurrently with Barrier may land on
// either side of it. Barrier blocks while shard queues are full, like
// SubmitBatchFor, and returns an error during or after Stop.
func (e *Engine) Barrier() error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.stopped.Load() {
		return fmt.Errorf("engine: barrier after Stop")
	}
	var wg sync.WaitGroup
	wg.Add(len(e.shards))
	for _, s := range e.shards {
		s.in <- packet{barrier: &wg}
	}
	wg.Wait()
	return nil
}

// Stop drains every queued package, waits for the workers to finish, and
// releases them. Submissions racing Stop either land before the shutdown
// (their packages are drained) or return the stopped error; a submitter
// blocked on a full queue completes normally, because the workers keep
// draining until the channels close. Stop is idempotent, and every call
// waits for the drain. It returns the first panic a shard worker recovered
// during the engine's lifetime (as a *PanicError), or nil if no handler or
// stage ever panicked.
func (e *Engine) Stop() error {
	e.mu.Lock()
	already := e.stopped.Swap(true)
	e.mu.Unlock()
	if !already {
		for _, s := range e.shards {
			close(s.in)
		}
	}
	e.wg.Wait()
	if p := e.firstPanic.Load(); p != nil {
		return p
	}
	return nil
}

// shard is one worker: a partition of streams, its bounded input queue, its
// per-framework micro-batches, and its counters.
type shard struct {
	id      int
	e       *Engine
	in      chan packet
	streams map[string]*stream
	// batches holds one micro-batch per pair with streams on this shard
	// (and the default pair's once created). Most engines serve a single
	// pair, so the slice almost always has one entry; a linear scan beats a
	// map at that size and keeps the flush order deterministic.
	batches []*fwBatch
	// tickBuf collects one drained tick of packets so batchable Check
	// scores can be precomputed before the packets are classified.
	tickBuf []packet
	// tick stamps streams seen in the current tick (precompute only covers
	// a stream's first packet of the tick — later packets depend on state
	// the earlier ones will move).
	tick uint64
	// lanes and next are processRun's scratch: the run's streams in
	// first-appearance order, and per packet the index of the same stream's
	// next packet in the run (-1 for its last).
	lanes []lane
	next  []int
	stats shardCounters
}

// lane is one stream's share of a marker-free run of packets: a cursor over
// the stream's packets in queue order and the packages inside them.
type lane struct {
	st *stream
	// cur and last index the run: the packet the stream is consuming and
	// its final one. pos is the next package within cur.
	cur, last, pos int
}

// fwBatch is the micro-batch state of one (framework, precision) pair
// within a shard: batched passes of streams bound to different frameworks
// must never share a pass (the weights differ), and neither may streams of
// different numeric tiers (the kernels differ), so each pair batches
// alone.
type fwBatch struct {
	key     pair
	stack   *core.Stack
	batch   *core.StackBatch
	inBatch []*stream
	// streams counts the shard's streams bound to the pair; the batch of a
	// non-default pair is forgotten when it drops to zero.
	streams int
	// chkFlushes/chkScored mirror the batch's cumulative check counters
	// already published to the shard stats.
	chkFlushes, chkScored uint64
}

// stream is the engine's per-stream state.
type stream struct {
	id   string
	sess *core.Session
	// fb is the micro-batch of the framework this stream is bound to.
	fb  *fwBatch
	seq uint64
	// pending reports that a batched Advance step of this stream sits in
	// the current micro-batch: a second package of the same stream forces
	// a flush first, because its prediction depends on that step.
	pending bool
	// tickStamp marks the tick that already precomputed for this stream.
	tickStamp uint64
	// lane is 1 + the stream's index in shard.lanes while processRun is
	// working through a run that carries it, 0 otherwise.
	lane int
}

func newShard(id int, e *Engine) *shard {
	return &shard{
		id:      id,
		e:       e,
		in:      make(chan packet, e.cfg.QueueDepth),
		streams: make(map[string]*stream),
		tickBuf: make([]packet, 0, e.cfg.QueueDepth+1),
	}
}

// batchFor returns the shard's micro-batch for a pair, creating it on
// first use.
func (s *shard) batchFor(key pair) *fwBatch {
	for _, fb := range s.batches {
		if fb.key == key {
			return fb
		}
	}
	stack, err := key.fw.NewStack(s.e.stackFor(key.prec))
	if err != nil {
		// Admission validated the pair before enqueueing anything for it.
		panic(fmt.Sprintf("engine: stack for bound framework: %v", err))
	}
	fb := &fwBatch{
		key:     key,
		stack:   stack,
		batch:   stack.NewBatch(s.e.cfg.MaxBatch),
		inBatch: make([]*stream, 0, s.e.cfg.MaxBatch),
	}
	s.batches = append(s.batches, fb)
	return fb
}

// run is the shard worker loop: block for one packet, drain whatever else
// is queued into the tick buffer (bounded by the queue depth), precompute
// the tick's batchable Check scores, classify every packet, and flush the
// batched Advance passes before blocking again. The tick splits into runs
// of package-carrying packets separated by barrier/release markers: each
// run is fully classified before its following marker is honoured, so
// marker ordering ("everything queued before") is exact. The tick ends with
// a flush and, when configured, the TickEnd callback.
func (s *shard) run(wg *sync.WaitGroup) {
	defer wg.Done()
	for pkt := range s.in {
		tick := append(s.tickBuf[:0], pkt)
	drain:
		for len(tick) < cap(tick) {
			select {
			case more, ok := <-s.in:
				if !ok {
					break drain
				}
				tick = append(tick, more)
			default:
				break drain
			}
		}
		s.safe(func() { s.precompute(tick) })
		for i := 0; i < len(tick); {
			if len(tick[i].pkgs) == 0 {
				s.marker(tick[i])
				i++
				continue
			}
			j := i + 1
			for j < len(tick) && len(tick[j].pkgs) > 0 {
				j++
			}
			s.processRun(tick[i:j])
			i = j
		}
		s.endTick()
		// Drop the consumed packets: an idle shard must not pin the last
		// tick's packages (a drained flood tick references megabytes).
		clear(tick)
	}
	s.endTick()
}

// endTick flushes the tick's batched passes and calls TickEnd.
func (s *shard) endTick() {
	s.safe(s.flush)
	if fn := s.e.cfg.TickEnd; fn != nil {
		s.safe(func() { fn(s.id) })
	}
}

// processRun classifies a marker-free run of packets in waves of one
// package per stream, so the streams of the run keep advancing together
// through the micro-batch (one flush per wave) however their packages were
// queued — processing a burst to completion would force a flush per
// package, because a stream's next package depends on the previous one's
// queued Advance step. The run is grouped by stream once, resolving each
// packet's stream state with its only map lookup; every wave then takes
// exactly one package from each stream that still has one — its earliest
// unclassified, so per-stream order is submission order — and costs
// O(live streams), not O(queued packets).
//
// Each package classifies behind the panic guard: a panicking Handler (or
// stage) must not kill the shard goroutine — every stream pinned to this
// shard would wedge while SubmitBatchFor keeps blocking on the full queue.
// The panic is counted in HandlerPanics, the first one is kept for Stop,
// and the package is skipped like a classified one. Its own stream may be left with
// a partially advanced session; every other stream keeps exact sequential
// semantics.
func (s *shard) processRun(run []packet) {
	lanes, next := s.lanes[:0], s.next[:0]
	for i := range run {
		next = append(next, -1)
		var st *stream
		s.safe(func() { st = s.streamFor(run[i].stream, run[i].key) })
		if st == nil {
			// Building the stream's stack panicked (counted by safe); submit
			// validated the framework, so this is a stage bug — drop the
			// packet rather than wedge the shard.
			continue
		}
		if st.lane == 0 {
			lanes = append(lanes, lane{st: st, cur: i, last: i})
			st.lane = len(lanes)
		} else {
			l := &lanes[st.lane-1]
			next[l.last], l.last = i, i
		}
	}
	for live := lanes; len(live) > 0; {
		n := 0
		for _, l := range live {
			p := &run[l.cur]
			pkg := p.pkgs[l.pos]
			s.safe(func() { s.classify(l.st, pkg) })
			if l.pos++; l.pos >= len(p.pkgs) {
				l.cur, l.pos = next[l.cur], 0
			}
			if l.cur < 0 {
				l.st.lane = 0
				continue
			}
			live[n] = l
			n++
		}
		live = live[:n]
	}
	clear(lanes)
	s.lanes, s.next = lanes, next
}

// marker honours a barrier or release marker. Shard FIFO ordered it behind
// every package queued before it, and those are classified; flushing
// completes their batched steps, so a barrier acknowledges finished work
// and a released session is never advanced afterwards. A panicking flush is
// counted and the marker is still honoured, so Barrier and Release cannot
// deadlock on a panicked tick.
func (s *shard) marker(pkt packet) {
	s.safe(s.flush)
	if pkt.release != nil {
		s.dropStream(pkt.stream)
		pkt.release.Done()
		return
	}
	pkt.barrier.Done()
}

// safe runs fn behind the shard's panic guard (see processRun): a panic
// is counted, and the engine's first one is kept for Stop.
func (s *shard) safe(fn func()) {
	defer func() {
		if r := recover(); r != nil {
			s.stats.handlerPanics.Add(1)
			s.e.firstPanic.CompareAndSwap(nil, &PanicError{Value: r, Stack: string(debug.Stack())})
		}
	}()
	fn()
}

// dropStream forgets a stream's shard state (release marker processing),
// and the batch of its pair with the pair's last stream on this shard.
func (s *shard) dropStream(stream string) {
	st, ok := s.streams[stream]
	if !ok {
		return
	}
	delete(s.streams, stream)
	s.stats.released.Add(1)
	fb := st.fb
	if fb.streams--; fb.streams == 0 && fb.key != s.e.def {
		s.batches = slices.DeleteFunc(s.batches, func(b *fwBatch) bool { return b == fb })
	}
}

// precompute batches the Check-phase work of the tick: for the first
// packet of every stream in the tick, each check-batchable stage (the
// PCA/GMM window levels) scores the upcoming package through its batched
// kernel and deposits the result in the stream state, where the
// sequential Check phase picks it up. Later packets of the same stream
// score inline — their stage state depends on the earlier packets'
// Advance — and take the bitwise-identical scalar path.
func (s *shard) precompute(tick []packet) {
	// Nothing to do unless some framework's stack batches Check scores —
	// the default two-level stack skips the whole pass (streams only
	// exist under frameworks with a batch, so an absent batch means no
	// batchable stream either).
	if !slices.ContainsFunc(s.batches, func(fb *fwBatch) bool { return fb.batch.HasCheck() }) {
		return
	}
	s.tick++
	queued := false
	for _, pkt := range tick {
		if len(pkt.pkgs) == 0 {
			// Barrier and release markers carry no package to score.
			continue
		}
		st := s.streams[pkt.stream]
		if st == nil || st.tickStamp == s.tick {
			// A stream's very first package can have no batchable window
			// (window levels need a cycle of history), so skipping unknown
			// streams loses nothing.
			continue
		}
		st.tickStamp = s.tick
		// Only a burst's first package is precomputable — the later ones
		// depend on state its Advance will move.
		st.fb.batch.QueueCheck(st.sess, pkt.pkgs[0])
		queued = true
	}
	if !queued {
		return
	}
	for _, fb := range s.batches {
		fb.batch.FlushCheck()
		// Publish the batch's cumulative counters (they also cover
		// batches flushed mid-queue when a stage's batch filled).
		flushes, scored := fb.batch.CheckBatchStats()
		s.stats.checkBatches.Add(flushes - fb.chkFlushes)
		s.stats.checkBatched.Add(scored - fb.chkScored)
		fb.chkFlushes, fb.chkScored = flushes, scored
	}
}

// streamFor returns the shard state of a stream, opening it under its
// pair on its first package.
func (s *shard) streamFor(id string, key pair) *stream {
	st := s.streams[id]
	if st == nil {
		fb := s.batchFor(key)
		st = &stream{id: id, sess: fb.stack.NewSession(), fb: fb}
		fb.streams++
		s.streams[id] = st
		s.stats.streams.Add(1)
	}
	return st
}

// classify classifies one package against its stream's session and defers
// the batchable Advance steps into the micro-batch.
func (s *shard) classify(st *stream, pkg *dataset.Package) {
	if st.pending || st.fb.batch.AdvanceFull() {
		s.flush()
	}
	v, pc := st.sess.ClassifyOnly(pkg)
	if st.fb.batch.QueueAdvance(st.sess, pc, v) {
		st.pending = true
		st.fb.inBatch = append(st.fb.inBatch, st)
	}

	s.stats.packages.Add(1)
	s.stats.byLevel[levelIndex(v.Level)].Add(1)
	if s.e.handler != nil {
		s.e.handler(Result{Stream: st.id, Seq: st.seq, Shard: s.id, Package: pkg, Verdict: v})
	}
	st.seq++
}

// flush advances every queued stream through one batched pass per stage
// per framework, in the deterministic first-seen framework order.
func (s *shard) flush() {
	for _, fb := range s.batches {
		n := fb.batch.AdvanceLen()
		if n == 0 {
			continue
		}
		s.stats.batched.Add(uint64(n))
		s.stats.batches.Add(1)
		fb.batch.FlushAdvance()
		for _, st := range fb.inBatch {
			st.pending = false
		}
		// Cleared, not just truncated: the backing array must not keep a
		// stream alive after Release.
		clear(fb.inBatch)
		fb.inBatch = fb.inBatch[:0]
	}
}
