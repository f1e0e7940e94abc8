package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
)

// tickEvery is the open-loop schedule of every paced phase: tick j is due
// at start + j·tickEvery, and each package's latency is counted from its
// tick's due time, never from when the sender actually woke.
const tickEvery = time.Millisecond

// windows is how many equal-count slices a flood phase is cut into. The
// reported throughput is the median slice rate, so one scheduler stall on
// the shared box moves one slice, not the metric.
const windows = 10

// pacer is one sender's open-loop clock. wait sleeps until a tick is due
// (no spinning, no skipping when late) and records how late the sender
// woke — the loadgen.late_* validity metrics.
type pacer struct {
	start time.Time
	late  []int64
	// With markEvery set, the pacer notes the process CPU time every
	// markEvery ticks, perTick packages (over all senders) having been
	// sent per tick: the slices cpu_ns_per_pkg is the median of.
	markEvery, perTick int
	marks              []mark
}

func (p *pacer) due(tick int) time.Time {
	return p.start.Add(time.Duration(tick) * tickEvery)
}

func (p *pacer) wait(tick int) {
	if p.markEvery > 0 && tick%p.markEvery == 0 {
		p.marks = append(p.marks, markNow(uint64(tick*p.perTick)))
	}
	due := p.due(tick)
	for d := time.Until(due); d > 0; d = time.Until(due) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
	p.late = append(p.late, int64(time.Since(due)))
}

// startLine gives the senders of a paced phase one shared schedule: the
// last to arrive sets tick 0 a millisecond ahead. Without it each sender
// would start its own clock whenever its connection came up, and the
// phase between the two schedules — which decides how often their ticks
// collide — would differ from run to run.
type startLine struct {
	mu      sync.Mutex
	waiting int
	ready   chan struct{}
	start   time.Time
}

func newStartLine(senders int) *startLine {
	return &startLine{waiting: senders, ready: make(chan struct{})}
}

func (l *startLine) arrive() time.Time {
	l.mu.Lock()
	l.waiting--
	if l.waiting == 0 {
		l.start = time.Now().Add(tickEvery)
		close(l.ready)
	}
	l.mu.Unlock()
	<-l.ready
	return l.start
}

// windowQuantiles cuts samples (in arrival order) into equal slices, takes
// the q-quantile of each and returns the median over the slices: a stall of
// the shared box lands in one slice instead of moving the whole phase's
// percentile.
func windowQuantiles(samples []int64, q float64) float64 {
	n := len(samples) / windows
	if n < 100 {
		s := append([]int64(nil), samples...)
		sortInt64(s)
		return quantile(s, q)
	}
	per := make([]float64, windows)
	for k := range per {
		s := append([]int64(nil), samples[k*n:(k+1)*n]...)
		sortInt64(s)
		per[k] = quantile(s, q)
	}
	return medianFloat(per)
}

// quantile returns the q-quantile of sorted (ascending) samples.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i])
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

func medianFloat(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// mark is one milestone of a phase: when it was reached, the process CPU
// time by then, and how many packages were done.
type mark struct {
	at   time.Time
	cpu  time.Duration
	done uint64
}

func markNow(done uint64) mark { return mark{time.Now(), cpuNow(), done} }

// medianRate is the median over a phase's slices of packages per second.
func medianRate(marks []mark) float64 {
	var rates []float64
	for k := 1; k < len(marks); k++ {
		d := marks[k].at.Sub(marks[k-1].at).Seconds()
		if n := marks[k].done - marks[k-1].done; n > 0 && d > 0 {
			rates = append(rates, float64(n)/d)
		}
	}
	return medianFloat(rates)
}

// medianCPU is the median over a phase's slices of process CPU nanoseconds
// per package.
func medianCPU(marks []mark) float64 {
	var per []float64
	for k := 1; k < len(marks); k++ {
		if n := marks[k].done - marks[k-1].done; n > 0 {
			per = append(per, float64(marks[k].cpu-marks[k-1].cpu)/float64(n))
		}
	}
	return medianFloat(per)
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapAfterGC is HeapAlloc once garbage is gone: two collections, because
// sync.Pool contents survive the first.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// memDelta is the allocator and collector activity between two
// runtime.MemStats snapshots.
type memDelta struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcPause        time.Duration
}

func memSnapshot() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func memSince(before runtime.MemStats) memDelta {
	after := memSnapshot()
	return memDelta{
		mallocs:  after.Mallocs - before.Mallocs,
		bytes:    after.TotalAlloc - before.TotalAlloc,
		gcCycles: after.NumGC - before.NumGC,
		gcPause:  time.Duration(after.PauseTotalNs - before.PauseTotalNs),
	}
}

// clockCost calibrates one time.Now+time.Since pair, so spans that must
// read the clock once per package (the stage wrappers, ClassifyOnly vs
// Advance) can subtract what the reads themselves cost.
func clockCost() time.Duration {
	const n = 20000
	best := time.Duration(math.MaxInt64)
	for round := 0; round < 3; round++ {
		var sink time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			sink += time.Since(time.Now())
		}
		if d := time.Since(start) / n; d < best && sink >= 0 {
			best = d
		}
	}
	return best
}

// mix folds one word into a running verdict hash.
func mix(h, x uint64) uint64 {
	h ^= x
	h *= 0x9E3779B97F4A7C15
	return h ^ h>>29
}

func mixString(h uint64, s string) uint64 {
	h = mix(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 0x100000001B3
	}
	return h
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// mixVerdict folds one verdict — every field a consumer can observe: seq,
// anomaly, level, rank, signature, evidence — into a stream's running
// hash. It runs on the measured cores for every package, so it is a few
// multiplies, not a byte-serializing hash.Hash.
func mixVerdict(h, seq uint64, v *core.Verdict) uint64 {
	h = mix(h, seq)
	h = mix(h, uint64(v.Level)<<1|b2u(v.Anomaly))
	h = mix(h, uint64(int64(v.Rank)))
	h = mixString(h, v.Signature)
	for i := range v.Evidence {
		e := &v.Evidence[i]
		h = mixString(h, e.Stage)
		h = mix(h, uint64(e.Level)<<2|b2u(e.Flagged)<<1|b2u(e.Scored))
		h = mix(h, math.Float64bits(e.Score))
		h = mix(h, uint64(int64(e.Rank)))
	}
	return h
}

// streamCheck is the consumer-side record of one stream's verdicts: order,
// count, and the running hash captured at the package count the reference
// covers. One goroutine owns each streamCheck (the shard that serves the
// stream, or the subscriber); readers wait for the phase to end.
type streamCheck struct {
	lane int
	// The stream must deliver want verdicts numbered from base; refAt is
	// the count since the stream's first package at which the running hash
	// is compared with the lane's reference (0: never).
	base, want, refAt uint64
	next              uint64
	hash              uint64
	refHash           uint64
	misordered        uint64
}

func (s *streamCheck) observe(seq uint64, v *core.Verdict) {
	if seq != s.next {
		s.misordered++
	}
	s.next = seq + 1
	s.hash = mixVerdict(s.hash, seq, v)
	if s.next == s.refAt {
		s.refHash = s.hash
	}
}

// refLane is the sequential reference of one traffic lane: the running
// verdict hash of a single core.Session at each requested package count.
type refLane struct {
	hashAt    map[uint64]uint64
	packages  int
	anomalies int
	elapsed   time.Duration
}

// reference classifies the lane's packages with one sequential session of
// spec and records the running hash at every count in at. The elapsed time
// doubles as core.seq_pps, the single-threaded baseline.
func reference(fw *core.Framework, spec core.StackSpec, pkgs []*dataset.Package, at []uint64) (*refLane, error) {
	sess, err := fw.NewStackSession(spec)
	if err != nil {
		return nil, err
	}
	at = append([]uint64(nil), at...)
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	if len(at) == 0 || at[len(at)-1] > uint64(len(pkgs)) {
		return nil, fmt.Errorf("reference counts %v over a lane of %d packages", at, len(pkgs))
	}
	ref := &refLane{hashAt: make(map[uint64]uint64, len(at)), packages: int(at[len(at)-1])}
	var h uint64
	start := time.Now()
	for i, p := range pkgs[:ref.packages] {
		v := sess.Classify(p)
		if v.Anomaly {
			ref.anomalies++
		}
		h = mixVerdict(h, uint64(i), &v)
		for len(at) > 0 && at[0] == uint64(i+1) {
			ref.hashAt[at[0]] = h
			at = at[1:]
		}
	}
	ref.elapsed = time.Since(start)
	return ref, nil
}

// references runs one reference per lane, in parallel: the measuring is
// over by then and the lanes are independent.
func references(fw *core.Framework, spec core.StackSpec, lanes []*lane, at []uint64) ([]*refLane, error) {
	refs := make([]*refLane, len(lanes))
	errs := make([]error, len(lanes))
	var wg sync.WaitGroup
	for l := range lanes {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			refs[l], errs[l] = reference(fw, spec, lanes[l].pkgs, at)
		}(l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return refs, nil
}

// tally is the outcome of checking a phase's streams: packages sent,
// packages that count as failed (missing, out of order, or on a stream
// whose hash disagrees with the reference), and the violations that make
// the run incorrect.
type tally struct {
	attempted, failed uint64
	violations        []string
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.violations = append(t.violations, o.violations...)
}

func (t *tally) violation(format string, args ...any) {
	if len(t.violations) < 8 {
		t.violations = append(t.violations, fmt.Sprintf(format, args...))
	}
}

// checkStreams verifies every stream of a phase: count and order always,
// the hash against the lane's sequential reference where refs is given
// (live mode has none: wall-clock time is a model input there). mayShed
// says lost verdicts are a legal outcome the caller accounts for (live
// admission sheds); they still count as failed.
func checkStreams(phase string, streams []streamCheck, refs []*refLane, mayShed, corrupt bool) tally {
	var t tally
	for i := range streams {
		s := &streams[i]
		t.attempted += s.want
		var lost uint64
		if end := s.base + s.want; s.next < end {
			lost = end - s.next
		} else {
			lost = s.next - end
		}
		if !mayShed && lost+s.misordered > 0 {
			t.violation("%s stream %d: %d of %d verdicts missing, %d out of order", phase, i, lost, s.want, s.misordered)
		}
		bad := lost + s.misordered
		if refs != nil && s.refAt > 0 && bad == 0 {
			want := refs[s.lane].hashAt[s.refAt]
			if corrupt {
				want ^= 1
			}
			if s.refHash != want {
				bad = s.want
				t.violation("%s stream %d: verdict hash %016x at %d packages, sequential reference says %016x",
					phase, i, s.refHash, s.refAt, want)
			}
		}
		if bad > s.want {
			bad = s.want
		}
		t.failed += bad
	}
	return t
}
