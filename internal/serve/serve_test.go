package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/modbus"
	"icsdetect/internal/serve"
	"icsdetect/internal/trace"
)

// corpusEpisodes are the committed per-episode traces of each scenario
// corpus (kept in sync with the root conformance test).
var corpusEpisodes = []string{"normal", "nmri", "cmri", "msci", "mpci", "mfci", "dos", "recon"}

// serveTrace is one committed trace as the daemon tests consume it: the
// raw on-disk bytes (streamed verbatim over ingest connections), the
// parsed header, the record count, and the committed golden verdicts.
type serveTrace struct {
	name    string
	raw     []byte
	header  trace.Header
	records int
	golden  []byte
}

// serveCorpus is one scenario's committed model plus traces.
type serveCorpus struct {
	scenario string
	fw       *core.Framework
	traces   []serveTrace
}

// loadServeCorpus loads a committed golden corpus directory.
func loadServeCorpus(t *testing.T, scenarioName, dir string) *serveCorpus {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, "model.fw"))
	if err != nil {
		t.Fatalf("open %s corpus model: %v", scenarioName, err)
	}
	fw, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatalf("load %s corpus model: %v", scenarioName, err)
	}
	c := &serveCorpus{scenario: scenarioName, fw: fw}
	for _, name := range corpusEpisodes {
		raw, err := os.ReadFile(filepath.Join(dir, name+".trace"))
		if err != nil {
			t.Fatalf("read %s trace %s: %v", scenarioName, name, err)
		}
		header, records, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("parse %s trace %s: %v", scenarioName, name, err)
		}
		golden, err := os.ReadFile(filepath.Join(dir, name+".verdicts"))
		if err != nil {
			t.Fatalf("read %s goldens for %s: %v", scenarioName, name, err)
		}
		c.traces = append(c.traces, serveTrace{
			name: name, raw: raw, header: header, records: len(records), golden: golden,
		})
	}
	return c
}

// loadCorpora loads both scenario corpora (relative to this package).
func loadCorpora(t *testing.T) []*serveCorpus {
	t.Helper()
	root := filepath.Join("..", "..", "testdata", "traces")
	return []*serveCorpus{
		loadServeCorpus(t, "gaspipeline", root),
		loadServeCorpus(t, "watertank", filepath.Join(root, "watertank")),
	}
}

// cloneFramework round-trips a framework through Save/Load: identical
// weights (and fingerprint), distinct pointer — the shape of a hot-swap
// reload from an icstrain checkpoint.
func cloneFramework(t *testing.T, fw *core.Framework) *core.Framework {
	t.Helper()
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	fw2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return fw2
}

// newTestServer boots a server over the given corpora with ingest and
// verdict listeners on ephemeral ports.
func newTestServer(t *testing.T, cfg serve.Config, corpora []*serveCorpus) (srv *serve.Server, ingest, verdicts string) {
	t.Helper()
	return newBurstServer(t, cfg, corpora, 0)
}

// newBurstServer is newTestServer with the ingest burst cap lowered to
// burst (0 keeps the default).
func newBurstServer(t *testing.T, cfg serve.Config, corpora []*serveCorpus, burst int) (srv *serve.Server, ingest, verdicts string) {
	t.Helper()
	if cfg.Models == nil {
		for _, c := range corpora {
			cfg.Models = append(cfg.Models, serve.Model{Name: c.scenario, Framework: c.fw})
		}
	}
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	if burst > 0 {
		srv.SetIngestBurst(burst)
	}
	if ingest, err = srv.ListenIngest("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if verdicts, err = srv.ListenVerdicts("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	return srv, ingest, verdicts
}

// TestServeReplayEndToEnd is the acceptance-criteria drill: hundreds of
// concurrent TCP connections replay both scenario corpora through one
// daemon, a model hot-swap lands mid-replay, the daemon drains on
// Shutdown, and every stream's verdicts — received over the subscription
// socket — match the committed goldens byte for byte.
func TestServeReplayEndToEnd(t *testing.T) {
	// The drill runs twice: at full scale with the default ingest burst
	// cap, and at reduced scale with a cap of one, so every package is its
	// own admission. Both must reproduce the committed goldens byte for
	// byte.
	t.Run("burst", func(t *testing.T) {
		copies := 16 // 16 traces × 16 copies = 256 concurrent connections
		if testing.Short() {
			copies = 3
		}
		replayEndToEnd(t, 0, copies)
	})
	t.Run("per-package", func(t *testing.T) {
		copies := 4
		if testing.Short() {
			copies = 2
		}
		replayEndToEnd(t, 1, copies)
	})
}

func replayEndToEnd(t *testing.T, ingestBurst, copies int) {
	corpora := loadCorpora(t)

	srv, ingest, verdicts := newBurstServer(t, serve.Config{
		Engine:           engine.Config{MaxBatch: 16, QueueDepth: 64},
		SubscriberBuffer: 1 << 15,
		DrainGrace:       time.Minute,
	}, corpora, ingestBurst)

	sub, err := serve.Subscribe(verdicts)
	if err != nil {
		t.Fatal(err)
	}
	var subMu sync.Mutex
	received := make(map[string][]core.Verdict)
	subDone := make(chan error, 1)
	go func() {
		for {
			ev, err := sub.Next()
			if err == io.EOF {
				subDone <- nil
				return
			}
			if err != nil {
				subDone <- err
				return
			}
			subMu.Lock()
			if ev.Seq != uint64(len(received[ev.Stream])) {
				subMu.Unlock()
				subDone <- fmt.Errorf("stream %s: event seq %d out of order", ev.Stream, ev.Seq)
				return
			}
			received[ev.Stream] = append(received[ev.Stream], ev.Verdict)
			subMu.Unlock()
		}
	}()

	// One designated connection triggers the hot-swap partway through its
	// replay; the swap lands while most connections are mid-flight.
	swapAt := make(chan struct{})
	var swapOnce sync.Once

	type job struct {
		c      *serveCorpus
		tr     serveTrace
		stream string
		first  bool
	}
	var jobs []job
	for _, c := range corpora {
		for _, tr := range c.traces {
			for copy := 0; copy < copies; copy++ {
				jobs = append(jobs, job{
					c: c, tr: tr,
					stream: fmt.Sprintf("%s-%s-%02d", c.scenario, tr.name, copy),
					first:  c.scenario == "gaspipeline" && tr.name == "normal" && copy == 0,
				})
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs))
	for _, j := range jobs {
		wg.Add(1)
		go func(j job) {
			defer wg.Done()
			opts := serve.ReplayOptions{Stream: j.stream, Model: j.c.scenario}
			if j.first {
				opts.OnRecord = func(i int) {
					if i == j.tr.records/2 {
						swapOnce.Do(func() { close(swapAt) })
					}
				}
			}
			n, err := serve.Replay(ingest, j.tr.raw, opts)
			if err != nil {
				errs <- fmt.Errorf("%s: %v", j.stream, err)
				return
			}
			if n != uint64(j.tr.records) {
				errs <- fmt.Errorf("%s: server accepted %d of %d packages", j.stream, n, j.tr.records)
			}
		}(j)
	}

	// Mid-replay hot-swap: reload the gas model from a snapshot round-trip
	// (same weights, new framework value) and cut over behind a barrier.
	<-swapAt
	if err := srv.SwapModel("gaspipeline", cloneFramework(t, corpora[0].fw)); err != nil {
		t.Errorf("mid-replay SwapModel: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if t.Failed() {
		t.FailNow()
	}

	// Graceful drain: every admitted package classified and flushed to the
	// subscriber, which then sees a clean EOF.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-subDone; err != nil {
		t.Fatal(err)
	}
	sub.Close()

	if got := len(received); got != len(jobs) {
		t.Fatalf("subscriber saw %d streams, want %d", got, len(jobs))
	}
	for _, j := range jobs {
		vs := received[j.stream]
		doc := trace.FormatVerdicts(j.tr.header.Scenario, j.tr.header.Fingerprint, vs)
		if line := trace.DiffVerdicts(j.tr.golden, doc); line != 0 {
			t.Errorf("%s: verdict stream differs from goldens at line %d", j.stream, line)
		}
	}

	est := srv.Engine().Stats()
	if est.HandlerPanics != 0 {
		t.Errorf("HandlerPanics = %d", est.HandlerPanics)
	}
	if est.Released != uint64(len(jobs)) {
		t.Errorf("Released = %d, want %d (one per connection)", est.Released, len(jobs))
	}
	if est.ActiveStreams() != 0 {
		t.Errorf("ActiveStreams = %d after drain, want 0", est.ActiveStreams())
	}
	sst := srv.Stats()
	if sst.Shed != 0 || sst.SubscriberDrops != 0 {
		t.Errorf("drops during drain: shed=%d subscriberDrops=%d", sst.Shed, sst.SubscriberDrops)
	}
	if sst.ModelSwaps != 1 {
		t.Errorf("ModelSwaps = %d, want 1", sst.ModelSwaps)
	}
	if sst.ActiveConns != 0 {
		t.Errorf("ActiveConns = %d after drain", sst.ActiveConns)
	}
	var records uint64
	for _, j := range jobs {
		records += uint64(j.tr.records)
	}
	if sst.IngestRecords != records || sst.IngestBurstPkgs != records {
		t.Errorf("ingest counters: records=%d burstPkgs=%d, want %d both",
			sst.IngestRecords, sst.IngestBurstPkgs, records)
	}
	if sst.IngestBytes == 0 {
		t.Error("IngestBytes = 0 after replaying every corpus")
	}
	if sst.HubPublishedEvents != records {
		t.Errorf("HubPublishedEvents = %d, want %d", sst.HubPublishedEvents, records)
	}
	if ingestBurst == 1 && sst.IngestBursts != records {
		t.Errorf("a burst cap of one admitted %d bursts for %d packages, want one per package",
			sst.IngestBursts, records)
	}
}

// TestServeHandshakeErrors drills the rejection paths: bad magic, unknown
// model, duplicate stream claim, bad precision, fingerprint mismatch.
func TestServeHandshakeErrors(t *testing.T) {
	corpora := loadCorpora(t)
	_, ingest, _ := newTestServer(t, serve.Config{}, corpora)
	gas := corpora[0]

	t.Run("bad-magic", func(t *testing.T) {
		conn, err := net.Dial("tcp", ingest)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.Write([]byte("HTTP/1.1 GET /\r\n"))
		br := bufio.NewReader(conn)
		if code, err := br.ReadByte(); err != nil || code == 0 {
			t.Errorf("bad magic answered code=%d err=%v, want rejection", code, err)
		}
	})
	t.Run("unknown-model", func(t *testing.T) {
		if _, err := serve.Replay(ingest, gas.traces[0].raw, serve.ReplayOptions{Model: "no-such"}); err == nil {
			t.Error("unknown model accepted")
		}
	})
	t.Run("bad-precision", func(t *testing.T) {
		if _, err := serve.Replay(ingest, gas.traces[0].raw, serve.ReplayOptions{Precision: "f8"}); err == nil {
			t.Error("unknown precision accepted")
		}
	})
	t.Run("duplicate-stream", func(t *testing.T) {
		conn, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "dup"})
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "dup"}); err == nil {
			t.Error("second connection claimed a live stream ID")
		}
	})
	t.Run("fingerprint-mismatch", func(t *testing.T) {
		// A gas trace against the watertank model: the trace pins its model
		// by fingerprint, so the server must reject rather than mis-score.
		if _, err := serve.Replay(ingest, gas.traces[0].raw, serve.ReplayOptions{Model: "watertank"}); err == nil {
			t.Error("fingerprint mismatch accepted")
		}
	})
}

// TestServeLiveIngest drives the live Modbus path: MBAP frames in, verdict
// events out, with command/response direction inferred from transaction
// IDs, and load shed (not stalled) when the engine queue is full behind a
// blocked handler.
func TestServeLiveIngest(t *testing.T) {
	corpora := loadCorpora(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	blocked := make(chan struct{})
	var dirMu sync.Mutex
	var directions []float64
	// A burst cap of one: this test's shed count and strict
	// command/response alternation depend on packages being admitted (and
	// dropped) one at a time. Whole-burst shedding gets its own test below.
	srv, ingest, _ := newBurstServer(t, serve.Config{
		Models: []serve.Model{{
			Name: "gaspipeline", Framework: corpora[0].fw, Registers: gaspipeline.Registers(),
		}},
		Engine: engine.Config{Shards: 1, MaxBatch: 4, QueueDepth: 4},
		OnResult: func(r engine.Result) {
			dirMu.Lock()
			directions = append(directions, r.Package.CmdResponse)
			dirMu.Unlock()
			gateOnce.Do(func() { close(blocked) })
			<-gate
		},
	}, corpora[:1], 1)

	conn, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "plc-9"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One polling cycle: command (unseen TID) then response (same TID).
	// The first command goes alone and the rest wait until the handler is
	// blocked on it: the shard worker then sits in the handler with a
	// one-packet tick, so the queue fills and the live path must shed the
	// overflow rather than stall — and every shed decision falls after the
	// last admission (a worker still draining its queue while frames arrive
	// would free slots mid-stream and shed from the middle).
	const frames = 20
	for i := 0; i < frames/2; i++ {
		tid := uint16(i + 1)
		cmd := &modbus.TCPFrame{
			Header: modbus.MBAPHeader{TransactionID: tid, UnitID: 4},
			PDU:    modbus.ReadRequest(modbus.FuncReadHoldingRegisters, 0, 8),
		}
		resp := &modbus.TCPFrame{
			Header: modbus.MBAPHeader{TransactionID: tid, UnitID: 4},
			PDU:    modbus.ReadRegistersResponse(modbus.FuncReadHoldingRegisters, make([]uint16, 8)),
		}
		if err := modbus.WriteTCPFrame(conn, cmd); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-blocked
		}
		if err := modbus.WriteTCPFrame(conn, resp); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.Stats()
		if st.Live+st.Shed == frames {
			if st.Shed == 0 {
				t.Errorf("no packages shed behind a blocked handler (live=%d)", st.Live)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live+shed = %d+%d, want %d admitted-or-shed", st.Live, st.Shed, frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(gate)
	conn.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Direction heuristic: delivered packages alternate command/response
	// (shedding only truncates the tail of what the single stream saw in
	// order — it never reorders).
	dirMu.Lock()
	defer dirMu.Unlock()
	if len(directions) == 0 {
		t.Fatal("no live packages classified")
	}
	for i, d := range directions {
		want := float64(0)
		if i%2 == 0 {
			want = 1 // commands first
		}
		if d != want {
			t.Fatalf("package %d: CmdResponse = %v, want %v", i, d, want)
		}
	}
}

// TestServeLiveBurstSheds drives the live burst path: the handler wakes
// once per buffered run of MBAP frames, admits the whole burst with one
// TrySubmitBatchFor, and a full shard queue drops the whole burst —
// every frame is accounted live or shed, bursting actually amortizes
// (fewer admission calls than frames), and the classified packages stay
// in wire order.
func TestServeLiveBurstSheds(t *testing.T) {
	corpora := loadCorpora(t)
	gate := make(chan struct{})
	var gateOnce sync.Once
	blocked := make(chan struct{})
	var resMu sync.Mutex
	var times []float64
	srv, ingest, _ := newBurstServer(t, serve.Config{
		Models: []serve.Model{{
			Name: "gaspipeline", Framework: corpora[0].fw, Registers: gaspipeline.Registers(),
		}},
		Engine: engine.Config{Shards: 1, MaxBatch: 4, QueueDepth: 1},
		OnResult: func(r engine.Result) {
			resMu.Lock()
			times = append(times, r.Package.Time)
			resMu.Unlock()
			gateOnce.Do(func() { close(blocked) })
			<-gate
		},
	}, corpora[:1], 4)

	conn, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "plc-burst"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Write every frame in one syscall so the server's first blocking read
	// finds the rest already buffered: the drain loop forms real bursts.
	const frames = 200
	var wire bytes.Buffer
	for i := 0; i < frames/2; i++ {
		tid := uint16(i + 1)
		cmd := &modbus.TCPFrame{
			Header: modbus.MBAPHeader{TransactionID: tid, UnitID: 4},
			PDU:    modbus.ReadRequest(modbus.FuncReadHoldingRegisters, 0, 8),
		}
		resp := &modbus.TCPFrame{
			Header: modbus.MBAPHeader{TransactionID: tid, UnitID: 4},
			PDU:    modbus.ReadRegistersResponse(modbus.FuncReadHoldingRegisters, make([]uint16, 8)),
		}
		if err := modbus.WriteTCPFrame(&wire, cmd); err != nil {
			t.Fatal(err)
		}
		if err := modbus.WriteTCPFrame(&wire, resp); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire.Bytes()); err != nil {
		t.Fatal(err)
	}

	// The handler blocks on the first package; with QueueDepth 1 the later
	// bursts must shed whole — every frame accounted, none stalling the
	// wire.
	<-blocked
	deadline := time.Now().Add(30 * time.Second)
	var st serve.ServerStats
	for {
		st = srv.Stats()
		if st.Live+st.Shed == frames {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live+shed = %d+%d, want %d admitted-or-shed", st.Live, st.Shed, frames)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Shed == 0 {
		t.Errorf("no bursts shed behind a blocked handler (live=%d)", st.Live)
	}
	if st.Live == 0 {
		t.Error("no bursts admitted")
	}
	if st.IngestRecords != frames || st.IngestBurstPkgs != frames {
		t.Errorf("ingest counters: records=%d burstPkgs=%d, want %d both",
			st.IngestRecords, st.IngestBurstPkgs, frames)
	}
	if st.IngestBursts >= frames {
		t.Errorf("IngestBursts = %d for %d frames: live path never formed a burst", st.IngestBursts, frames)
	}
	close(gate)
	conn.Close()
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Whole-burst shedding only truncates contiguous runs: the classified
	// packages must keep wire order, visible in their monotonic decode
	// timestamps.
	resMu.Lock()
	defer resMu.Unlock()
	if len(times) == 0 {
		t.Fatal("no live packages classified")
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("package %d decoded at %v after package %d at %v: wire order lost",
				i, times[i], i-1, times[i-1])
		}
	}
}

// TestServeHotSwapSemantics: connections accepted after a SwapModel bind
// the new framework (a stale-fingerprint trace is rejected), while a
// connection alive across the swap keeps its pinned framework and still
// reproduces the goldens of the old model.
func TestServeHotSwapSemantics(t *testing.T) {
	corpora := loadCorpora(t)
	gas, wt := corpora[0], corpora[1]

	var mu sync.Mutex
	verdicts := make(map[string][]core.Verdict)
	srv, ingest, _ := newTestServer(t, serve.Config{
		Models: []serve.Model{{Name: "gaspipeline", Framework: gas.fw}},
		OnResult: func(r engine.Result) {
			mu.Lock()
			verdicts[r.Stream] = append(verdicts[r.Stream], r.Verdict)
			mu.Unlock()
		},
	}, corpora[:1])

	// Start a replay that pauses mid-trace, swap the model underneath it
	// to a different framework entirely, then let it finish.
	tr := gas.traces[0]
	swapped := make(chan struct{})
	resume := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := serve.Replay(ingest, tr.raw, serve.ReplayOptions{
			Stream: "survivor",
			OnRecord: func(i int) {
				if i == tr.records/2 {
					close(swapped)
					<-resume
				}
			},
		})
		done <- err
	}()
	<-swapped
	if err := srv.SwapModel("gaspipeline", wt.fw); err != nil {
		t.Fatalf("SwapModel: %v", err)
	}
	// A connection accepted now binds the watertank framework: the gas
	// trace's pinned fingerprint no longer matches.
	if _, err := serve.Replay(ingest, tr.raw, serve.ReplayOptions{Stream: "stale"}); err == nil {
		t.Error("post-swap connection still bound the old framework")
	}
	// ...while the watertank corpus replays cleanly against the swapped-in
	// model.
	if n, err := serve.Replay(ingest, wt.traces[0].raw, serve.ReplayOptions{Stream: "fresh"}); err != nil {
		t.Errorf("post-swap replay under the new framework: %v", err)
	} else if n != uint64(wt.traces[0].records) {
		t.Errorf("post-swap replay accepted %d of %d", n, wt.traces[0].records)
	}
	close(resume)
	if err := <-done; err != nil {
		t.Fatalf("mid-swap replay: %v", err)
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	doc := trace.FormatVerdicts(tr.header.Scenario, tr.header.Fingerprint, verdicts["survivor"])
	if line := trace.DiffVerdicts(tr.golden, doc); line != 0 {
		t.Errorf("stream alive across the swap diverged from its model's goldens at line %d", line)
	}
	wtr := wt.traces[0]
	wdoc := trace.FormatVerdicts(wtr.header.Scenario, wtr.header.Fingerprint, verdicts["fresh"])
	if line := trace.DiffVerdicts(wtr.golden, wdoc); line != 0 {
		t.Errorf("post-swap stream diverged from the new model's goldens at line %d", line)
	}
}

// TestServeConcurrentLifecycle is the race canary for the serving plane:
// concurrent accepts, replays, releases, hot-swaps, subscriber churn and
// stats scrapes against one daemon, then a drain — run under -race by
// make race-quick.
func TestServeConcurrentLifecycle(t *testing.T) {
	corpora := loadCorpora(t)
	srv, ingest, verdicts := newTestServer(t, serve.Config{
		Engine:           engine.Config{MaxBatch: 8, QueueDepth: 32},
		SubscriberBuffer: 1 << 14,
		DrainGrace:       time.Minute,
	}, corpora)

	stop := make(chan struct{})
	var aux sync.WaitGroup

	// Subscriber churn: attach, read a little, detach, repeat.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			sub, err := serve.Subscribe(verdicts)
			if err != nil {
				return
			}
			for i := 0; i < 50; i++ {
				if _, err := sub.Next(); err != nil {
					break
				}
			}
			sub.Close()
		}
	}()
	// Stats scrapes.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = srv.Stats()
				_ = srv.Engine().Stats()
				_ = srv.Engine().ShardStats()
			}
		}
	}()
	// Hot-swap churn on both models.
	aux.Add(1)
	go func() {
		defer aux.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			c := corpora[i%len(corpora)]
			if err := srv.SwapModel(c.scenario, c.fw); err != nil {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Replay workers: several rounds of connection churn per trace so
	// accept/claim/release cycles overlap with everything above. Stream IDs
	// are reused round to round, exercising Release-then-rebind.
	var wg sync.WaitGroup
	var failed atomic.Bool
	rounds := 3
	if testing.Short() {
		rounds = 2
	}
	for w, c := range map[int]*serveCorpus{0: corpora[0], 1: corpora[1]} {
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(w, k int, c *serveCorpus) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					tr := c.traces[(k+r)%len(c.traces)]
					stream := fmt.Sprintf("W%d-%d", w, k)
					if _, err := serve.Replay(ingest, tr.raw, serve.ReplayOptions{
						Stream: stream, Model: c.scenario,
					}); err != nil {
						t.Errorf("replay %s round %d: %v", stream, r, err)
						failed.Store(true)
						return
					}
				}
			}(w, k, c)
		}
	}
	wg.Wait()
	close(stop)
	// Shutdown before joining the aux goroutines: the subscriber-churn
	// goroutine can be parked in Next() on an idle stream, and the drain's
	// hub close is what EOFs it loose.
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	aux.Wait()
	if failed.Load() {
		t.FailNow()
	}
	if st := srv.Engine().Stats(); st.HandlerPanics != 0 {
		t.Errorf("HandlerPanics = %d", st.HandlerPanics)
	}
}

// TestServeIdleTimeoutReleasesWedgedStream: a live-mode peer that
// completes the handshake — claiming a stream ID, an engine stream and a
// handler goroutine — and then goes silent must be dropped once
// Config.IdleTimeout expires: the connection closes, the engine stream is
// released, and the stream ID can be claimed again. This is the
// regression test for the half-open-peer leak: without an idle read
// deadline the wedged connection held all three forever.
func TestServeIdleTimeoutReleasesWedgedStream(t *testing.T) {
	corpora := loadCorpora(t)
	srv, ingest, _ := newTestServer(t, serve.Config{
		Models: []serve.Model{{
			Name: "gaspipeline", Framework: corpora[0].fw, Registers: gaspipeline.Registers(),
		}},
		IdleTimeout: 150 * time.Millisecond,
	}, corpora[:1])
	base := srv.Engine().Stats().ActiveStreams()

	conn, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "wedge"})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// One frame after the handshake: the deadline re-arms on every read,
	// so an active peer is never cut off — only the silence that follows.
	f := &modbus.TCPFrame{
		Header: modbus.MBAPHeader{TransactionID: 1, UnitID: 4},
		PDU:    modbus.ReadRequest(modbus.FuncReadHoldingRegisters, 0, 8),
	}
	if err := modbus.WriteTCPFrame(conn, f); err != nil {
		t.Fatal(err)
	}

	// Go silent. The server must notice on its own — the client never
	// closes — and release the connection slot and the engine stream.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := srv.Stats()
		if st.ActiveConns == 0 && srv.Engine().Stats().ActiveStreams() == base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("wedged live peer still holds conns=%d extra-streams=%d after idle timeout",
				st.ActiveConns, srv.Engine().Stats().ActiveStreams()-base)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The stream ID is free again: a second claim, which the
	// duplicate-stream guard rejects while the first holds it, succeeds.
	conn2, err := serve.DialLive(ingest, serve.ReplayOptions{Stream: "wedge"})
	if err != nil {
		t.Fatalf("re-claim released stream: %v", err)
	}
	conn2.Close()
}

// TestServeSubscribeRegistersBeforeAck: Subscribe returns only once the
// hub counts the subscriber, so every verdict published after it returns
// is delivered or counted as a drop. Acknowledging before registering left
// a window in which Stats().Subscribers had not caught up and a published
// verdict reached nobody, uncounted.
func TestServeSubscribeRegistersBeforeAck(t *testing.T) {
	srv, _, verdicts := newTestServer(t, serve.Config{}, loadCorpora(t)[:1])
	const rounds = 100
	for i := uint64(1); i <= rounds; i++ {
		sub, err := serve.Subscribe(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		if got := srv.Stats().Subscribers; got != i {
			t.Fatalf("subscriber %d: Stats().Subscribers = %d right after Subscribe returned", i, got)
		}
	}
}

// TestServeReplayRedialSameStream: a replay connection releases its stream
// — engine state included — before it writes the trailer, so when Replay
// returns the engine holds nothing for the stream, and a client that
// re-dials the same stream ID straight away is never rejected as already
// connected nor races the old stream's release.
func TestServeReplayRedialSameStream(t *testing.T) {
	gas := loadCorpora(t)[0]
	srv, ingest, _ := newTestServer(t, serve.Config{}, []*serveCorpus{gas})
	tr := gas.traces[len(gas.traces)-1]
	for i := 0; i < 100; i++ {
		n, err := serve.Replay(ingest, tr.raw, serve.ReplayOptions{Stream: "redial"})
		if err != nil {
			t.Fatalf("replay %d: %v", i, err)
		}
		if n != uint64(tr.records) {
			t.Fatalf("replay %d: server accepted %d of %d records", i, n, tr.records)
		}
		if active := srv.Engine().Stats().ActiveStreams(); active != 0 {
			t.Fatalf("replay %d returned with %d engine streams still bound", i, active)
		}
	}
}

// TestServeSwapBodyLimit: a /swap body over the cap is refused with 413
// before the snapshot is loaded; the same snapshot within the cap swaps.
func TestServeSwapBodyLimit(t *testing.T) {
	gas := loadCorpora(t)[0]
	srv, err := serve.New(serve.Config{Models: []serve.Model{{Name: "gaspipeline", Framework: gas.fw}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	var snapshot bytes.Buffer
	if err := gas.fw.Save(&snapshot); err != nil {
		t.Fatal(err)
	}
	swap := func(limit int64) *httptest.ResponseRecorder {
		srv.SetSwapLimit(limit)
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/swap?model=gaspipeline", bytes.NewReader(snapshot.Bytes()))
		srv.Handler().ServeHTTP(rec, req)
		return rec
	}
	if rec := swap(int64(snapshot.Len()) - 1); rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("body of limit+1 bytes: status %d, want 413 (%s)", rec.Code, rec.Body)
	}
	if rec := swap(int64(snapshot.Len())); rec.Code != http.StatusOK {
		t.Errorf("body at the limit: status %d, want 200 (%s)", rec.Code, rec.Body)
	}
}

// TestServeSwapRefusesPath: the ops endpoint opens no file. A /swap that
// names a readable snapshot with path= is refused with 400, and nothing is
// swapped.
func TestServeSwapRefusesPath(t *testing.T) {
	gas := loadCorpora(t)[0]
	srv, err := serve.New(serve.Config{Models: []serve.Model{{Name: "gaspipeline", Framework: gas.fw}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Shutdown() })
	path := filepath.Join("..", "..", "testdata", "traces", "model.fw")
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	before := srv.Stats().ModelSwaps
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/swap?model=gaspipeline&path="+path, nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("/swap with path=: status %d, want 400 (%s)", rec.Code, rec.Body)
	}
	if after := srv.Stats().ModelSwaps; after != before {
		t.Errorf("/swap with path= swapped: ModelSwaps %d -> %d", before, after)
	}
}

// TestServeStats: /stats reports what the daemon did. After one golden
// trace is replayed, both scrapes count every record over the lifetime;
// the second scrape's interval covers only the time since the first, so it
// counts none; and every attached subscriber is listed with the default
// queue bound and, once it has read every verdict, an empty queue.
func TestServeStats(t *testing.T) {
	gas := loadCorpora(t)[0]
	srv, ingest, verdicts := newTestServer(t, serve.Config{}, []*serveCorpus{gas})
	const subscribers = 2
	subs := make([]*serve.Subscription, subscribers)
	for i := range subs {
		sub, err := serve.Subscribe(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
	}
	tr := gas.traces[0]
	if n, err := serve.Replay(ingest, tr.raw, serve.ReplayOptions{Stream: "stats"}); err != nil || n != uint64(tr.records) {
		t.Fatalf("replay: accepted %d of %d records (%v)", n, tr.records, err)
	}
	read := make(chan error, subscribers)
	for _, sub := range subs {
		go func(sub *serve.Subscription) {
			for i := 0; i < tr.records; i++ {
				ev, err := sub.Next()
				if err == nil && ev.Seq != uint64(i) {
					err = fmt.Errorf("verdict %d arrived with seq %d", i, ev.Seq)
				}
				if err != nil {
					read <- err
					return
				}
			}
			read <- nil
		}(sub)
	}
	for range subs {
		select {
		case err := <-read:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("subscribers did not receive every verdict")
		}
	}
	scrape := func() serve.StatsResponse {
		t.Helper()
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("GET /stats: status %d (%s)", rec.Code, rec.Body)
		}
		var resp serve.StatsResponse
		if err := json.NewDecoder(rec.Body).Decode(&resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first, second := scrape(), scrape()
	want := uint64(tr.records)
	for i, st := range []serve.StatsResponse{first, second} {
		if st.Lifetime.Packages != want {
			t.Errorf("scrape %d: %d lifetime packages, want %d", i+1, st.Lifetime.Packages, want)
		}
		if len(st.Subscribers) != subscribers {
			t.Errorf("scrape %d: %d subscribers listed, want %d", i+1, len(st.Subscribers), subscribers)
		}
		for _, sub := range st.Subscribers {
			if sub.QueueCap != 1024 || sub.QueueDepth != 0 {
				t.Errorf("scrape %d: subscriber %+v, want queue cap 1024 and depth 0", i+1, sub)
			}
		}
	}
	if first.Interval.Packages != want {
		t.Errorf("first scrape: %d packages in the interval, want %d", first.Interval.Packages, want)
	}
	if second.Interval.Packages != 0 {
		t.Errorf("second scrape: %d packages in the interval, want 0", second.Interval.Packages)
	}
}
