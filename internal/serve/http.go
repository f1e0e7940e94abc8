package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
)

// statsResponse is the /stats JSON document: lifetime and interval-delta
// engine counters, per-shard detail, and the daemon's own counters. The
// interval covers the window since the previous /stats scrape (Stats.Since),
// so rates reflect current load instead of being diluted by idle lifetime —
// the whole point of the Since bugfix.
type statsResponse struct {
	// Lifetime aggregates since engine start.
	Lifetime engine.Stats `json:"lifetime"`
	// LifetimeRate is Lifetime.PerSecond().
	LifetimeRate float64 `json:"lifetime_pkg_per_sec"`
	// Interval is the delta since the previous /stats scrape.
	Interval engine.Stats `json:"interval"`
	// IntervalSeconds is the scrape window in seconds; IntervalRate is the
	// mean classification rate over it.
	IntervalSeconds float64 `json:"interval_seconds"`
	IntervalRate    float64 `json:"interval_pkg_per_sec"`
	// MeanBatch is the interval's mean micro-batch width.
	MeanBatch float64 `json:"interval_mean_batch"`
	// Shards is the per-shard detail (queue depths are point-in-time).
	Shards []engine.ShardStats `json:"shards"`
	// Server is the daemon's connection/admission/subscriber counters;
	// ServerInterval is its delta since the previous scrape
	// (ServerStats.Since), in the same window as Interval.
	Server         ServerStats `json:"server"`
	ServerInterval ServerStats `json:"server_interval"`
	// MeanIngestBurst and MeanPublishBatch are the interval's amortization
	// widths: packages per engine admission call and events per published
	// verdict frame.
	MeanIngestBurst  float64 `json:"interval_mean_ingest_burst"`
	MeanPublishBatch float64 `json:"interval_mean_publish_batch"`
	// Subscribers is the per-subscriber detail: queue depth (frames
	// pending), capacity and drops, point-in-time.
	Subscribers []SubscriberStats `json:"subscribers"`
}

// Handler returns the ops endpoint: GET /healthz, GET /stats (JSON, see
// statsResponse), POST /swap?model=NAME&path=FILE (hot-swap from an
// icstrain -checkpoint snapshot on disk, or from a snapshot in the request
// body when no path is given).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/swap", s.handleSwap)
	return mux
}

// ListenHTTP binds the ops endpoint and serves it until Shutdown.
func (s *Server) ListenHTTP(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("serve: listen http: %w", err)
	}
	if err := s.track(ln); err != nil {
		return "", err
	}
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer s.acceptWG.Done()
		srv.Serve(ln)
		srv.Close()
	}()
	return ln.Addr().String(), nil
}

// handleStats serves the metrics snapshot. Interval deltas are scoped to
// this endpoint's scrape cadence: each call closes the window the previous
// call opened.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cur := s.eng.Stats()
	curServer := s.Stats()
	now := time.Now()
	s.statsMu.Lock()
	prev, prevServer, prevTime := s.lastStats, s.lastServer, s.lastTime
	s.lastStats, s.lastServer, s.lastTime = cur, curServer, now
	s.statsMu.Unlock()

	delta := cur.Since(prev)
	serverDelta := curServer.Since(prevServer)
	window := now.Sub(prevTime)
	resp := statsResponse{
		Lifetime:         cur,
		LifetimeRate:     cur.PerSecond(),
		Interval:         delta,
		IntervalSeconds:  window.Seconds(),
		IntervalRate:     delta.PerSecond(),
		MeanBatch:        delta.MeanBatch(),
		Shards:           s.eng.ShardStats(),
		Server:           curServer,
		ServerInterval:   serverDelta,
		MeanIngestBurst:  serverDelta.MeanIngestBurst(),
		MeanPublishBatch: serverDelta.MeanPublishBatch(),
		Subscribers:      s.SubscriberStats(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(resp)
}

// maxSwapBody caps a /swap request body. A snapshot of the paper's 2×256
// f64 model is about 14 MB.
const maxSwapBody = 64 << 20

// handleSwap hot-swaps a model from a framework snapshot. A body over
// s.swapLimit is answered 413 without being read further.
func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("model")
	var fw *core.Framework
	var err error
	if path := r.URL.Query().Get("path"); path != "" {
		var f *os.File
		if f, err = os.Open(path); err == nil {
			fw, err = core.Load(f)
			f.Close()
		}
	} else {
		fw, err = core.Load(http.MaxBytesReader(w, r.Body, s.swapLimit))
	}
	if err != nil {
		status := http.StatusBadRequest
		if tooLarge := (*http.MaxBytesError)(nil); errors.As(err, &tooLarge) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("load framework: %v", err), status)
		return
	}
	if err := s.SwapModel(name, fw); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if name == "" {
		name = s.def.name
	}
	fmt.Fprintf(w, "swapped %s to %s\n", name, fw.Fingerprint())
}
