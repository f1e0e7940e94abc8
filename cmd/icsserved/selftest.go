package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/serve"
	"icsdetect/internal/trace"
)

// selftestEpisodes are the committed episodes of each golden corpus.
var selftestEpisodes = []string{"normal", "nmri", "cmri", "msci", "mpci", "mfci", "dos", "recon"}

// selftestCorpus is one scenario's committed model and traces.
type selftestCorpus struct {
	name      string
	modelPath string
	fw        *core.Framework
	traces    map[string][]byte // episode -> raw trace bytes
	headers   map[string]trace.Header
	records   map[string]int
	goldens   map[string][]byte
}

func loadSelftestCorpus(name, dir string) (*selftestCorpus, error) {
	c := &selftestCorpus{
		name:      name,
		modelPath: filepath.Join(dir, "model.fw"),
		traces:    make(map[string][]byte),
		headers:   make(map[string]trace.Header),
		records:   make(map[string]int),
		goldens:   make(map[string][]byte),
	}
	fw, err := loadFramework(c.modelPath)
	if err != nil {
		return nil, err
	}
	c.fw = fw
	for _, ep := range selftestEpisodes {
		raw, err := os.ReadFile(filepath.Join(dir, ep+".trace"))
		if err != nil {
			return nil, err
		}
		hdr, recs, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, ep, err)
		}
		golden, err := os.ReadFile(filepath.Join(dir, ep+".verdicts"))
		if err != nil {
			return nil, err
		}
		c.traces[ep], c.headers[ep], c.records[ep], c.goldens[ep] = raw, hdr, len(recs), golden
	}
	return c, nil
}

// runSelftest is the end-to-end smoke drill behind -selftest: boot the
// daemon on ephemeral ports, replay both committed corpora concurrently
// over real TCP, hot-swap the default model mid-replay via the HTTP ops
// endpoint, SIGTERM ourselves, and verify every stream's verdicts against
// the goldens byte for byte.
func runSelftest(cfg serve.Config, root string) error {
	gas, err := loadSelftestCorpus("gaspipeline", root)
	if err != nil {
		return fmt.Errorf("selftest corpus: %w", err)
	}
	wt, err := loadSelftestCorpus("watertank", filepath.Join(root, "watertank"))
	if err != nil {
		return fmt.Errorf("selftest corpus: %w", err)
	}
	corpora := []*selftestCorpus{gas, wt}

	cfg.Models = nil
	for _, c := range corpora {
		cfg.Models = append(cfg.Models, serve.Model{
			Name: c.name, Framework: c.fw, Registers: registersFor(c.name),
		})
	}
	if cfg.DrainGrace < 30*time.Second {
		cfg.DrainGrace = 30 * time.Second
	}
	if cfg.SubscriberBuffer == 0 {
		cfg.SubscriberBuffer = 1 << 15
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	ingest, err := srv.ListenIngest("127.0.0.1:0")
	if err != nil {
		return err
	}
	verdicts, err := srv.ListenVerdicts("127.0.0.1:0")
	if err != nil {
		return err
	}
	ops, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icsserved: selftest daemon up (ingest %s, verdicts %s, http %s)\n",
		ingest, verdicts, ops)

	// Subscriber: collect per-stream verdicts until the drain EOF.
	sub, err := serve.Subscribe(verdicts)
	if err != nil {
		return err
	}
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
			received[ev.Stream] = append(received[ev.Stream], ev.Verdict)
		}
	}()

	// Replay every episode of both corpora concurrently. The first
	// gaspipeline connection triggers the HTTP hot-swap halfway through.
	swapAt := make(chan struct{})
	var swapOnce sync.Once
	var wg sync.WaitGroup
	errCh := make(chan error, len(corpora)*len(selftestEpisodes))
	for _, c := range corpora {
		for _, ep := range selftestEpisodes {
			wg.Add(1)
			go func(c *selftestCorpus, ep string) {
				defer wg.Done()
				stream := c.name + "-" + ep
				opts := serve.ReplayOptions{Stream: stream, Model: c.name}
				if c == gas && ep == "normal" {
					half := c.records[ep] / 2
					opts.OnRecord = func(i int) {
						if i == half {
							swapOnce.Do(func() { close(swapAt) })
						}
					}
				}
				n, err := serve.Replay(ingest, c.traces[ep], opts)
				if err != nil {
					errCh <- fmt.Errorf("%s: %w", stream, err)
					return
				}
				if n != uint64(c.records[ep]) {
					errCh <- fmt.Errorf("%s: accepted %d of %d packages", stream, n, c.records[ep])
				}
			}(c, ep)
		}
	}

	// Mid-replay hot-swap through the ops endpoint: post the default
	// model's own snapshot (same weights — the goldens stay valid).
	<-swapAt
	snapshot, err := os.Open(gas.modelPath)
	if err != nil {
		return fmt.Errorf("selftest hot-swap: %w", err)
	}
	defer snapshot.Close()
	resp, err := http.Post(
		fmt.Sprintf("http://%s/swap?model=gaspipeline", ops),
		"application/octet-stream", snapshot)
	if err != nil {
		return fmt.Errorf("selftest hot-swap: %w", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selftest hot-swap: %s: %s", resp.Status, bytes.TrimSpace(body))
	}
	fmt.Fprintf(os.Stderr, "icsserved: selftest mid-replay %s", body)

	wg.Wait()
	close(errCh)
	for err := range errCh {
		return fmt.Errorf("selftest replay: %w", err)
	}

	// Drain through the real signal path, as CI's kill would.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	<-sig
	if err := srv.Shutdown(); err != nil {
		return fmt.Errorf("selftest drain: %w", err)
	}
	if err := <-subDone; err != nil {
		return fmt.Errorf("selftest subscriber: %w", err)
	}
	sub.Close()

	// Byte-for-byte conformance of every stream against the goldens.
	streams := 0
	for _, c := range corpora {
		for _, ep := range selftestEpisodes {
			stream := c.name + "-" + ep
			vs, ok := received[stream]
			if !ok {
				return fmt.Errorf("selftest: no verdicts for stream %s", stream)
			}
			hdr := c.headers[ep]
			doc := trace.FormatVerdicts(hdr.Scenario, hdr.Fingerprint, vs)
			if line := trace.DiffVerdicts(c.goldens[ep], doc); line != 0 {
				return fmt.Errorf("selftest: stream %s differs from goldens at line %d", stream, line)
			}
			streams++
		}
	}

	est := srv.Engine().Stats()
	sst := srv.Stats()
	if est.HandlerPanics != 0 {
		return fmt.Errorf("selftest: %d handler panics", est.HandlerPanics)
	}
	if sst.Shed != 0 || sst.SubscriberDrops != 0 {
		return fmt.Errorf("selftest: dropped work (shed %d, subscriber drops %d)", sst.Shed, sst.SubscriberDrops)
	}
	if sst.ModelSwaps != 1 {
		return fmt.Errorf("selftest: %d model swaps, want 1", sst.ModelSwaps)
	}
	fmt.Fprintf(os.Stderr,
		"icsserved: selftest ok (%d streams, %d packages, 1 hot-swap, goldens byte-identical)\n",
		streams, est.Packages)
	return nil
}
