// Command icsserved is the wire-to-verdict serving daemon: it accepts live
// Modbus/TCP device connections and recorded-trace replay streams over TCP,
// classifies every package through the multi-level detection engine, and fans
// verdicts out to subscribers — the paper's detection framework run as a
// long-lived network service instead of a one-shot tool.
//
// Usage:
//
//	icsserved -model gaspipeline=model.bin [-model watertank=wt.bin]
//	          [-ingest :1502] [-verdicts :1503] [-http :1504]
//	          [-levels bloom,lstm] [-fusion first-hit] [-precision f64]
//	          [-shards N] [-maxbatch 64] [-queue 256]
//	          [-drain 5s] [-idle 0] [-subbuffer 1024] [-subwrite 0]
//	          [-statsevery 0]
//
// Each -model names a served model (name=path); the first is the default for
// connections that name none. A model named after a registered scenario
// (gaspipeline, watertank) serves live Modbus connections with that testbed's
// register layout; replay connections carry their layout in the trace header.
//
// Listeners:
//
//   - -ingest accepts device connections: a short handshake selects replay
//     mode (an ICSTRACE byte stream, blocking admission) or live mode (raw
//     MBAP-framed Modbus/TCP, shedding admission).
//   - -verdicts streams classified verdicts to any number of subscribers.
//   - -http is the ops endpoint: GET /healthz, GET /stats (lifetime plus
//     interval-delta engine counters), POST /swap?model=NAME (hot-swap a
//     retrained icstrain -checkpoint snapshot behind an engine barrier,
//     without restarting or disturbing live streams; the snapshot is the
//     request body, at most 64 MiB, and a path= is refused).
//
// -statsevery additionally logs interval package rates to stderr. SIGTERM or
// SIGINT drains gracefully: stop accepting, finish live connections (bounded
// by -drain), classify every admitted package, flush subscribers, exit.
//
// -selftest ignores the listener flags and runs the committed-corpus smoke
// drill against a daemon booted on ephemeral ports: replay both scenario
// corpora concurrently over real TCP, hot-swap the default model mid-replay
// through the HTTP endpoint, SIGTERM the daemon, and verify the subscriber's
// verdict streams against the golden files byte for byte.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icsdetect/internal/cli"
	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/scenario"
	"icsdetect/internal/serve"
	"icsdetect/internal/tap"

	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsserved:", err)
		os.Exit(1)
	}
}

// modelList collects repeated -model name=path flags in order.
type modelList []struct{ name, path string }

func (m *modelList) String() string {
	var parts []string
	for _, e := range *m {
		parts = append(parts, e.name+"="+e.path)
	}
	return strings.Join(parts, ",")
}

func (m *modelList) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	*m = append(*m, struct{ name, path string }{name, path})
	return nil
}

func run() error {
	var models modelList
	flag.Var(&models, "model", "served model as name=path; repeatable, first is the default (required)")
	var (
		ingest     = flag.String("ingest", ":1502", "ingest listener address (device connections)")
		verdicts   = flag.String("verdicts", ":1503", "verdict subscription listener address (empty disables)")
		httpAddr   = flag.String("http", ":1504", "ops HTTP listener address (empty disables)")
		shards     = flag.Int("shards", 0, "engine worker shards (default GOMAXPROCS)")
		maxBatch   = flag.Int("maxbatch", 0, "micro-batch width cap (default 64)")
		queue      = flag.Int("queue", 0, "per-shard queue depth (default 4*maxbatch)")
		drain      = flag.Duration("drain", 5*time.Second, "shutdown grace for live connections")
		idle       = flag.Duration("idle", 0, "ingest idle read deadline; a silent peer is dropped and its stream released (0 disables)")
		subBuffer  = flag.Int("subbuffer", 0, "per-subscriber frame buffer (default 1024)")
		subWrite   = flag.Duration("subwrite", 0, "subscriber write deadline; a wedged subscriber is dropped and its queue counted as drops (0 disables)")
		statsEvery = flag.Duration("statsevery", 0, "log interval package rates this often (0 disables)")
		selftest   = flag.Bool("selftest", false, "run the committed-corpus smoke drill and exit")
		testdata   = flag.String("testdata", "testdata/traces", "golden corpus root for -selftest")
	)
	stack := cli.StackFlags(flag.CommandLine)
	flag.Parse()
	if stack.List(os.Stdout) {
		return nil
	}
	spec, err := stack.Spec()
	if err != nil {
		return err
	}

	cfg := serve.Config{
		Engine: engine.Config{
			Shards:     *shards,
			MaxBatch:   *maxBatch,
			QueueDepth: *queue,
			Stack:      spec,
		},
		DrainGrace:             *drain,
		IdleTimeout:            *idle,
		SubscriberBuffer:       *subBuffer,
		SubscriberWriteTimeout: *subWrite,
	}

	if *selftest {
		return runSelftest(cfg, *testdata)
	}
	if len(models) == 0 {
		return fmt.Errorf("at least one -model name=path is required")
	}
	for _, m := range models {
		fw, err := loadFramework(m.path)
		if err != nil {
			return fmt.Errorf("model %s: %w", m.name, err)
		}
		cfg.Models = append(cfg.Models, serve.Model{
			Name:      m.name,
			Framework: fw,
			Registers: registersFor(m.name),
		})
	}

	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	addr, err := srv.ListenIngest(*ingest)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "icsserved: ingest on %s\n", addr)
	if *verdicts != "" {
		if addr, err = srv.ListenVerdicts(*verdicts); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "icsserved: verdicts on %s\n", addr)
	}
	if *httpAddr != "" {
		if addr, err = srv.ListenHTTP(*httpAddr); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "icsserved: http on %s\n", addr)
	}

	stop := make(chan struct{})
	if *statsEvery > 0 {
		go logStats(srv, *statsEvery, stop)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(os.Stderr, "icsserved: %s, draining\n", s)
	close(stop)
	if err := srv.Shutdown(); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "icsserved: drained (replayed %d, live %d, shed %d)\n",
		st.Replayed, st.Live, st.Shed)
	return nil
}

// loadFramework reads one saved model file.
func loadFramework(path string) (*core.Framework, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(f)
}

// registersFor resolves a model name against the scenario registry so live
// Modbus connections decode with the testbed's register layout. Models not
// named after a scenario serve replay connections only (those carry their
// layout in the trace header).
func registersFor(name string) tap.RegisterMap {
	if sc, err := scenario.Get(name); err == nil {
		return sc.Registers()
	}
	return tap.RegisterMap{}
}

// logStats periodically prints interval-delta classification rates — the
// Stats.Since counters the /stats endpoint serves, for operators watching
// stderr instead.
func logStats(srv *serve.Server, every time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(every)
	defer t.Stop()
	prev := srv.Engine().Stats()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		cur := srv.Engine().Stats()
		delta := cur.Since(prev)
		prev = cur
		sst := srv.Stats()
		fmt.Fprintf(os.Stderr,
			"icsserved: %.0f pkg/s (interval %d pkgs, mean batch %.1f), %d conns, %d streams, queue %d, shed %d\n",
			delta.PerSecond(), delta.Packages, delta.MeanBatch(),
			sst.ActiveConns, cur.ActiveStreams(), cur.QueueDepth, sst.Shed)
	}
}
