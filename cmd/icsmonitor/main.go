// Command icsmonitor is an in-path Modbus/TCP anomaly monitor: it proxies
// traffic between masters and a slave device, decodes every frame into the
// detector's package schema, and classifies it with a trained model,
// logging alerts as they happen.
//
// Usage:
//
//	icsmonitor -listen :15020 -upstream 10.0.0.7:502 -model model.bin
//	icsmonitor -scenario watertank -upstream 10.0.0.9:502 -model tank.bin
//	icsmonitor -upstream 10.0.0.7:502 -model model.bin -levels bloom,pca,lstm -fusion majority
//
// Bootstrap mode trains a model from an initial attack-free observation
// window instead of loading one:
//
//	icsmonitor -listen :15020 -upstream 10.0.0.7:502 -bootstrap 8000 -save model.bin
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/scenario"
	"icsdetect/internal/tap"

	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/recon"
	_ "icsdetect/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsmonitor:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		listen    = flag.String("listen", "127.0.0.1:15020", "address masters connect to")
		scName    = flag.String("scenario", scenario.Default, "testbed scenario of the monitored device: "+strings.Join(scenario.Names(), ", "))
		upstream  = flag.String("upstream", "", "slave device address (required)")
		modelPath = flag.String("model", "", "trained model to load")
		bootstrap = flag.Int("bootstrap", 0, "observe N clean packages, then train in place")
		save      = flag.String("save", "", "save the bootstrapped model here")
		epochs    = flag.Int("epochs", 10, "bootstrap training epochs")
		quietSecs = flag.Int("stats-interval", 30, "seconds between summary lines")
		shards    = flag.Int("shards", 0, "detection engine shards (0 = GOMAXPROCS)")
		levels    = flag.String("levels", "", "detection stack, e.g. bloom,pca,lstm (registered: "+strings.Join(core.StageKinds(), ", ")+")")
		fusion    = flag.String("fusion", "", "verdict fusion policy for -levels: first-hit, majority or weighted")
		precision = flag.String("precision", "", "numeric tier: f64 (default) or f32 (float32 SIMD inference)")
	)
	flag.Parse()
	if *upstream == "" {
		return fmt.Errorf("-upstream is required")
	}
	if *modelPath == "" && *bootstrap == 0 {
		return fmt.Errorf("either -model or -bootstrap is required")
	}
	sc, err := scenario.Get(*scName)
	if err != nil {
		return err
	}
	spec, err := core.ResolveStackFlags(*levels, *fusion, "")
	if err != nil {
		return err
	}
	if spec, err = spec.WithPrecision(*precision); err != nil {
		return err
	}

	// The scenario's register map tells the tap how to decode this
	// device's controller block out of the relayed frames.
	proxy := tap.New(*upstream, sc.Registers())
	addr, err := proxy.Listen(*listen)
	if err != nil {
		return err
	}
	defer proxy.Close()
	fmt.Fprintf(os.Stderr, "tap listening on %s, forwarding to %s\n", addr, *upstream)

	var fw *core.Framework
	if *modelPath != "" {
		f, err := os.Open(*modelPath)
		if err != nil {
			return err
		}
		fw, err = core.Load(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		fw, err = bootstrapModel(proxy, sc, spec, *bootstrap, *epochs)
		if err != nil {
			return err
		}
		if *save != "" {
			out, err := os.Create(*save)
			if err != nil {
				return err
			}
			err = fw.Save(out)
			out.Close()
			if err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "model saved to %s\n", *save)
		}
	}

	// Streaming classification through the sharded detection engine: one
	// stream per slave unit, decoded packages submitted from the relay
	// goroutines, alerts logged from the engine's shard workers. Bounded
	// shard queues push back on the relay path if classification ever
	// falls behind.
	if missing := fw.MissingStages(spec); len(missing) > 0 {
		return fmt.Errorf("model has no trained stage models for %s (retrain with icstrain -levels %s)",
			strings.Join(missing, ", "), *levels)
	}
	eng, err := engine.New(fw, engine.Config{Shards: *shards, Stack: spec}, func(r engine.Result) {
		if r.Verdict.Anomaly {
			p := r.Package
			fmt.Printf("%s ALERT stream=%s level=%s fn=%.0f addr=%.0f signature=%s\n",
				time.Now().Format(time.RFC3339), r.Stream, r.Verdict.Level,
				p.Function, p.Address, r.Verdict.Signature)
		}
	})
	if err != nil {
		return err
	}
	// The tap invokes the sink from its relay goroutines — one per
	// direction per connection — so two goroutines can carry packages of
	// the same unit. Engine.SubmitBatchFor requires per-stream submissions
	// from one goroutine at a time; a mutex pins the stream order to the
	// arrival order the sink observes. Stream keys are precomputed per
	// Modbus unit ID (a byte).
	var unitStream [256]string
	for i := range unitStream {
		unitStream[i] = fmt.Sprintf("unit-%d", i)
	}
	var submitMu sync.Mutex
	proxy.SetSink(func(p *dataset.Package) {
		submitMu.Lock()
		defer submitMu.Unlock()
		_ = eng.SubmitBatchFor(nil, unitStream[int(p.Address)&0xff], []*dataset.Package{p})
	})

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(time.Duration(*quietSecs) * time.Second)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			st := eng.Stats()
			fmt.Fprintf(os.Stderr, "stats: %d packages on %d streams, %d alerts, %.0f pkg/s, queue %d\n",
				st.Packages, st.Streams, st.Anomalies(), st.PerSecond(), st.QueueDepth)
		case <-stop:
			proxy.Close()
			eng.Stop()
			st := eng.Stats()
			fmt.Fprintf(os.Stderr, "shutting down: %d packages on %d streams, %d alerts\n",
				st.Packages, st.Streams, st.Anomalies())
			return nil
		}
	}
}

// bootstrapModel waits for n observed packages and trains the framework on
// them (the paper's "air-gapped" observation phase, §IV), with the
// discretization the scenario prescribes for a capture of that size. Stage
// models of every promoted level in spec train from the same observation
// window.
func bootstrapModel(proxy *tap.Proxy, sc scenario.Scenario, spec core.StackSpec, n, epochs int) (*core.Framework, error) {
	fmt.Fprintf(os.Stderr, "bootstrap: waiting for %d clean packages …\n", n)
	var clean []*dataset.Package
	for len(clean) < n {
		time.Sleep(500 * time.Millisecond)
		clean = append(clean, proxy.Drain()...)
	}
	fmt.Fprintf(os.Stderr, "bootstrap: training on %d packages …\n", len(clean))

	split, err := dataset.MakeSplit(&dataset.Dataset{Packages: clean},
		dataset.SplitConfig{TrainFrac: 0.75, ValidationFrac: 0.24})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Granularity = sc.Granularity(len(clean))
	cfg.Hidden = []int{32, 32}
	cfg.Fit.Epochs = epochs
	cfg.Fit.BatchSize = 4
	fw, report, err := core.Train(split, cfg)
	if err != nil {
		return nil, err
	}
	if err := fw.TrainStages(spec, split, cfg.Seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "bootstrap: ready (|S|=%d k=%d errv=%.4f)\n",
		report.Signatures, report.ChosenK, report.PackageErrv)
	return fw, nil
}
