// Serving-daemon quickstart: boot the wire-to-verdict daemon in-process on
// the committed golden corpus, replay recorded traces to it over real TCP,
// watch verdicts arrive on the subscription stream, scrape the ops
// endpoint, hot-swap the model mid-flight, and drain.
//
// Run from the repository root (the committed corpus lives in testdata/):
//
//	go run ./examples/serve
//
// The same wire protocols are what `icsserved` speaks as a standalone
// daemon — this example is the embedded, single-process version of the
// deployment it demonstrates.
package main

import (
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/serve"
)

func main() {
	// 1. The committed gas-pipeline model: the same framework snapshot the
	//    golden-trace conformance suite pins.
	f, err := os.Open(filepath.Join("testdata", "traces", "model.fw"))
	if err != nil {
		log.Fatalf("open committed model (run from the repo root): %v", err)
	}
	fw, err := core.Load(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}

	// 2. Boot the daemon: engine + ingest, verdict and ops listeners.
	srv, err := serve.New(serve.Config{
		Models: []serve.Model{{
			Name:      "gaspipeline",
			Framework: fw,
			Registers: gaspipeline.Registers(),
		}},
		Engine: engine.Config{MaxBatch: 16},
	})
	if err != nil {
		log.Fatal(err)
	}
	ingest, err := srv.ListenIngest("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	verdicts, err := srv.ListenVerdicts("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ops, err := srv.ListenHTTP("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon up: ingest %s, verdicts %s, ops http://%s\n\n", ingest, verdicts, ops)

	// 3. Subscribe to the verdict stream and print the first few alerts
	//    per attack episode, with the per-level evidence behind each.
	sub, err := serve.Subscribe(verdicts)
	if err != nil {
		log.Fatal(err)
	}
	subDone := make(chan struct{})
	go func() {
		defer close(subDone)
		printed := make(map[string]int)
		for {
			ev, err := sub.Next()
			if err != nil {
				if err != io.EOF {
					log.Printf("subscriber: %v", err)
				}
				return
			}
			if !ev.Verdict.Anomaly || printed[ev.Stream] >= 2 {
				continue
			}
			printed[ev.Stream]++
			fmt.Printf("ALERT %-12s pkg %-4d level %d  signature %s\n",
				ev.Stream, ev.Seq, ev.Verdict.Level, ev.Verdict.Signature)
			for _, e := range ev.Verdict.Evidence {
				fmt.Printf("      evidence: %-8s flagged=%-5v score=%.3f\n",
					e.Stage, e.Flagged, e.Score)
			}
		}
	}()

	// 4. Replay two recorded attack episodes concurrently over TCP — each
	//    connection is one device stream with its own recurrent state.
	var wg sync.WaitGroup
	for _, episode := range []string{"mpci", "dos"} {
		wg.Add(1)
		go func(episode string) {
			defer wg.Done()
			raw, err := os.ReadFile(filepath.Join("testdata", "traces", episode+".trace"))
			if err != nil {
				log.Fatal(err)
			}
			n, err := serve.Replay(ingest, raw, serve.ReplayOptions{Stream: episode})
			if err != nil {
				log.Fatalf("replay %s: %v", episode, err)
			}
			fmt.Printf("replayed %s: %d packages accepted\n", episode, n)
		}(episode)
	}
	wg.Wait()

	// 5. Ops surface: scrape interval stats, then hot-swap the model by
	//    posting its snapshot (a retrained icstrain -checkpoint in
	//    production) behind an engine barrier — no restart, live streams
	//    undisturbed.
	resp, err := http.Get(fmt.Sprintf("http://%s/stats", ops))
	if err != nil {
		log.Fatal(err)
	}
	resp.Body.Close()
	fmt.Printf("\nGET /stats -> %s\n", resp.Status)
	snapshot, err := os.Open(filepath.Join("testdata", "traces", "model.fw"))
	if err != nil {
		log.Fatal(err)
	}
	defer snapshot.Close()
	resp, err = http.Post(fmt.Sprintf("http://%s/swap?model=gaspipeline", ops),
		"application/octet-stream", snapshot)
	if err != nil {
		log.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("POST /swap -> %s", msg)

	// 6. Graceful drain: every admitted package classified, subscribers
	//    flushed and detached (the goroutine above sees a clean EOF).
	if err := srv.Shutdown(); err != nil {
		log.Fatal(err)
	}
	<-subDone
	st := srv.Engine().Stats()
	fmt.Printf("\ndrained: %d packages across %d streams, %d anomalous\n",
		st.Packages, st.Streams, st.Packages-st.Clean)
}
