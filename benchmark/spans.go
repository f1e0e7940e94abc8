package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// epoch anchors every cross-goroutine timestamp of a run: mono values are
// monotonic nanoseconds since process start, comparable between the
// senders, the shard goroutines and the subscriber.
var epoch = time.Now()

func mono(t time.Time) int64 { return int64(t.Sub(epoch)) }

func monoNow() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary, recorded from the
// benchmark's own files around calls into the program's exported functions.
// Stream is -1 for layer-walk spans, whose Seq is the burst index; boundary
// spans carry the sampled package's (stream, seq). BusyNs is set where a
// layer's work interleaves with other layers inside the burst, so its time
// is the sum of its calls rather than EndNs-StartNs.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Stream  int    `json:"stream"`
	Seq     uint64 `json:"seq"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	BusyNs  int64  `json:"busy_ns,omitempty"`
	Pkgs    int    `json:"pkgs"`
}

// spanLog holds a traced run's spans in memory until the run ends. It is
// filled by one goroutine at a time: the layer walk, or the post-pass
// conversion of boundary samples.
type spanLog struct {
	spans []span
}

// add appends a span and returns its ID (IDs start at 1; parent 0 is "no
// parent").
func (l *spanLog) add(parent int, name string, stream int, seq uint64, start, end, busy int64, pkgs int) int {
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{
		ID: id, Parent: parent, Name: name, Stream: stream, Seq: seq,
		StartNs: start, EndNs: end, BusyNs: busy, Pkgs: pkgs,
	})
	return id
}

// write stores the spans as JSON under dir.
func (l *spanLog) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans-"+workload+".json"), b, 0o644)
}
