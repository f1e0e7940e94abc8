package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// smokeOptions is every workload at 1/50 of its size, set up once.
func smokeOptions() options {
	return options{seed: 1, seconds: 0.2, setups: 1, testdata: "../testdata/traces"}
}

// TestSmoke runs all five workloads, untraced and traced, at 1/50 size: the
// correctness check must pass and every metric BENCHMARK.json names must
// come out finite. No timing is asserted; the numbers of a run this short
// mean nothing.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			start := time.Now()
			res, err := runWorkload(w, smokeOptions(), traced)
			t.Logf("%s traced=%v: %v", w.Name, traced, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct {
				t.Errorf("%s traced=%v: outputs not correct: %v", w.Name, traced, res.Violations)
			}
			if res.Attempted == 0 {
				t.Errorf("%s traced=%v: nothing attempted", w.Name, traced)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", w.Name, traced, d.Name, m.Value, ok)
				}
				if !traced && m.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
				}
			}
		}
	}
}

// TestCorruptReferenceFails proves the correctness check can fail: with one
// bit of every reference hash flipped, a workload must report its outputs
// incorrect.
func TestCorruptReferenceFails(t *testing.T) {
	opt := smokeOptions()
	opt.corruptReference = true
	// The cheapest workload of each kind of check: hashed against the
	// reference over sockets, hashed in process, and conservation only.
	for _, w := range []workload{workloads[0], workloads[1], workloads[2]} {
		res, err := runWorkload(w, opt, false)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if res.Correct {
			t.Errorf("%s: a corrupted reference went unnoticed", w.Name)
		}
	}
}

// TestBenchmarkJSON keeps the root BENCHMARK.json and the program's own
// tables of workloads and metrics the same list.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var committed, current any
	if err := json.Unmarshal(raw, &committed); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(describe())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &current); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(committed, current) {
		t.Errorf("BENCHMARK.json differs from `go run ./benchmark -describe`; regenerate it")
	}
}

// TestCompare checks the comparator's verdicts on a hand-made pair.
func TestCompare(t *testing.T) {
	mk := func(throughput float64, failed uint64) document {
		r := result{Workload: workloads[0].Name, Correct: true, Attempted: 1000, Failed: failed,
			Metrics: map[string]metric{}}
		for _, d := range endToEnd {
			r.Metrics[d.Name] = metric{Value: 100, Unit: d.Unit}
		}
		r.Metrics["throughput_pps"] = metric{Value: throughput, Unit: "1/s"}
		return document{Results: []result{r}}
	}
	dir := t.TempDir()
	write := func(name string, d document) string {
		path := dir + "/" + name
		if err := writeJSON(path, d); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", mk(1000, 0))
	for _, tc := range []struct {
		name string
		doc  document
		fail bool
	}{
		{"same", mk(1000, 0), false},
		{"within-bound", mk(960, 0), false},
		{"faster", mk(2000, 0), false},
		{"slower", mk(700, 0), true},
		{"failing", mk(1000, 1), true},
	} {
		err := compareFiles(discard{}, base, write(tc.name+".json", tc.doc))
		if (err != nil) != tc.fail {
			t.Errorf("%s: compare error = %v, want failure %v", tc.name, err, tc.fail)
		}
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
