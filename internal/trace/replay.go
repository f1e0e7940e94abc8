package trace

import (
	"fmt"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/metrics"
)

// episodeGap is the maximum run of differently-labeled packages that still
// joins two runs of the same attack label into one episode. Attack episodes
// interleave normal traffic by design (MSCI/MPCI leave the master's routine
// read commands unlabeled mid-episode), so latency accounting merges runs
// separated by less than two poll cycles.
const episodeGap = 8

// ReplayConfig tunes a replay run. The zero value replays as fast as
// possible through a sequential session over the default two-level stack.
type ReplayConfig struct {
	// Stack describes the detection stack to replay through (levels +
	// fusion policy). Empty means Engine's stack, and without one the
	// paper's two-level bloom,lstm stack.
	Stack core.StackSpec
	// Timed replays on the trace's own timeline (latency mode): package i
	// is delivered Time(i)/Speed after the replay started. False replays as
	// fast as possible (throughput mode).
	Timed bool
	// Speed scales the timeline in timed mode: 2 replays twice as fast as
	// recorded. Default 1.
	Speed float64
	// Engine, when non-nil, drives the batched multi-stream engine instead
	// of a sequential session; the trace becomes one stream.
	Engine *engine.Config
	// Burst, when Engine is non-nil, admits packages in bursts of up to
	// Burst (default 1) per Engine.SubmitBatchFor call — the serving
	// daemon's amortized admission path. In timed mode the pacing clock is
	// consulted once per burst (at its first package).
	Burst int
	// Stream is the engine stream key (default: the trace's scenario name).
	Stream string
}

// Result is the outcome of one replay: the verdict stream plus the scored
// summaries the paper reports, detection-latency accounting per attack
// type, and throughput measurements.
type Result struct {
	// Scenario and Fingerprint echo the trace header.
	Scenario, Fingerprint string
	// Verdicts holds one verdict per record, in trace order.
	Verdicts []core.Verdict
	// Confusion and Summary score the verdicts against the trace's labels.
	Confusion metrics.Confusion
	Summary   metrics.Summary
	// PerAttack is the detected ratio per attack type (Table V style).
	PerAttack *metrics.PerAttack
	// ByLevel counts detections per detector level.
	ByLevel map[core.Level]int
	// Latency aggregates per-attack-episode detection latency, measured on
	// the trace's own clock (seconds of recorded time from episode start to
	// the first flagged package).
	Latency *metrics.DetectionLatency
	// TraceSeconds is the recorded duration of the trace.
	TraceSeconds float64
	// Wall is the wall-clock replay duration (decode + classification; in
	// timed mode this includes the pacing sleeps).
	Wall time.Duration
}

// PerSecond returns the replay throughput in packages per second.
func (r *Result) PerSecond() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(len(r.Verdicts)) / r.Wall.Seconds()
}

// episode is one contiguous (gap-tolerant) run of same-labeled attack
// packages.
type episode struct {
	label      dataset.AttackType
	start      int // index of the first attack package
	last       int // index of the last attack package seen so far
	detectedAt int // index of the first flagged attack package, or -1
}

// findEpisodes segments the attack packages of a trace into episodes and
// returns them plus the episode index of every package (-1 for normal).
func findEpisodes(pkgs []*dataset.Package) ([]*episode, []int) {
	var eps []*episode
	idx := make([]int, len(pkgs))
	var open *episode
	for i, p := range pkgs {
		idx[i] = -1
		if !p.IsAttack() {
			continue
		}
		if open == nil || open.label != p.Label || i-open.last > episodeGap {
			open = &episode{label: p.Label, start: i, last: i, detectedAt: -1}
			eps = append(eps, open)
		}
		open.last = i
		idx[i] = len(eps) - 1
	}
	return eps, idx
}

// replaySpec resolves the detection stack of a replay: the replay's Stack,
// else the engine config's, else the paper's two-level stack. Setting both
// is an error.
func replaySpec(cfg *ReplayConfig) (core.StackSpec, error) {
	spec := cfg.Stack
	if cfg.Engine != nil && len(cfg.Engine.Stack.Stages) > 0 {
		if len(spec.Stages) > 0 {
			return core.StackSpec{}, fmt.Errorf("trace: set the replay stack on ReplayConfig, not EngineConfig")
		}
		spec = cfg.Engine.Stack
	}
	if len(spec.Stages) == 0 {
		return core.DefaultStackSpec(), nil
	}
	return spec, spec.Validate()
}

// Replay drives a recorded trace through a trained framework and scores the
// verdicts. The verdict stream is a pure function of the trace bytes, the
// framework and the stack — identical across runs, replay paths (session
// or engine) and kernel builds — which is what the golden-verdict
// conformance corpus asserts.
func Replay(fw *core.Framework, h Header, recs []*Record, cfg ReplayConfig) (*Result, error) {
	spec, err := replaySpec(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	// The replay clock starts here: decoding the wire frames is part of the
	// replay workload (Wall and PerSecond cover decode + classification).
	start := time.Now()
	pkgs, err := Packages(h, recs)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Scenario:    h.Scenario,
		Fingerprint: h.Fingerprint,
		Verdicts:    make([]core.Verdict, len(pkgs)),
		PerAttack:   metrics.NewPerAttack(),
		ByLevel:     make(map[core.Level]int),
		Latency:     metrics.NewDetectionLatency(),
	}
	if len(pkgs) > 0 {
		res.TraceSeconds = pkgs[len(pkgs)-1].Time - pkgs[0].Time
	}
	eps, epIdx := findEpisodes(pkgs)
	observe := func(i int, v core.Verdict) {
		res.Verdicts[i] = v
		if v.Anomaly {
			if ep := epIdx[i]; ep >= 0 && eps[ep].detectedAt < 0 {
				eps[ep].detectedAt = i
			}
		}
	}

	pace := func(i int) {
		if !cfg.Timed || len(pkgs) == 0 {
			return
		}
		due := time.Duration((pkgs[i].Time - pkgs[0].Time) / cfg.Speed * float64(time.Second))
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
	}

	if cfg.Engine == nil {
		sess, err := fw.NewStackSession(spec)
		if err != nil {
			return nil, err
		}
		for i, p := range pkgs {
			pace(i)
			observe(i, sess.Classify(p))
		}
	} else {
		ecfg := *cfg.Engine
		ecfg.Stack = spec
		stream := cfg.Stream
		if stream == "" {
			stream = h.Scenario
		}
		// One trace is one stream: per-stream order makes Result.Seq the
		// package index, and the engine handler runs on a single shard
		// goroutine, so observe needs no locking; Barrier orders its writes
		// before the accounting below.
		e, err := engine.New(fw, ecfg, func(r engine.Result) {
			observe(int(r.Seq), r.Verdict)
		})
		if err != nil {
			return nil, err
		}
		burst := max(cfg.Burst, 1)
		for i := 0; i < len(pkgs); i += burst {
			j := min(i+burst, len(pkgs))
			pace(i)
			// The engine only reads an admitted burst, and pkgs is never
			// written again, so each burst is a window of it.
			if err := e.SubmitBatchFor(nil, stream, pkgs[i:j:j]); err != nil {
				e.Stop()
				return nil, err
			}
		}
		if err := e.Barrier(); err != nil {
			e.Stop()
			return nil, err
		}
		e.Stop()
	}
	res.Wall = time.Since(start)

	for i, p := range pkgs {
		v := res.Verdicts[i]
		res.Confusion.Add(v.Anomaly, p.IsAttack())
		res.PerAttack.Add(p.Label, v.Anomaly)
		if v.Anomaly {
			res.ByLevel[v.Level]++
		}
	}
	res.Summary = metrics.Summarize(&res.Confusion)
	for _, ep := range eps {
		if ep.detectedAt < 0 {
			res.Latency.AddEpisode(ep.label, false, 0)
			continue
		}
		res.Latency.AddEpisode(ep.label, true, pkgs[ep.detectedAt].Time-pkgs[ep.start].Time)
	}
	return res, nil
}
