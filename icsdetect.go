// Package icsdetect is a Go implementation of the multi-level anomaly
// detection framework for industrial control systems of Feng, Li & Chana
// (DSN 2017): a Bloom-filter package-content detector over a learned
// signature database, combined with a stacked LSTM softmax classifier that
// flags packages whose signatures fall outside the top-k predicted set.
//
// The library is stdlib-only and ships with every substrate the paper
// depends on: pluggable SCADA testbed scenarios (the paper's gas pipeline
// plus the sibling water storage tank, both with the original datasets'
// schema and attack taxonomy), a Modbus protocol stack, a from-scratch
// LSTM trainer, the six comparison baselines of the paper's Table IV, and
// an experiment harness that regenerates every table and figure.
//
// # Quickstart
//
//	ds, _ := icsdetect.GenerateDataset(icsdetect.DatasetOptions{Packages: 30000, Seed: 1})
//	split, _ := icsdetect.Split(ds)
//	det, report, _ := icsdetect.Train(split, icsdetect.DefaultTrainOptions())
//	sess := det.NewSession()
//	for _, pkg := range split.Test {
//		if v := sess.Classify(pkg); v.Anomaly {
//			// raise an alert
//		}
//	}
//	_ = report
//
// See the examples directory for complete programs.
package icsdetect

import (
	"io"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/engine"
	"icsdetect/internal/scenario"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"

	// Register the promoted baseline detection levels (pca, gmm, iforest,
	// bayesnet, svdd, bf4) with the stage registry.
	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/recon"
	// Register the built-in testbed scenarios.
	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/watertank"
)

// Re-exported dataset types.
type (
	// Package is one ICS network package record (paper Table I).
	Package = dataset.Package
	// Dataset is an ordered package time series.
	Dataset = dataset.Dataset
	// AttackType labels the ground truth class (paper Table II).
	AttackType = dataset.AttackType
	// DataSplit is the chronological train/validation/test partition.
	DataSplit = dataset.Split
)

// Re-exported attack classes.
const (
	Normal = dataset.Normal
	NMRI   = dataset.NMRI
	CMRI   = dataset.CMRI
	MSCI   = dataset.MSCI
	MPCI   = dataset.MPCI
	MFCI   = dataset.MFCI
	DOS    = dataset.DOS
	Recon  = dataset.Recon
)

// Re-exported detector types.
type (
	// Detector is a trained two-level anomaly detection framework.
	Detector = core.Framework
	// Session is a streaming classification session over a Detector.
	Session = core.Session
	// Verdict is the per-package classification outcome.
	Verdict = core.Verdict
	// TrainReport captures training measurements (granularity, |S|, the
	// validation top-k curve, chosen k).
	TrainReport = core.Report
	// TrainOptions configures Train.
	TrainOptions = core.Config
	// Granularity is the feature discretization setting (paper Table III).
	Granularity = signature.Granularity
	// StageDetector is one pluggable level of the detection stack.
	StageDetector = core.StageDetector
	// StageResult is one level's pre-fusion opinion on one package.
	StageResult = core.StageResult
	// StackSpec describes a detection stack: ordered level descriptors
	// plus the fusion policy combining their votes.
	StackSpec = core.StackSpec
	// StageSpec describes one level of a stack (kind + fusion weight).
	StageSpec = core.StageSpec
	// Fusion is the verdict fusion policy of a stack.
	Fusion = core.Fusion
	// Level identifies the detector level behind a verdict.
	Level = core.Level
	// LevelEvidence is one level's recorded outcome inside a Verdict.
	LevelEvidence = core.LevelEvidence
	// StageFactory wires a custom stage kind into the registry.
	StageFactory = core.StageFactory
	// Precision selects the numeric tier a stack's kernel-backed levels
	// run at: the f64 reference (default) or the opt-in f32 inference
	// tier (see the README's "Precision tiers" section).
	Precision = core.Precision
)

// Fusion policies: the paper's first-hit short-circuit (default), strict
// majority vote, and weighted score.
const (
	FusionFirstHit = core.FusionFirstHit
	FusionMajority = core.FusionMajority
	FusionWeighted = core.FusionWeighted
)

// Precision tiers.
const (
	// PrecisionF64 is the float64 reference tier (the default): its
	// verdicts are the golden corpora and never change.
	PrecisionF64 = core.PrecisionF64
	// PrecisionF32 is the float32 inference tier: f32 SIMD kernels at
	// twice the lane width, verdict-parity-gated against f64.
	PrecisionF32 = core.PrecisionF32
)

// ParsePrecision parses a -precision flag value ("", "f64", "f32", …).
func ParsePrecision(s string) (Precision, error) { return core.ParsePrecision(s) }

// Detection levels.
const (
	LevelNone       = core.LevelNone
	LevelPackage    = core.LevelPackage
	LevelTimeSeries = core.LevelTimeSeries
	LevelPCA        = core.LevelPCA
	LevelGMM        = core.LevelGMM
	LevelIForest    = core.LevelIForest
	LevelBayesNet   = core.LevelBayesNet
	LevelSVDD       = core.LevelSVDD
	LevelBF4        = core.LevelBF4
	LevelAE         = core.LevelAE
	LevelSeq2Seq    = core.LevelSeq2Seq
	LevelCNN        = core.LevelCNN
)

// DefaultStack returns the paper's two-level framework stack (bloom,lstm
// under first-hit fusion).
func DefaultStack() StackSpec { return core.DefaultStackSpec() }

// ParseStack parses a detection stack from the -levels/-fusion flag
// syntax: a comma-separated level list (each "kind" or "kind:weight") and
// a fusion policy name ("first-hit", "majority" or "weighted"). Empty
// levels means the default two-level stack under that fusion policy.
//
//	spec, err := icsdetect.ParseStack("bloom,pca,lstm", "majority")
//	sess, err := det.NewStackSession(spec) // after det.TrainStages(spec, split, seed)
func ParseStack(levels, fusion string) (StackSpec, error) {
	return core.ParseStackSpec(levels, fusion)
}

// StageKinds lists the registered detection level kinds ("bloom", "lstm",
// "lstm-dynamic", the promoted Table IV baselines, plus anything an
// embedding program registered).
func StageKinds() []string { return core.StageKinds() }

// RegisterStage adds a custom detection level kind to the registry; see
// the "Detection levels" section of the README for the contract.
func RegisterStage(kind string, f StageFactory) { core.RegisterStage(kind, f) }

// Re-exported concurrent detection engine types. The engine classifies
// many package streams at once — one stream per monitored device or link —
// sharded across worker goroutines with micro-batched LSTM inference, and
// produces per-stream verdicts identical to a sequential Session.
type (
	// Engine is the sharded multi-stream detection engine.
	Engine = engine.Engine
	// EngineConfig tunes shards, micro-batch width, queue depth and the
	// detection stack.
	EngineConfig = engine.Config
	// EngineResult is one classified package delivered to the handler.
	EngineResult = engine.Result
	// EngineHandler receives every classified package on shard goroutines.
	EngineHandler = engine.Handler
	// EngineStats is an engine-wide counter snapshot.
	EngineStats = engine.Stats
	// ShardStats is a per-shard counter snapshot.
	ShardStats = engine.ShardStats
)

// NewEngine builds and starts a concurrent detection engine over a trained
// detector. Feed it bursts with SubmitBatchFor (one stream per device; a
// nil framework means det), read verdicts in the handler, snapshot
// throughput with Stats, and release it with Stop:
//
//	eng, _ := icsdetect.NewEngine(det, icsdetect.EngineConfig{}, func(r icsdetect.EngineResult) {
//		if r.Verdict.Anomaly {
//			// raise an alert for r.Stream
//		}
//	})
//	for pkg := range captured {
//		eng.SubmitBatchFor(nil, deviceID(pkg), []*icsdetect.Package{pkg})
//	}
//	eng.Stop()
func NewEngine(det *Detector, cfg EngineConfig, handler EngineHandler) (*Engine, error) {
	return engine.New(det, cfg, handler)
}

// Re-exported trace capture/replay types. A trace is a deterministic
// recording of labeled wire traffic (see internal/trace for the binary
// format): record one off the simulator or the live tap, then replay it
// through a detector — as fast as possible or on its own timeline — and the
// verdicts are bitwise-reproducible across runs, replay paths and kernel
// builds. The repository ships a golden conformance corpus of such traces
// under testdata/traces.
type (
	// TraceHeader describes a trace (format, scenario, model fingerprint,
	// register map).
	TraceHeader = trace.Header
	// TraceRecord is one captured frame with its timestamp delta and label.
	TraceRecord = trace.Record
	// TraceRecorder captures frames into a trace stream.
	TraceRecorder = trace.Recorder
	// ReplayConfig tunes a replay run (throughput vs timed, session vs
	// engine).
	ReplayConfig = trace.ReplayConfig
	// ReplayResult is the scored outcome of a replay, including per-attack
	// detection latency.
	ReplayResult = trace.Result
)

// NewTraceRecorder writes the trace header for h to w and returns a
// recorder; see TraceRecorder.RecordSim and RecordTap for the capture
// hooks.
func NewTraceRecorder(w io.Writer, h TraceHeader) (*TraceRecorder, error) {
	return trace.NewRecorder(w, h)
}

// ReadTrace reads a whole recorded trace.
func ReadTrace(r io.Reader) (TraceHeader, []*TraceRecord, error) {
	return trace.ReadAll(r)
}

// ReplayTrace drives a recorded trace through a trained detector and
// scores the verdicts against the trace's labels.
func ReplayTrace(det *Detector, h TraceHeader, recs []*TraceRecord, cfg ReplayConfig) (*ReplayResult, error) {
	return trace.Replay(det, h, recs, cfg)
}

// Scenarios lists the registered testbed scenario names ("gaspipeline",
// "watertank", plus anything an embedding program registered).
func Scenarios() []string { return scenario.Names() }

// DatasetOptions configures GenerateDataset.
type DatasetOptions struct {
	// Scenario names the testbed to simulate (see Scenarios). Empty means
	// the paper's gas pipeline.
	Scenario string
	// Packages is the approximate capture size.
	Packages int
	// Seed makes generation deterministic.
	Seed uint64
	// AttackRatio is the target fraction of attack packages; negative
	// disables attacks entirely. Zero means the original dataset's ratio
	// (≈ 0.219).
	AttackRatio float64
}

// GenerateDataset produces a labeled simulated SCADA capture with the
// original datasets' schema for the chosen testbed scenario (see
// internal/gaspipeline and internal/watertank for the plant models).
func GenerateDataset(opts DatasetOptions) (*Dataset, error) {
	sc, err := scenario.Get(opts.Scenario)
	if err != nil {
		return nil, err
	}
	cfg := scenario.GenConfig{
		TotalPackages: opts.Packages,
		AttackRatio:   0.219,
		Seed:          opts.Seed,
	}
	switch {
	case opts.AttackRatio < 0:
		cfg.AttackRatio = 0
	case opts.AttackRatio > 0:
		cfg.AttackRatio = opts.AttackRatio
	}
	return sc.Generate(cfg)
}

// Split partitions a dataset 6:2:2 chronologically, removing anomalies and
// short fragments from the train and validation parts (paper §VIII).
func Split(ds *Dataset) (*DataSplit, error) {
	return dataset.MakeSplit(ds, dataset.SplitConfig{})
}

// DefaultTrainOptions returns a configuration that trains in about a
// minute on mid-size captures; PaperScaleTrainOptions matches the paper's
// 2×256 LSTM and 50 epochs.
func DefaultTrainOptions() TrainOptions { return core.DefaultConfig() }

// PaperScaleTrainOptions returns the paper's full-scale configuration.
func PaperScaleTrainOptions() TrainOptions { return core.PaperScale() }

// Train fits the two-level framework on an attack-free split.
func Train(split *DataSplit, opts TrainOptions) (*Detector, *TrainReport, error) {
	return core.Train(split, opts)
}

// Load restores a detector saved with (*Detector).Save.
func Load(r io.Reader) (*Detector, error) { return core.Load(r) }

// ReadDatasetARFF parses a dataset in the ARFF format of the original
// Morris gas pipeline capture.
func ReadDatasetARFF(r io.Reader) (*Dataset, error) { return dataset.ReadARFF(r) }

// WriteDatasetARFF serializes a dataset in ARFF.
func WriteDatasetARFF(w io.Writer, ds *Dataset) error { return dataset.WriteARFF(w, ds) }
