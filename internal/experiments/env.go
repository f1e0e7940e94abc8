// Package experiments reproduces every table and figure of the paper's
// evaluation (§VIII) on the simulated gas pipeline dataset: Fig. 4 (feature
// histograms), Fig. 5 (validation error vs discretization granularity),
// Table III (chosen discretization), Fig. 6 (top-k error curves), Fig. 7
// (combined-framework metrics vs k), Table IV (model comparison) and
// Table V (per-attack detected ratios).
//
// Every runner is deterministic given the Config seed. Absolute numbers
// differ from the paper (the substrate is a simulator, not the authors'
// testbed); the shapes — who wins, which attacks are hard, where the curves
// bend — are the reproduction target.
package experiments

import (
	"fmt"

	"icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

// Config scales the experiment suite. The zero value is unusable; use
// DefaultConfig (fast, qualitative) or PaperScaleConfig (full size).
type Config struct {
	// Packages is the generated dataset size. The original dataset has
	// 274,628 packages; DefaultConfig uses a smaller capture that trains in
	// about a minute.
	Packages int
	// Seed fixes all randomness.
	Seed uint64
	// Granularity is the discretization for the main framework and the
	// baselines. Chosen per scale; PaperScaleConfig uses Table III's.
	Granularity signature.Granularity
	// Core configures framework training (hidden sizes, epochs, λ, θ …).
	Core core.Config
	// MinAccuracy is the baseline threshold-tuning constraint (paper: 0.7).
	MinAccuracy float64
}

// DefaultConfig returns the fast experiment configuration.
func DefaultConfig() Config {
	coreCfg := core.DefaultConfig()
	coreCfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 8, SetpointBins: 5, PIDClusters: 4,
	}
	coreCfg.Hidden = []int{96, 96}
	coreCfg.Fit.Epochs = 16
	coreCfg.Fit.LRDecayEpoch = 10
	coreCfg.Fit.LRDecayFactor = 0.5
	// Our validation top-k curves sit far lower than the paper's at equal k
	// (Fig. 6), so a tighter θ reproduces their operating point k≈4 — the
	// knee of the curve, just as in the paper. θ must stay above the
	// package-level errv floor (unseen validation signatures can never be
	// in the top-k set).
	coreCfg.ThetaSeries = 0.02
	return Config{
		Packages:    60000,
		Seed:        20170626, // DSN 2017 opening day
		Granularity: coreCfg.Granularity,
		Core:        coreCfg,
		MinAccuracy: 0.7,
	}
}

// PaperScaleConfig returns the full-size configuration: the original
// dataset's package count, Table III granularity, and the paper's 2×256
// LSTM trained for 50 epochs. Expect roughly an hour of training on a
// workstation.
func PaperScaleConfig() Config {
	cfg := DefaultConfig()
	cfg.Packages = 274628
	cfg.Granularity = signature.PaperGranularity()
	cfg.Core = core.PaperScale()
	cfg.Core.Granularity = cfg.Granularity
	return cfg
}

// Env is the shared experimental fixture: the generated dataset, its split,
// the two trained frameworks (with and without probabilistic noise) and the
// windowed views the baselines consume.
type Env struct {
	Config Config

	Dataset *dataset.Dataset
	Split   *dataset.Split

	// Framework is trained with probabilistic noise (the paper's main
	// configuration); Plain is the no-noise ablation of Figs. 6-7.
	Framework *core.Framework
	Plain     *core.Framework
	Report    *core.Report
	PlainRep  *core.Report

	Windowizer   *baselines.Windowizer
	TrainWindows []*baselines.Window
	TestWindows  []*baselines.Window
}

// BuildEnv generates the dataset, splits it, trains both frameworks and
// prepares baseline windows. progress, when non-nil, receives milestone
// messages.
func BuildEnv(cfg Config, progress func(string)) (*Env, error) {
	say := func(format string, args ...any) {
		if progress != nil {
			progress(fmt.Sprintf(format, args...))
		}
	}
	if cfg.Packages <= 0 {
		return nil, fmt.Errorf("experiments: Packages must be positive, got %d", cfg.Packages)
	}

	say("generating %d packages (seed %d)", cfg.Packages, cfg.Seed)
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(cfg.Packages, cfg.Seed))
	if err != nil {
		return nil, err
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		return nil, err
	}
	counts := ds.CountAttacks()
	say("dataset: %d packages, %d normal, %d attack",
		ds.Len(), counts[dataset.Normal], ds.Len()-counts[dataset.Normal])

	coreCfg := cfg.Core
	coreCfg.Granularity = cfg.Granularity
	coreCfg.Seed = cfg.Seed
	coreCfg.UseNoise = true
	say("training framework with probabilistic noise (hidden=%v epochs=%d)",
		coreCfg.Hidden, coreCfg.Fit.Epochs)
	fw, report, err := core.Train(split, coreCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: train noisy framework: %w", err)
	}
	say("noisy framework: |S|=%d k=%d errv=%.4f loss=%.3f",
		report.Signatures, report.ChosenK, report.PackageErrv, report.FinalLoss)

	plainCfg := coreCfg
	plainCfg.UseNoise = false
	say("training framework without noise (ablation)")
	plain, plainRep, err := core.Train(split, plainCfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: train plain framework: %w", err)
	}

	wz, err := baselines.NewWindowizer(fw.Encoder, split.Train)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Config:       cfg,
		Dataset:      ds,
		Split:        split,
		Framework:    fw,
		Plain:        plain,
		Report:       report,
		PlainRep:     plainRep,
		Windowizer:   wz,
		TrainWindows: wz.FromFragments(split.Train),
		TestWindows:  wz.FromStream(split.Test),
	}
	say("windows: %d train, %d test", len(env.TrainWindows), len(env.TestWindows))
	return env, nil
}
