package core_test

import (
	"bytes"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

// trainSmallFramework builds a small but complete framework on simulated
// traffic; shared by the integration tests below.
func trainSmallFramework(t *testing.T, useNoise bool) (*core.Framework, *core.Report, *dataset.Split) {
	t.Helper()
	gen := gaspipeline.DefaultGenConfig(6000, 42)
	ds, err := gaspipeline.Generate(gen)
	if err != nil {
		t.Fatalf("generate dataset: %v", err)
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	cfg := core.DefaultConfig()
	// Scale-appropriate granularity for a 6k-package dataset (the §IV-B
	// search picks something comparable; fixed here to keep the test fast).
	cfg.Granularity = signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
	}
	cfg.Hidden = []int{32, 32}
	cfg.Fit.Epochs = 15
	cfg.Fit.BatchSize = 4
	cfg.Fit.LR = 3e-3
	cfg.UseNoise = useNoise
	fw, report, err := core.Train(split, cfg)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return fw, report, split
}

func TestEndToEndPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	fw, report, split := trainSmallFramework(t, true)

	if report.Signatures < 10 {
		t.Fatalf("suspiciously small signature database: %d", report.Signatures)
	}
	if report.ChosenK < 1 || report.ChosenK > 10 {
		t.Fatalf("chosen k out of range: %d", report.ChosenK)
	}
	t.Logf("signatures=%d k=%d errv=%.4f loss=%.3f",
		report.Signatures, report.ChosenK, report.PackageErrv, report.FinalLoss)

	eval := evaluate(t, fw, split.Test, combinedSpec)
	t.Logf("combined: %v byLevel=%v n=%d", eval.Summary, eval.ByLevel, eval.Confusion.Total())

	// The combined framework must beat chance decisively on simulated
	// traffic even at this tiny scale.
	if eval.Summary.F1 < 0.5 {
		t.Errorf("combined F1 = %.3f, want >= 0.5", eval.Summary.F1)
	}
	if eval.Summary.Accuracy < 0.7 {
		t.Errorf("combined accuracy = %.3f, want >= 0.7", eval.Summary.Accuracy)
	}

	// MFCI and Recon use signatures that can never be in the database; the
	// package level must catch essentially all of them (paper Table V: 1.00).
	for _, at := range []dataset.AttackType{dataset.MFCI, dataset.Recon} {
		if r := eval.PerAttack.Ratio(at); r < 0.95 && eval.PerAttack.Total[at] > 0 {
			t.Errorf("%v detected ratio = %.2f, want >= 0.95", at, r)
		}
	}

	// Save/load round trip must preserve verdicts.
	var buf bytes.Buffer
	if err := fw.Save(&buf); err != nil {
		t.Fatalf("save: %v", err)
	}
	fw2, err := core.Load(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	eval2 := evaluate(t, fw2, split.Test, combinedSpec)
	if eval2.Confusion != eval.Confusion {
		t.Errorf("loaded framework verdicts differ: %+v vs %+v", eval2.Confusion, eval.Confusion)
	}
}
