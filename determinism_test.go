package icsdetect_test

import (
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

// TestTrainDeterministic: training is a function of the data and the
// seed. For every registered level, a bloom,<level> framework trained
// twice from one seed has one Fingerprint — so no trainer may accumulate
// in an order that depends on scheduling or map iteration.
func TestTrainDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two frameworks per level")
	}
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(3000, 17))
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Granularity = signature.Granularity{IntervalClusters: 2, CRCClusters: 2, PressureBins: 5, SetpointBins: 3, PIDClusters: 2}
	cfg.Hidden = []int{16, 16}
	cfg.Fit.Epochs = 1
	for _, kind := range core.StageKinds() {
		t.Run(kind, func(t *testing.T) {
			levels := "bloom," + kind
			if kind == "bloom" {
				levels = kind
			}
			spec, err := core.ParseStackSpec(levels, "first-hit")
			if err != nil {
				t.Fatal(err)
			}
			train := func() string {
				fw, _, err := core.Train(split, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := fw.TrainStages(spec, split, 5); err != nil {
					t.Fatal(err)
				}
				return fw.Fingerprint()
			}
			if a, b := train(), train(); a != b {
				t.Fatalf("%s: fingerprints %s and %s from one seed", levels, a, b)
			}
		})
	}
}
