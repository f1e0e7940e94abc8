package icsdetect_test

import (
	"runtime"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/signature"
)

// trainedFingerprints pins what TestTrainDeterministic trains, so a change
// that still trains deterministically but trains something different is
// caught too. The values hold on amd64, on every kernel tier; other
// architectures may fuse multiply-adds and are checked for determinism
// only. A deliberate change to training re-records them.
var trainedFingerprints = map[string]string{
	"ae":           "d78553f000c05e53",
	"bayesnet":     "97ce5753071a2340",
	"bf4":          "ac07fd010bd0fe87",
	"bloom":        "0b748396c89c4851",
	"cnn":          "440879bd7a28c11f",
	"gmm":          "aeda2d592d0e3331",
	"iforest":      "6582c10fca1400d5",
	"lstm":         "0b748396c89c4851",
	"lstm-dynamic": "0b748396c89c4851",
	"pca":          "29ff7ebe27276efc",
	"seq2seq":      "74d3e3ad655ece4e",
	"svdd":         "6e46973399fbb619",
	// The engine-wide-f64 benchmark's model shape: the paper's 2x256
	// LSTM, one epoch.
	"bloom-2x256": "b06782e5c5fa4a65",
}

// TestTrainDeterministic: training is a function of the data and the
// seed. For every registered level, a bloom,<level> framework trained
// twice from one seed has one Fingerprint — so no trainer may accumulate
// in an order that depends on scheduling or map iteration — and on amd64
// that Fingerprint is the pinned one.
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
	check := func(t *testing.T, name, levels string, cfg core.Config) {
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
		a, b := train(), train()
		if a != b {
			t.Fatalf("%s: fingerprints %s and %s from one seed", levels, a, b)
		}
		if want := trainedFingerprints[name]; runtime.GOARCH == "amd64" && a != want {
			t.Errorf("%s: fingerprint %s, pinned %s", levels, a, want)
		}
	}
	for _, kind := range core.StageKinds() {
		t.Run(kind, func(t *testing.T) {
			levels := "bloom," + kind
			if kind == "bloom" {
				levels = kind
			}
			check(t, kind, levels, cfg)
		})
	}
	t.Run("bloom-2x256", func(t *testing.T) {
		wide := cfg
		wide.Hidden = []int{256, 256}
		check(t, "bloom-2x256", "bloom", wide)
	})
}
