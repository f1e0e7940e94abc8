package icsdetect_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/scenario"
	"icsdetect/internal/signature"
	"icsdetect/internal/trace"
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

// TestCorpusRebuild: the committed corpora are reproducible. Rebuilding
// them with the recipe of `icsreplay -record` (seed 1, a 16,000-package
// training capture) yields the committed traces, golden verdicts and fuzz
// seed frames byte for byte, and a model with the committed fingerprint.
// The model is compared by fingerprint because gob writes maps in random
// order, so two saves of one model need not be equal bytes.
//
// It stays after TestTrainDeterministic: saving a framework assigns gob
// type ids that the promoted levels' fingerprints then encode, so a save
// earlier in the process shifts the fingerprints pinned there.
func TestCorpusRebuild(t *testing.T) {
	if testing.Short() {
		t.Skip("trains both corpus models; skipped in -short mode")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("the corpora were recorded on amd64 kernels")
	}
	for _, cd := range corpusDirs {
		t.Run(cd.scenario, func(t *testing.T) {
			sc, err := scenario.Get(cd.scenario)
			if err != nil {
				t.Fatal(err)
			}
			// icsreplay -record names the gas pipeline's fuzz seeds
			// "corpus" and every other testbed's after the testbed.
			prefix := "corpus"
			if sc.Name() != scenario.Default {
				prefix = sc.Name()
			}
			dir, frames := t.TempDir(), t.TempDir()
			rep, err := trace.BuildCorpus(trace.CorpusConfig{
				Scenario: sc, Dir: dir, FrameSeedDir: frames, SeedPrefix: prefix,
				TrainPackages: 16000, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}

			f, err := os.Open(filepath.Join(cd.dir, "model.fw"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			committed, err := core.Load(f)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rep.Fingerprint, committed.Fingerprint(); got != want {
				t.Fatalf("rebuilt model fingerprint %s, committed %s", got, want)
			}

			for _, name := range corpusEpisodes {
				for _, ext := range []string{".trace", ".verdicts"} {
					requireSameFile(t, filepath.Join(dir, name+ext), filepath.Join(cd.dir, name+ext))
				}
			}
			rebuilt, err := filepath.Glob(filepath.Join(frames, prefix+"*.bin"))
			if err != nil {
				t.Fatal(err)
			}
			seeds, err := filepath.Glob(filepath.Join("internal", "modbus", "testdata", "frames", prefix+"*.bin"))
			if err != nil {
				t.Fatal(err)
			}
			if len(rebuilt) != len(seeds) {
				t.Fatalf("rebuilt %d fuzz seed frames, %d committed", len(rebuilt), len(seeds))
			}
			for _, p := range seeds {
				requireSameFile(t, filepath.Join(frames, filepath.Base(p)), p)
			}
		})
	}
}

// requireSameFile fails unless the files at got and want hold equal bytes.
func requireSameFile(t *testing.T, got, want string) {
	t.Helper()
	g, err := os.ReadFile(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := os.ReadFile(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Fatalf("%s (%d bytes) differs from the committed %s (%d bytes)", got, len(g), want, len(w))
	}
}
