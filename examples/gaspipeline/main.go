// Gas pipeline walkthrough: the full offline workflow of the paper on a
// simulated capture — dataset generation, ARFF round trip, training with
// probabilistic noise, per-attack evaluation, and model persistence.
//
//	go run ./examples/gaspipeline
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"icsdetect"
	"icsdetect/internal/dataset"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// Generate and persist a capture the way cmd/icsgen would.
	ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{Packages: 20000, Seed: 7})
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "gaspipeline")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	arffPath := filepath.Join(dir, "capture.arff")
	f, err := os.Create(arffPath)
	if err != nil {
		return err
	}
	if err := icsdetect.WriteDatasetARFF(f, ds); err != nil {
		f.Close()
		return err
	}
	f.Close()
	fmt.Printf("capture written to %s\n", arffPath)

	// Read it back (any Morris-format ARFF capture works here).
	f, err = os.Open(arffPath)
	if err != nil {
		return err
	}
	loaded, err := icsdetect.ReadDatasetARFF(f)
	f.Close()
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d packages\n", loaded.Len())

	split, err := icsdetect.Split(loaded)
	if err != nil {
		return err
	}

	opts := icsdetect.DefaultTrainOptions()
	opts.Granularity = icsdetect.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
	}
	opts.Hidden = []int{48, 48}
	opts.Fit.Epochs = 10
	det, report, err := icsdetect.Train(split, opts)
	if err != nil {
		return err
	}
	fmt.Printf("trained: |S|=%d, k=%d, package-level validation error %.4f\n",
		report.Signatures, report.ChosenK, report.PackageErrv)

	// Evaluate per attack type, the paper's Table V view.
	eval, err := det.Evaluate(split.Test, icsdetect.DefaultStack())
	if err != nil {
		return err
	}
	fmt.Printf("combined framework: %v\n", eval.Summary)
	for _, at := range dataset.AttackTypes {
		if eval.PerAttack.Total[at] > 0 {
			fmt.Printf("  %-6s detected %.2f (%d packages)\n",
				at, eval.PerAttack.Ratio(at), eval.PerAttack.Total[at])
		}
	}

	// Ablation: how much does each level contribute?
	for _, level := range []struct{ name, kind string }{
		{"package level only", "bloom"},
		{"time-series level only", "lstm"},
	} {
		spec, err := icsdetect.ParseStack(level.kind, "")
		if err != nil {
			return err
		}
		alone, err := det.Evaluate(split.Test, spec)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %v\n", level.name, alone.Summary)
	}

	// Persist and reload; verdicts must be identical.
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		return err
	}
	restored, err := icsdetect.Load(&buf)
	if err != nil {
		return err
	}
	again, err := restored.Evaluate(split.Test, icsdetect.DefaultStack())
	if err != nil {
		return err
	}
	if again.Confusion != eval.Confusion {
		return fmt.Errorf("restored model disagrees: %+v vs %+v", again.Confusion, eval.Confusion)
	}
	fmt.Printf("model round-trip verified (%d KB in memory)\n", restored.MemoryBytes()/1024)
	return nil
}
