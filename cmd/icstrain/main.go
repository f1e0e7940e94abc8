// Command icstrain trains the multi-level anomaly detection framework on
// an ARFF capture and saves the model.
//
// Usage:
//
//	icstrain -in capture.arff -model model.bin [-hidden 64,64] [-epochs 12]
//	         [-scenario watertank] [-search] [-no-noise]
//	         [-checkpoint prefix] [-levels bloom,pca,lstm]
//
// -levels additionally trains the stage models of the named promoted
// detection levels (pca, gmm, iforest, bayesnet, svdd, bf4) from the same
// split and persists them inside the model, so icsdetect/icsreplay/
// icsmonitor can compose them into stacks.
//
// By default the Table III-style fixed granularity is tuned to the capture
// size through the scenario's scale heuristic (-scenario names the testbed
// the capture came from); -search runs the paper's §IV-B granularity search
// instead. Training is deterministic: one capture and one -seed give one
// model. Each epoch reports loss, wall time and windows/sec, and
// -checkpoint writes a loadable model snapshot after every epoch.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/nn"
	"icsdetect/internal/scenario"

	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/recon"
	_ "icsdetect/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icstrain:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		in      = flag.String("in", "", "input ARFF capture (required)")
		scName  = flag.String("scenario", scenario.Default, "testbed scenario the capture came from: "+strings.Join(scenario.Names(), ", "))
		model   = flag.String("model", "model.bin", "output model path")
		hidden  = flag.String("hidden", "64,64", "LSTM hidden sizes, comma separated")
		epochs  = flag.Int("epochs", 12, "training epochs")
		noNoise = flag.Bool("no-noise", false, "disable probabilistic-noise training")
		search  = flag.Bool("search", false, "run the granularity search instead of the scale heuristic")
		lambda  = flag.Float64("lambda", 10, "noise frequency parameter λ")
		seed    = flag.Uint64("seed", 1, "random seed")
		ckpt    = flag.String("checkpoint", "", "when set, write <prefix>-epochNNN.bin after every epoch")
		levels  = flag.String("levels", "", "also train these promoted detection levels into the model, e.g. bloom,pca,lstm (registered: "+strings.Join(core.StageKinds(), ", ")+")")
	)
	flag.Parse()
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	sc, err := scenario.Get(*scName)
	if err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadARFF(f)
	f.Close()
	if err != nil {
		return err
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.UseNoise = !*noNoise
	cfg.Lambda = *lambda
	cfg.Fit.Epochs = *epochs
	cfg.Hidden, err = parseHidden(*hidden)
	if err != nil {
		return err
	}
	if !*search {
		cfg.Granularity = sc.Granularity(ds.Len())
	}
	cfg.Fit.EpochEnd = func(st nn.EpochStats) {
		fmt.Fprintf(os.Stderr, "epoch %d/%d: loss %.4f  %.2fs  %.0f windows/s\n",
			st.Epoch, st.Epochs, st.MeanLoss, st.Duration.Seconds(), st.WindowsPerSec())
	}
	if *ckpt != "" {
		cfg.Checkpoint = func(epoch int, fw *core.Framework) {
			path := fmt.Sprintf("%s-epoch%03d.bin", *ckpt, epoch)
			if err := saveFramework(fw, path); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint %s failed: %v\n", path, err)
				return
			}
			fmt.Fprintf(os.Stderr, "checkpoint written to %s\n", path)
		}
	}

	var spec core.StackSpec
	if *levels != "" {
		// A typo in the stack fails here, before the (long) training step.
		if spec, err = core.ParseStackSpec(*levels, ""); err != nil {
			return err
		}
	}

	start := time.Now()
	fw, report, err := core.Train(split, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "trained in %v: |S|=%d errv=%.4f k=%d\n",
		time.Since(start).Round(time.Millisecond),
		report.Signatures, report.PackageErrv, report.ChosenK)

	if *levels != "" {
		stageStart := time.Now()
		if err := fw.TrainStages(spec, split, *seed); err != nil {
			return err
		}
		trained := make([]string, 0, len(fw.Extra))
		for kind := range fw.Extra {
			trained = append(trained, kind)
		}
		sort.Strings(trained)
		fmt.Fprintf(os.Stderr, "stage models trained in %v: %s\n",
			time.Since(stageStart).Round(time.Millisecond), strings.Join(trained, ", "))
	}

	if err := saveFramework(fw, *model); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s (%d KB in memory)\n",
		*model, fw.MemoryBytes()/1024)
	return nil
}

// saveFramework writes fw to path, replacing any previous file.
func saveFramework(fw *core.Framework, path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fw.Save(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func parseHidden(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad hidden size %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
