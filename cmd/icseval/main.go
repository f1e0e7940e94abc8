// Command icseval reproduces the paper's evaluation: it generates the
// simulated gas pipeline dataset, trains the two-level framework (with and
// without probabilistic noise) plus the six baselines, and prints every
// table and figure of §VIII.
//
// Usage:
//
//	icseval [-packages N] [-seed S] [-epochs E] [-full] [-quiet]
//
// -full runs at the original dataset's scale with the paper's 2×256 LSTM
// (slow); the default runs a scaled configuration that preserves every
// qualitative result.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"icsdetect/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "icseval:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("icseval", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		packages = fs.Int("packages", 0, "dataset size in packages (0 = configuration default)")
		seed     = fs.Uint64("seed", 0, "random seed (0 = configuration default)")
		full     = fs.Bool("full", false, "run at the paper's full scale (slow)")
		quiet    = fs.Bool("quiet", false, "suppress progress output")
		epochs   = fs.Int("epochs", 0, "override LSTM training epochs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	cfg := experiments.DefaultConfig()
	if *full {
		cfg = experiments.PaperScaleConfig()
	}
	if *packages > 0 {
		cfg.Packages = *packages
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *epochs > 0 {
		cfg.Core.Fit.Epochs = *epochs
	}

	progress := func(msg string) {
		if !*quiet {
			fmt.Fprintf(stderr, "[%s] %s\n", time.Now().Format("15:04:05"), msg)
		}
	}

	start := time.Now()
	env, err := experiments.BuildEnv(cfg, progress)
	if err != nil {
		return err
	}
	progress(fmt.Sprintf("environment ready in %v", time.Since(start).Round(time.Millisecond)))

	fmt.Fprintln(stdout, experiments.RunFigure4(env).String())

	fig5, err := experiments.RunFigure5(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, fig5.String())

	fmt.Fprintln(stdout, experiments.RunTableIII(env).String())
	fmt.Fprintln(stdout, experiments.RunFigure6(env).String())

	fig7, err := experiments.RunFigure7(env, 10)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, fig7.String())

	t4, err := experiments.RunTableIV(env)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, t4.String())
	fmt.Fprintln(stdout, experiments.RunTableV(t4).String())

	fmt.Fprintf(stdout, "model memory: %d KB; total wall clock: %v\n",
		env.Framework.MemoryBytes()/1024, time.Since(start).Round(time.Millisecond))
	return nil
}
