// Command icsgen generates a simulated SCADA capture for a registered
// testbed scenario with the schema and attack taxonomy of the Morris
// datasets (paper §VII) and writes it as ARFF.
//
// Usage:
//
//	icsgen -packages 60000 -seed 1 -out capture.arff
//	icsgen -scenario watertank -packages 60000 -out tank.arff
//	icsgen -normal -packages 20000 -out clean.arff   # attack-free
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"icsdetect/internal/dataset"
	"icsdetect/internal/scenario"

	_ "icsdetect/internal/gaspipeline"
	_ "icsdetect/internal/watertank"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsgen:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name     = flag.String("scenario", scenario.Default, "testbed scenario: "+strings.Join(scenario.Names(), ", "))
		packages = flag.Int("packages", 60000, "approximate capture size in packages")
		seed     = flag.Uint64("seed", 1, "random seed")
		ratio    = flag.Float64("attack-ratio", 0.219, "target fraction of attack packages")
		normal   = flag.Bool("normal", false, "generate attack-free traffic")
		out      = flag.String("out", "-", "output path (- for stdout)")
	)
	flag.Parse()

	sc, err := scenario.Get(*name)
	if err != nil {
		return err
	}
	cfg := scenario.GenConfig{
		TotalPackages: *packages,
		AttackRatio:   *ratio,
		Seed:          *seed,
	}
	if *normal {
		cfg.AttackRatio = 0
	}
	ds, err := sc.Generate(cfg)
	if err != nil {
		return err
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := dataset.WriteARFFNamed(w, ds, sc.Name()); err != nil {
		return err
	}
	counts := ds.CountAttacks()
	fmt.Fprintf(os.Stderr, "wrote %d %s packages (%d normal, %d attack)\n",
		ds.Len(), sc.Name(), counts[dataset.Normal], ds.Len()-counts[dataset.Normal])
	for _, at := range dataset.AttackTypes {
		if counts[at] > 0 {
			fmt.Fprintf(os.Stderr, "  %-6s %6d\n", at, counts[at])
		}
	}
	return nil
}
