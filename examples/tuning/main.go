// Tuning walkthrough: the paper's two model-selection procedures on a
// simulated capture — the §IV-B granularity search (find the most
// fine-grained discretization with validation error below θ) and the
// §V-A-2 top-k selection (find the minimal k with top-k error below θ).
//
//	go run ./examples/tuning
package main

import (
	"fmt"
	"log"

	"icsdetect"
	"icsdetect/internal/signature"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{Packages: 12000, Seed: 3})
	if err != nil {
		return err
	}
	split, err := icsdetect.Split(ds)
	if err != nil {
		return err
	}

	// ---- Granularity search (paper Fig. 5 / Table III) ---------------------
	search := signature.DefaultSearchConfig()
	search.Theta = 0.015
	search.PressureGrid = []int{3, 5, 8}
	search.WPressure = 1
	search.SetpointGrid = []int{3, 5}
	search.PIDGrid = []int{2, 4, 8}
	res, err := signature.Search(split.Train, split.Validation, search)
	if err != nil {
		return err
	}
	fmt.Println("granularity search (errv must stay below θ=0.015):")
	for _, p := range res.Points {
		marker := " "
		if p.Granularity == res.Best {
			marker = "*"
		}
		fmt.Printf(" %s pressure=%-2d setpoint=%-2d pid=%-2d |S|=%-4d errv=%.4f feasible=%v\n",
			marker, p.Granularity.PressureBins, p.Granularity.SetpointBins,
			p.Granularity.PIDClusters, p.Signatures, p.Errv, p.Feasible)
	}
	fmt.Printf("chosen granularity: %+v (|S|=%d)\n\n", res.Best, res.BestDB.Size())

	// ---- Train with the chosen granularity and inspect k selection --------
	opts := icsdetect.DefaultTrainOptions()
	opts.Granularity = res.Best
	opts.Hidden = []int{64, 64}
	opts.Fit.Epochs = 16
	opts.Fit.BatchSize = 4
	opts.ThetaSeries = 0.05
	_, report, err := icsdetect.Train(split, opts)
	if err != nil {
		return err
	}

	fmt.Println("top-k error on the validation set (paper Fig. 6):")
	for k := 1; k <= len(report.ValidationCurve.Err); k++ {
		marker := " "
		if k == report.ChosenK {
			marker = "*"
		}
		fmt.Printf(" %s k=%-2d err=%.4f\n", marker, k, report.ValidationCurve.Err[k-1])
	}
	fmt.Printf("chosen k = %d (minimal k with error below θ=%.2f)\n",
		report.ChosenK, opts.ThetaSeries)

	// The same rule at a stricter θ picks a larger k: fewer false
	// positives, weaker sensitivity (paper §VIII-D discussion).
	det2, report2, err := icsdetect.Train(split, withTheta(opts, 0.02))
	if err != nil {
		return err
	}
	fmt.Printf("with θ=0.02 the rule picks k = %d\n", report2.ChosenK)
	eval, err := det2.Evaluate(split.Test, icsdetect.DefaultStack())
	if err != nil {
		return err
	}
	fmt.Printf("resulting test metrics: %v\n", eval.Summary)
	return nil
}

func withTheta(opts icsdetect.TrainOptions, theta float64) icsdetect.TrainOptions {
	opts.ThetaSeries = theta
	return opts
}
