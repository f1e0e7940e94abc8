// Command icsdetect classifies an ARFF capture with a trained model and
// reports detection metrics.
//
// Usage:
//
//	icsdetect -model model.bin -in capture.arff [-k 4] [-alerts alerts.txt]
//	icsdetect -model model.bin -in capture.arff -levels bloom,pca,lstm \
//	          -fusion majority
//	icsdetect -model model.bin -in capture.arff -levels lstm   # ablation
//
// -levels composes a detection stack from the registered level kinds (see
// -levels list; the default is the paper's bloom,lstm); levels beyond the
// built-in two need their stage models in the loaded framework (train them
// with icstrain -levels).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"icsdetect/internal/cli"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/metrics"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "icsdetect:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		modelPath = flag.String("model", "model.bin", "trained model path")
		in        = flag.String("in", "", "input ARFF capture (required)")
		k         = flag.Int("k", 0, "override top-k threshold (0 keeps the trained k)")
		alerts    = flag.String("alerts", "", "write one line per detected anomaly to this file")
	)
	stack := cli.StackFlags(flag.CommandLine)
	flag.Parse()
	if stack.List(os.Stdout) {
		return nil
	}
	if *in == "" {
		return fmt.Errorf("-in is required")
	}
	spec, err := stack.Spec()
	if err != nil {
		return err
	}

	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	fw, err := core.Load(mf)
	mf.Close()
	if err != nil {
		return err
	}
	if *k > 0 {
		if err := fw.SetK(*k); err != nil {
			return err
		}
	}
	if err := cli.RequireTrained(fw, spec); err != nil {
		return err
	}

	df, err := os.Open(*in)
	if err != nil {
		return err
	}
	ds, err := dataset.ReadARFF(df)
	df.Close()
	if err != nil {
		return err
	}

	var alertW *bufio.Writer
	if *alerts != "" {
		af, err := os.Create(*alerts)
		if err != nil {
			return err
		}
		defer af.Close()
		alertW = bufio.NewWriter(af)
		defer alertW.Flush()
	}

	sess, err := fw.NewStackSession(spec)
	if err != nil {
		return err
	}
	var conf metrics.Confusion
	per := metrics.NewPerAttack()
	byLevel := make(map[core.Level]int)
	for i, p := range ds.Packages {
		v := sess.Classify(p)
		conf.Add(v.Anomaly, p.IsAttack())
		per.Add(p.Label, v.Anomaly)
		if v.Anomaly {
			byLevel[v.Level]++
		}
		if v.Anomaly && alertW != nil {
			fmt.Fprintf(alertW, "package %d t=%.3f level=%s signature=%s label=%s\n",
				i, p.Time, v.Level, v.Signature, p.Label)
		}
	}

	sum := metrics.Summarize(&conf)
	fmt.Printf("stack: %s\n", spec)
	fmt.Printf("packages: %d\n", conf.Total())
	fmt.Printf("precision=%.4f recall=%.4f accuracy=%.4f f1=%.4f\n",
		sum.Precision, sum.Recall, sum.Accuracy, sum.F1)
	fmt.Printf("TP=%d FP=%d TN=%d FN=%d\n", conf.TP, conf.FP, conf.TN, conf.FN)
	for l := core.Level(0); l < core.NumLevels; l++ {
		if n := byLevel[l]; n > 0 {
			fmt.Printf("level %-12s %6d detections\n", l, n)
		}
	}
	for _, at := range dataset.AttackTypes {
		if per.Total[at] > 0 {
			fmt.Printf("%-6s detected %4d/%4d (%.2f)\n",
				at, per.Detected[at], per.Total[at], per.Ratio(at))
		}
	}
	return nil
}
