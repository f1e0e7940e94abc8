package experiments

import (
	"fmt"
	"strings"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/mathx"
	"icsdetect/internal/metrics"
	"icsdetect/internal/signature"
)

// Figure4 holds the 200-bin histograms of the four scalar continuous
// features over attack-free traffic (paper Fig. 4).
type Figure4 struct {
	Interval *mathx.Histogram
	CRCRate  *mathx.Histogram
	Setpoint *mathx.Histogram
	Pressure *mathx.Histogram
}

// RunFigure4 computes the histograms from the training fragments.
func RunFigure4(env *Env) *Figure4 {
	const bins = 200
	var interval, crc, setpoint, pressure []float64
	for _, frag := range env.Split.Train {
		var prev *dataset.Package
		for _, p := range frag {
			interval = append(interval, dataset.Interval(prev, p))
			crc = append(crc, p.CRCRate)
			setpoint = append(setpoint, p.Setpoint)
			pressure = append(pressure, p.Pressure)
			prev = p
		}
	}
	return &Figure4{
		Interval: mathx.NewHistogram(interval, bins),
		CRCRate:  mathx.NewHistogram(crc, bins),
		Setpoint: mathx.NewHistogram(setpoint, bins),
		Pressure: mathx.NewHistogram(pressure, bins),
	}
}

// String renders the four histograms as sparklines with their ranges.
func (f *Figure4) String() string {
	var b strings.Builder
	b.WriteString("Figure 4: histograms of continuous feature values (200 bins)\n")
	row := func(name string, h *mathx.Histogram) {
		vals := make([]float64, len(h.Counts))
		for i, c := range h.Counts {
			vals[i] = float64(c)
		}
		// Compress the 200 bins to 50 columns for terminal width.
		cols := make([]float64, 50)
		for i, v := range vals {
			cols[i*50/len(vals)] += v
		}
		fmt.Fprintf(&b, "%-22s [%.4g, %.4g]  %s\n", name, h.Min, h.Max, sparkline(cols))
	}
	row("time interval (s)", f.Interval)
	row("crc rate", f.CRCRate)
	row("setpoint (PSI)", f.Setpoint)
	row("pressure (PSI)", f.Pressure)
	return b.String()
}

// Figure5 is the granularity sweep: validation error as a function of the
// discretization granularity (paper Fig. 5), produced by the §IV-B search.
type Figure5 struct {
	Points []signature.SearchPoint
	Best   signature.Granularity
	Theta  float64
}

// RunFigure5 sweeps a granularity grid on the split and records errv.
func RunFigure5(env *Env) (*Figure5, error) {
	search := signature.DefaultSearchConfig()
	search.Seed = env.Config.Seed
	// Keep the sweep affordable: the figure's purpose is the shape of
	// errv(granularity), not an exhaustive grid.
	search.PressureGrid = []int{4, 6, 8, 10, 15, 20}
	search.SetpointGrid = []int{3, 5, 10}
	search.PIDGrid = []int{4, 8, 16, 32}
	res, err := signature.Search(env.Split.Train, env.Split.Validation, search)
	if err != nil {
		return nil, err
	}
	return &Figure5{Points: res.Points, Best: res.Best, Theta: search.Theta}, nil
}

// String renders the sweep as a table sorted by weighted score.
func (f *Figure5) String() string {
	t := newTable("pressure", "setpoint", "PID", "|S|", "errv", "feasible")
	for _, p := range f.Points {
		t.addf("%d\t%d\t%d\t%d\t%.4f\t%v",
			p.Granularity.PressureBins, p.Granularity.SetpointBins,
			p.Granularity.PIDClusters, p.Signatures, p.Errv, p.Feasible)
	}
	return fmt.Sprintf("Figure 5: validation error vs discretization granularity (θ=%.2f)\n%s\nchosen: %+v\n",
		f.Theta, t.String(), f.Best)
}

// TableIII reports the discretization strategy in use (paper Table III).
type TableIII struct {
	Granularity signature.Granularity
	Signatures  int
	Errv        float64
}

// RunTableIII reads the fitted encoder's strategy.
func RunTableIII(env *Env) *TableIII {
	return &TableIII{
		Granularity: env.Report.Granularity,
		Signatures:  env.Report.Signatures,
		Errv:        env.Report.PackageErrv,
	}
}

// String renders the strategy table.
func (t3 *TableIII) String() string {
	t := newTable("Feature", "Discretization method", "Value No.")
	g := t3.Granularity
	t.addf("time interval\tKmeans clustering\t%d+1", g.IntervalClusters)
	t.addf("crc rate\tKmeans clustering\t%d+1", g.CRCClusters)
	t.addf("pressure measurement\tEven interval partition\t%d+1", g.PressureBins)
	t.addf("setpoint\tEven interval partition\t%d+1", g.SetpointBins)
	t.addf("PID parameters\tKmeans clustering\t%d+1", g.PIDClusters)
	return fmt.Sprintf("Table III: feature discretization strategies (|S|=%d, errv=%.4f)\n%s",
		t3.Signatures, t3.Errv, t.String())
}

// Figure6 holds the top-k error curves of the stacked LSTM on training and
// validation data, with and without probabilistic noise (paper Fig. 6).
type Figure6 struct {
	NoiseTrain, NoiseValidation *metrics.TopKCurve
	PlainTrain, PlainValidation *metrics.TopKCurve
	ChosenK                     int
	Theta                       float64
}

// RunFigure6 reads the curves from the training reports.
func RunFigure6(env *Env) *Figure6 {
	return &Figure6{
		NoiseTrain:      env.Report.TrainCurve,
		NoiseValidation: env.Report.ValidationCurve,
		PlainTrain:      env.PlainRep.TrainCurve,
		PlainValidation: env.PlainRep.ValidationCurve,
		ChosenK:         env.Report.ChosenK,
		Theta:           env.Config.Core.ThetaSeries,
	}
}

// String renders the four curves.
func (f *Figure6) String() string {
	t := newTable("k", "train+noise", "val+noise", "train", "val")
	for k := 1; k <= len(f.NoiseTrain.Err); k++ {
		t.addf("%d\t%.4f\t%.4f\t%.4f\t%.4f",
			k, f.NoiseTrain.Err[k-1], f.NoiseValidation.Err[k-1],
			f.PlainTrain.Err[k-1], f.PlainValidation.Err[k-1])
	}
	return fmt.Sprintf("Figure 6: top-k error with and without probabilistic noise (θ=%.2f → k=%d)\n%s",
		f.Theta, f.ChosenK, t.String())
}

// Figure7 holds the combined-framework metrics as a function of k, with and
// without probabilistic noise (paper Fig. 7).
type Figure7 struct {
	Ks    []int
	Noise []metrics.Summary
	Plain []metrics.Summary
	// ChosenK is the validation-selected k; the paper highlights that it
	// also maximizes test F1.
	ChosenK int
}

// RunFigure7 sweeps k over the test set for both frameworks.
func RunFigure7(env *Env, maxK int) (*Figure7, error) {
	if maxK < 1 {
		maxK = 10
	}
	f := &Figure7{ChosenK: env.Report.ChosenK}
	savedNoise := env.Framework.Series.K
	savedPlain := env.Plain.Series.K
	defer func() {
		env.Framework.Series.K = savedNoise
		env.Plain.Series.K = savedPlain
	}()
	for k := 1; k <= maxK; k++ {
		if err := env.Framework.SetK(k); err != nil {
			return nil, err
		}
		if err := env.Plain.SetK(k); err != nil {
			return nil, err
		}
		noise, err := env.Framework.Evaluate(env.Split.Test, core.DefaultStackSpec())
		if err != nil {
			return nil, err
		}
		plain, err := env.Plain.Evaluate(env.Split.Test, core.DefaultStackSpec())
		if err != nil {
			return nil, err
		}
		f.Ks = append(f.Ks, k)
		f.Noise = append(f.Noise, noise.Summary)
		f.Plain = append(f.Plain, plain.Summary)
	}
	return f, nil
}

// String renders the sweep.
func (f *Figure7) String() string {
	t := newTable("k", "P+n", "R+n", "A+n", "F1+n", "P", "R", "A", "F1")
	for i, k := range f.Ks {
		n, p := f.Noise[i], f.Plain[i]
		t.addf("%d\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f",
			k, n.Precision, n.Recall, n.Accuracy, n.F1,
			p.Precision, p.Recall, p.Accuracy, p.F1)
	}
	return fmt.Sprintf("Figure 7: combined framework metrics vs k (+n = trained with noise; chosen k=%d)\n%s",
		f.ChosenK, t.String())
}
