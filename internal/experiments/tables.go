package experiments

import (
	"fmt"

	"icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
	"icsdetect/internal/metrics"
)

// ModelResult is one row of Table IV plus the per-attack breakdown that
// feeds Table V.
type ModelResult struct {
	Name      string
	Summary   metrics.Summary
	PerAttack *metrics.PerAttack
}

// TableIV is the model comparison (paper Table IV).
type TableIV struct {
	Rows []ModelResult
}

// RunTableIV evaluates the combined framework and all six baselines on the
// test set. Per the paper: the framework is trained with probabilistic
// noise at its validation-chosen k; BF/BN/SVDD/IF train on attack-free
// windows; GMM and PCA-SVD are unsupervised (fitted on the unlabeled test
// traffic, as in [52]); baseline thresholds are tuned for best F1 with
// accuracy above MinAccuracy.
func RunTableIV(env *Env) (*TableIV, error) {
	out := &TableIV{}

	eval, err := env.Framework.Evaluate(env.Split.Test, core.DefaultStackSpec())
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, ModelResult{
		Name:      "Our framework",
		Summary:   eval.Summary,
		PerAttack: eval.PerAttack,
	})

	trainSamples := baselines.Samples(env.TrainWindows)
	testSamples := baselines.Samples(env.TestWindows)
	seed := env.Config.Seed

	scorers := make([]baselines.Scorer, 0, 6)
	bf, err := baselines.NewBF(env.TrainWindows, 0.005)
	if err != nil {
		return nil, fmt.Errorf("experiments: bf: %w", err)
	}
	scorers = append(scorers, bf)

	bn, err := baselines.NewBayesNet(env.TrainWindows)
	if err != nil {
		return nil, fmt.Errorf("experiments: bn: %w", err)
	}
	scorers = append(scorers, bn)

	svdd, err := baselines.NewSVDD(trainSamples, baselines.SVDDConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: svdd: %w", err)
	}
	scorers = append(scorers, svdd)

	iforest, err := baselines.NewIsolationForest(trainSamples, baselines.IForestConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: iforest: %w", err)
	}
	scorers = append(scorers, iforest)

	gmm, err := baselines.NewGMM(testSamples, baselines.GMMConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: gmm: %w", err)
	}
	scorers = append(scorers, gmm)

	pca, err := baselines.NewPCASVD(testSamples, baselines.PCAConfig{Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("experiments: pca: %w", err)
	}
	scorers = append(scorers, pca)

	for _, s := range scorers {
		res, err := baselines.Evaluate(s, env.TestWindows, env.Config.MinAccuracy)
		if err != nil {
			return nil, fmt.Errorf("experiments: evaluate %s: %w", s.Name(), err)
		}
		out.Rows = append(out.Rows, ModelResult{
			Name:      res.Name,
			Summary:   res.Summary,
			PerAttack: res.PerAttack,
		})
	}
	return out, nil
}

// String renders Table IV.
func (t4 *TableIV) String() string {
	t := newTable("Model", "Precision", "Recall", "Accuracy", "F1-score")
	for _, r := range t4.Rows {
		t.addf("%s\t%.2f\t%.2f\t%.2f\t%.2f",
			r.Name, r.Summary.Precision, r.Summary.Recall, r.Summary.Accuracy, r.Summary.F1)
	}
	return "Table IV: performance comparison with other anomaly detection models\n" + t.String()
}

// TableV is the per-attack detected ratio table (paper Table V), reusing
// the Table IV evaluations.
type TableV struct {
	Rows []ModelResult
}

// RunTableV derives Table V from a Table IV run.
func RunTableV(t4 *TableIV) *TableV {
	return &TableV{Rows: t4.Rows}
}

// String renders Table V in the paper's layout: attack type × model.
func (t5 *TableV) String() string {
	t := newTable("Attack Type", "Model", "Detected Ratio")
	for _, at := range dataset.AttackTypes {
		for _, r := range t5.Rows {
			t.addf("%s\t%s\t%.2f", at, r.Name, r.PerAttack.Ratio(at))
		}
	}
	return "Table V: detected ratio (recall) of anomalous packages per attack type\n" + t.String()
}
