package baselines

import (
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// syntheticWindows builds windows from numeric vectors directly, bypassing
// the windowizer, for model-level unit tests.
func syntheticWindows(samples [][]float64) []*Window {
	out := make([]*Window, len(samples))
	for i, s := range samples {
		out[i] = &Window{Sample: s}
	}
	return out
}

func gaussianCloud(rng *mathx.RNG, center []float64, n int, std float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		p := make([]float64, len(center))
		for d := range center {
			p[d] = center[d] + rng.NormScaled(0, std)
		}
		out[i] = p
	}
	return out
}

func TestTuneThresholdSeparable(t *testing.T) {
	// Anomalies score 10, normals score 0: a perfect threshold exists.
	scores := []float64{0, 0, 0, 0, 10, 10}
	labels := []bool{false, false, false, false, true, true}
	thr, sum, err := TuneThreshold(scores, labels, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if sum.F1 != 1 {
		t.Errorf("F1 = %v on separable scores", sum.F1)
	}
	if thr <= 0 || thr >= 10 {
		t.Errorf("threshold %v outside the separating gap", thr)
	}
}

func TestTuneThresholdAccuracyConstraint(t *testing.T) {
	// Flagging everything maximizes recall but destroys accuracy; the
	// constrained tuner must prefer a quieter threshold.
	scores := make([]float64, 100)
	labels := make([]bool, 100)
	for i := range scores {
		scores[i] = 1 // all identical: thresholds are all-or-nothing
		labels[i] = i < 10
	}
	_, sum, err := TuneThreshold(scores, labels, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Accuracy < 0.7 {
		t.Errorf("constrained tuner returned accuracy %v", sum.Accuracy)
	}
}

func TestTuneThresholdErrors(t *testing.T) {
	if _, _, err := TuneThreshold(nil, nil, 0.7); err == nil {
		t.Error("empty input accepted")
	}
	if _, _, err := TuneThreshold([]float64{1}, []bool{true, false}, 0.7); err == nil {
		t.Error("mismatched lengths accepted")
	}
}

func TestStandardizer(t *testing.T) {
	samples := [][]float64{{0, 10}, {2, 10}, {4, 10}}
	s, err := FitStandardizer(samples)
	if err != nil {
		t.Fatal(err)
	}
	x := s.Apply([]float64{2, 10})
	if math.Abs(x[0]) > 1e-12 {
		t.Errorf("mean not removed: %v", x[0])
	}
	// Constant feature: centered but not scaled to infinity.
	if x[1] != 0 || math.IsNaN(x[1]) {
		t.Errorf("constant feature mishandled: %v", x[1])
	}
	if _, err := FitStandardizer(nil); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestSVDDSeparatesOutliers(t *testing.T) {
	rng := mathx.NewRNG(1)
	train := gaussianCloud(rng, []float64{0, 0, 0}, 400, 1)
	svdd, err := NewSVDD(train, SVDDConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	inlier := &Window{Sample: []float64{0.2, -0.1, 0.3}}
	outlier := &Window{Sample: []float64{8, 8, 8}}
	if svdd.Score(inlier) >= svdd.Score(outlier) {
		t.Errorf("inlier score %v >= outlier score %v",
			svdd.Score(inlier), svdd.Score(outlier))
	}
	if svdd.SupportVectors() == 0 {
		t.Error("no support vectors")
	}
}

func TestSVDDSubsampling(t *testing.T) {
	rng := mathx.NewRNG(2)
	train := gaussianCloud(rng, []float64{0}, 500, 1)
	svdd, err := NewSVDD(train, SVDDConfig{MaxTrain: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if svdd.SupportVectors() > 100 {
		t.Errorf("support vectors %d exceed the subsample", svdd.SupportVectors())
	}
}

// TestSVDDScoreVectorMatchesKernelSum: ScoreVector, which takes all
// kernel exponents through one mathx.VExp pass, must equal the plain sum
// of per-support-vector rbf terms bit for bit — far outliers (exponents
// the vector kernel hands back to math.Exp) included.
func TestSVDDScoreVectorMatchesKernelSum(t *testing.T) {
	rng := mathx.NewRNG(4)
	center := make([]float64, 9)
	svdd, err := NewSVDD(gaussianCloud(rng, center, 400, 1), SVDDConfig{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	probes := append(gaussianCloud(rng, center, 100, 1), gaussianCloud(rng, center, 100, 40)...)
	scratch := make([]float64, svdd.ScratchLen())
	for i, x := range probes {
		var cross float64
		for j, sv := range svdd.support {
			cross += svdd.alpha[j] * rbf(x, sv, svdd.Gamma)
		}
		want := 1 - 2*cross + svdd.aa
		if got := svdd.ScoreVector(x, scratch); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("probe %d: ScoreVector %x, kernel sum %x", i, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

func TestIsolationForestSeparatesOutliers(t *testing.T) {
	rng := mathx.NewRNG(3)
	train := gaussianCloud(rng, []float64{0, 0}, 600, 1)
	f, err := NewIsolationForest(train, IForestConfig{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	inlier := &Window{Sample: []float64{0.1, 0.1}}
	outlier := &Window{Sample: []float64{10, -10}}
	si, so := f.Score(inlier), f.Score(outlier)
	if si >= so {
		t.Errorf("inlier %v >= outlier %v", si, so)
	}
	if si <= 0 || si > 1 || so <= 0 || so > 1 {
		t.Errorf("scores outside (0,1]: %v, %v", si, so)
	}
}

func TestGMMLikelihood(t *testing.T) {
	rng := mathx.NewRNG(5)
	data := append(gaussianCloud(rng, []float64{0, 0}, 300, 0.5),
		gaussianCloud(rng, []float64{6, 6}, 300, 0.5)...)
	g, err := NewGMM(data, GMMConfig{Components: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	nearMode := &Window{Sample: []float64{0.1, 0}}
	between := &Window{Sample: []float64{3, 3}}
	if g.Score(nearMode) >= g.Score(between) {
		t.Errorf("mode NLL %v >= void NLL %v", g.Score(nearMode), g.Score(between))
	}
}

func TestPCAReconstructsLowRank(t *testing.T) {
	rng := mathx.NewRNG(7)
	// Data on a 1-D line embedded in 5-D plus tiny noise.
	dir := []float64{1, 2, -1, 0.5, 3}
	var data [][]float64
	for i := 0; i < 400; i++ {
		a := rng.NormScaled(0, 2)
		p := make([]float64, len(dir))
		for d := range dir {
			p[d] = a*dir[d] + rng.NormScaled(0, 0.01)
		}
		data = append(data, p)
	}
	p, err := NewPCASVD(data, PCAConfig{VarianceTarget: 0.95, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	if p.Components() != 1 {
		t.Errorf("components = %d, want 1 for line data", p.Components())
	}
	onLine := &Window{Sample: []float64{2, 4, -2, 1, 6}}
	offLine := &Window{Sample: []float64{2, 4, -2, 1, -6}}
	if p.Score(onLine) >= p.Score(offLine) {
		t.Errorf("on-line error %v >= off-line error %v", p.Score(onLine), p.Score(offLine))
	}
}

func TestBayesNetLearnsDependence(t *testing.T) {
	rng := mathx.NewRNG(9)
	// x1 = x0, x2 independent: tree must link x0-x1.
	var train []*Window
	for i := 0; i < 500; i++ {
		a := rng.Intn(3)
		train = append(train, &Window{Discrete: []int{a, a, rng.Intn(3)}})
	}
	bn, err := NewBayesNet(train)
	if err != nil {
		t.Fatal(err)
	}
	// A window violating x1 = x0 must score worse than a consistent one.
	good := &Window{Discrete: []int{1, 1, 0}}
	bad := &Window{Discrete: []int{1, 2, 0}}
	if bn.Score(good) >= bn.Score(bad) {
		t.Errorf("consistent NLL %v >= violating NLL %v", bn.Score(good), bn.Score(bad))
	}
	if len(bn.Structure()) != 3 {
		t.Errorf("structure size = %d", len(bn.Structure()))
	}
}

func TestBayesNetUnseenValues(t *testing.T) {
	var train []*Window
	for i := 0; i < 100; i++ {
		train = append(train, &Window{Discrete: []int{0, 1}})
	}
	bn, err := NewBayesNet(train)
	if err != nil {
		t.Fatal(err)
	}
	seen := &Window{Discrete: []int{0, 1}}
	unseen := &Window{Discrete: []int{1, 0}}
	if bn.Score(seen) >= bn.Score(unseen) {
		t.Error("unseen configuration not scored as more anomalous")
	}
}

func TestModelConstructorErrors(t *testing.T) {
	if _, err := NewBayesNet(nil); err == nil {
		t.Error("BN empty train accepted")
	}
	if _, err := NewSVDD(nil, SVDDConfig{}); err == nil {
		t.Error("SVDD empty train accepted")
	}
	if _, err := NewIsolationForest(nil, IForestConfig{}); err == nil {
		t.Error("IF empty train accepted")
	}
	if _, err := NewGMM(nil, GMMConfig{}); err == nil {
		t.Error("GMM empty data accepted")
	}
	if _, err := NewPCASVD(nil, PCAConfig{}); err == nil {
		t.Error("PCA empty data accepted")
	}
	if _, err := NewBF(nil, 0.01); err != nil {
		t.Error("BF with zero windows should still construct (empty filter)")
	}
}

func TestBFScoreBinary(t *testing.T) {
	train := syntheticWindows([][]float64{{1}, {2}})
	train[0].Sigs = []string{"a", "b"}
	train[1].Sigs = []string{"a", "c"}
	bf, err := NewBF(train, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	known := &Window{Sigs: []string{"a", "b"}}
	unknown := &Window{Sigs: []string{"x", "y"}}
	if bf.Score(known) != 0 {
		t.Error("known composite scored anomalous")
	}
	if bf.Score(unknown) != 1 {
		t.Error("unknown composite scored normal")
	}
}
