package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"icsdetect/internal/dataset"
)

func TestConfusionMath(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 5 TN, 1 FN.
	for i := 0; i < 3; i++ {
		c.Add(true, true)
	}
	c.Add(true, false)
	for i := 0; i < 5; i++ {
		c.Add(false, false)
	}
	c.Add(false, true)

	if c.Total() != 10 {
		t.Fatalf("total = %d", c.Total())
	}
	if p := c.Precision(); math.Abs(p-0.75) > 1e-12 {
		t.Errorf("precision = %v", p)
	}
	if r := c.Recall(); math.Abs(r-0.75) > 1e-12 {
		t.Errorf("recall = %v", r)
	}
	if a := c.Accuracy(); math.Abs(a-0.8) > 1e-12 {
		t.Errorf("accuracy = %v", a)
	}
	if f := c.F1(); math.Abs(f-0.75) > 1e-12 {
		t.Errorf("f1 = %v", f)
	}
}

func TestConfusionEmptyDenominators(t *testing.T) {
	var c Confusion
	if c.Precision() != 0 || c.Recall() != 0 || c.Accuracy() != 0 || c.F1() != 0 {
		t.Error("empty confusion must yield zeros, not NaN")
	}
}

// TestConfusionEdgeCases: every zero-denominator corner of the four metrics
// must return a finite value (0), never NaN or Inf — replay summaries over
// single-class traces (all-normal or all-attack) hit all of them.
func TestConfusionEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name               string
		c                  Confusion
		prec, rec, acc, f1 float64
	}{
		{name: "empty"},
		{name: "all-TP", c: Confusion{TP: 7}, prec: 1, rec: 1, acc: 1, f1: 1},
		{name: "all-TN", c: Confusion{TN: 9}, acc: 1},
		{name: "all-FP", c: Confusion{FP: 4}},
		{name: "all-FN", c: Confusion{FN: 3}},
		{name: "no-predicted-positives", c: Confusion{TN: 5, FN: 2}, acc: 5.0 / 7},
		{name: "no-actual-positives", c: Confusion{TN: 5, FP: 2}, acc: 5.0 / 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := Summarize(&tc.c)
			want := Summary{Precision: tc.prec, Recall: tc.rec, Accuracy: tc.acc, F1: tc.f1}
			if got != want {
				t.Errorf("summary = %+v, want %+v", got, want)
			}
			for name, v := range map[string]float64{
				"precision": got.Precision, "recall": got.Recall,
				"accuracy": got.Accuracy, "f1": got.F1,
			} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v, want finite", name, v)
				}
			}
		})
	}
}

func TestPerAttackUnseenType(t *testing.T) {
	p := NewPerAttack()
	p.Add(dataset.Normal, true) // ignored
	if r := p.Ratio(dataset.DOS); r != 0 || math.IsNaN(r) {
		t.Errorf("ratio of unseen type = %v, want 0", r)
	}
	if len(p.Total) != 0 {
		t.Error("normal packages must not be counted")
	}
}

func TestTopKCurveEmptyRanks(t *testing.T) {
	curve := NewTopKCurve(nil, 5)
	if len(curve.Err) != 5 {
		t.Fatalf("curve length = %d", len(curve.Err))
	}
	for k, e := range curve.Err {
		if e != 0 || math.IsNaN(e) {
			t.Errorf("err[%d] = %v on empty ranks", k, e)
		}
	}
}

func TestDetectionLatency(t *testing.T) {
	l := NewDetectionLatency()
	// Unrecorded type: zero rate and latency, no NaN.
	if r := l.DetectionRate(dataset.NMRI); r != 0 || math.IsNaN(r) {
		t.Errorf("rate of unseen type = %v", r)
	}
	if m := l.MeanLatency(dataset.NMRI); m != 0 || math.IsNaN(m) {
		t.Errorf("latency of unseen type = %v", m)
	}

	l.AddEpisode(dataset.Normal, true, 1) // ignored
	l.AddEpisode(dataset.DOS, true, 2.0)
	l.AddEpisode(dataset.DOS, true, 4.0)
	l.AddEpisode(dataset.DOS, false, 99) // undetected: latency ignored
	l.AddEpisode(dataset.CMRI, true, -1) // clamped to 0

	if l.Episodes[dataset.DOS] != 3 || l.Detected[dataset.DOS] != 2 {
		t.Errorf("DoS episodes=%d detected=%d", l.Episodes[dataset.DOS], l.Detected[dataset.DOS])
	}
	if r := l.DetectionRate(dataset.DOS); math.Abs(r-2.0/3) > 1e-12 {
		t.Errorf("DoS rate = %v", r)
	}
	if m := l.MeanLatency(dataset.DOS); math.Abs(m-3.0) > 1e-12 {
		t.Errorf("DoS mean latency = %v, want 3", m)
	}
	if l.MaxSeconds[dataset.DOS] != 4.0 {
		t.Errorf("DoS max latency = %v, want 4", l.MaxSeconds[dataset.DOS])
	}
	if m := l.MeanLatency(dataset.CMRI); m != 0 {
		t.Errorf("clamped latency = %v, want 0", m)
	}
	if l.Episodes[dataset.Normal] != 0 {
		t.Error("normal episodes must be ignored")
	}
}

// TestF1IsHarmonicMean: F1 lies between min and max of P and R and equals
// them when they coincide.
func TestF1IsHarmonicMean(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		c := Confusion{TP: int(tp), FP: int(fp), FN: int(fn)}
		p, r, f1 := c.Precision(), c.Recall(), c.F1()
		if p+r == 0 {
			return f1 == 0
		}
		want := 2 * p * r / (p + r)
		return math.Abs(f1-want) < 1e-12 && f1 <= math.Max(p, r)+1e-12 && f1 >= math.Min(p, r)-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPerAttack(t *testing.T) {
	p := NewPerAttack()
	p.Add(dataset.DOS, true)
	p.Add(dataset.DOS, false)
	p.Add(dataset.Recon, true)
	p.Add(dataset.Normal, true) // ignored
	if r := p.Ratio(dataset.DOS); r != 0.5 {
		t.Errorf("DoS ratio = %v", r)
	}
	if r := p.Ratio(dataset.Recon); r != 1 {
		t.Errorf("Recon ratio = %v", r)
	}
	if r := p.Ratio(dataset.MFCI); r != 0 {
		t.Errorf("unseen attack ratio = %v", r)
	}
	if p.Total[dataset.Normal] != 0 {
		t.Error("normal packages counted")
	}
}

func TestTopKCurve(t *testing.T) {
	// ranks: 0,0,1,3,10 over maxK=4.
	curve := NewTopKCurve([]int{0, 0, 1, 3, 10}, 4)
	want := []float64{3.0 / 5, 2.0 / 5, 2.0 / 5, 1.0 / 5}
	for k := 1; k <= 4; k++ {
		if math.Abs(curve.Err[k-1]-want[k-1]) > 1e-12 {
			t.Errorf("err_%d = %v, want %v", k, curve.Err[k-1], want[k-1])
		}
	}
}

func TestTopKCurveMonotone(t *testing.T) {
	f := func(ranks []uint8) bool {
		ints := make([]int, len(ranks))
		for i, r := range ranks {
			ints[i] = int(r) % 20
		}
		curve := NewTopKCurve(ints, 10)
		for k := 1; k < len(curve.Err); k++ {
			if curve.Err[k] > curve.Err[k-1]+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMinKBelow(t *testing.T) {
	curve := &TopKCurve{Err: []float64{0.2, 0.1, 0.04, 0.01}}
	k, err := curve.MinKBelow(0.05)
	if err != nil {
		t.Fatal(err)
	}
	if k != 3 {
		t.Errorf("k = %d, want 3", k)
	}
	// No k qualifies.
	k, err = curve.MinKBelow(0.001)
	if err != nil {
		t.Fatal(err)
	}
	if k != 5 {
		t.Errorf("k = %d, want len+1 = 5", k)
	}
	if _, err := curve.MinKBelow(0); err == nil {
		t.Error("theta = 0 accepted")
	}
}

func TestEmptyTopKCurve(t *testing.T) {
	curve := NewTopKCurve(nil, 5)
	for _, e := range curve.Err {
		if e != 0 {
			t.Error("empty ranks should give zero error")
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := Summary{Precision: 0.94, Recall: 0.78, Accuracy: 0.92, F1: 0.85}
	if got := s.String(); got == "" {
		t.Error("empty summary string")
	}
}
