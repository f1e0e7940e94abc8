// Package metrics implements the evaluation measures of the paper
// (§VIII-B): precision, recall, accuracy and F1 over a binary confusion
// matrix, per-attack-type detected ratios (Table V), and top-k error curves
// (Fig. 6).
package metrics

import (
	"fmt"

	"icsdetect/internal/dataset"
)

// Confusion is a binary anomaly-detection confusion matrix.
type Confusion struct {
	TP, TN, FP, FN int
}

// Add records one classification: predicted anomaly vs actual anomaly.
func (c *Confusion) Add(predictedAnomaly, actualAnomaly bool) {
	switch {
	case predictedAnomaly && actualAnomaly:
		c.TP++
	case predictedAnomaly && !actualAnomaly:
		c.FP++
	case !predictedAnomaly && actualAnomaly:
		c.FN++
	default:
		c.TN++
	}
}

// Total returns the number of recorded classifications.
func (c *Confusion) Total() int { return c.TP + c.TN + c.FP + c.FN }

// Precision returns TP/(TP+FP), the probability a detected anomaly is real.
func (c *Confusion) Precision() float64 {
	if c.TP+c.FP == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FP)
}

// Recall returns TP/(TP+FN), the fraction of anomalies identified.
func (c *Confusion) Recall() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Accuracy returns (TP+TN)/total.
func (c *Confusion) Accuracy() float64 {
	if c.Total() == 0 {
		return 0
	}
	return float64(c.TP+c.TN) / float64(c.Total())
}

// F1 returns the harmonic mean of precision and recall.
func (c *Confusion) F1() float64 {
	p, r := c.Precision(), c.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Summary bundles the four reported metrics.
type Summary struct {
	Precision, Recall, Accuracy, F1 float64
}

// Summarize extracts the four metrics from a confusion matrix.
func Summarize(c *Confusion) Summary {
	return Summary{
		Precision: c.Precision(),
		Recall:    c.Recall(),
		Accuracy:  c.Accuracy(),
		F1:        c.F1(),
	}
}

// String formats the summary like the paper's tables.
func (s Summary) String() string {
	return fmt.Sprintf("precision=%.2f recall=%.2f accuracy=%.2f f1=%.2f",
		s.Precision, s.Recall, s.Accuracy, s.F1)
}

// PerAttack accumulates the detected ratio (recall) per attack type
// (Table V).
type PerAttack struct {
	Detected map[dataset.AttackType]int
	Total    map[dataset.AttackType]int
}

// NewPerAttack allocates the accumulator.
func NewPerAttack() *PerAttack {
	return &PerAttack{
		Detected: make(map[dataset.AttackType]int),
		Total:    make(map[dataset.AttackType]int),
	}
}

// Add records one attack package and whether it was detected. Normal
// packages are ignored.
func (p *PerAttack) Add(label dataset.AttackType, detected bool) {
	if label == dataset.Normal {
		return
	}
	p.Total[label]++
	if detected {
		p.Detected[label]++
	}
}

// Ratio returns the detected ratio for one attack type (0 when unseen).
func (p *PerAttack) Ratio(label dataset.AttackType) float64 {
	if p.Total[label] == 0 {
		return 0
	}
	return float64(p.Detected[label]) / float64(p.Total[label])
}

// DetectionLatency accumulates per-attack-type detection latency over
// attack episodes: an episode is one contiguous run of packages carrying
// the same attack label, and its latency is the time from the episode's
// first package to the first package of the episode the detector flagged.
// Undetected episodes contribute to the episode count but not to the
// latency moments, so MeanLatency answers "when we catch this attack, how
// fast" and DetectionRate answers "how often do we catch it at all" — the
// replay harness reports both side by side.
type DetectionLatency struct {
	Episodes map[dataset.AttackType]int
	Detected map[dataset.AttackType]int
	// TotalSeconds and MaxSeconds aggregate the latency of detected
	// episodes only.
	TotalSeconds map[dataset.AttackType]float64
	MaxSeconds   map[dataset.AttackType]float64
}

// NewDetectionLatency allocates the accumulator.
func NewDetectionLatency() *DetectionLatency {
	return &DetectionLatency{
		Episodes:     make(map[dataset.AttackType]int),
		Detected:     make(map[dataset.AttackType]int),
		TotalSeconds: make(map[dataset.AttackType]float64),
		MaxSeconds:   make(map[dataset.AttackType]float64),
	}
}

// AddEpisode records one completed attack episode: whether it was detected
// and, if so, the detection latency in seconds (ignored otherwise; a
// negative latency is clamped to zero). Normal "episodes" are ignored.
func (l *DetectionLatency) AddEpisode(label dataset.AttackType, detected bool, latencySeconds float64) {
	if label == dataset.Normal {
		return
	}
	l.Episodes[label]++
	if !detected {
		return
	}
	l.Detected[label]++
	if latencySeconds < 0 {
		latencySeconds = 0
	}
	l.TotalSeconds[label] += latencySeconds
	if latencySeconds > l.MaxSeconds[label] {
		l.MaxSeconds[label] = latencySeconds
	}
}

// DetectionRate returns the fraction of episodes of the given type that
// were detected (0 when none were recorded).
func (l *DetectionLatency) DetectionRate(label dataset.AttackType) float64 {
	if l.Episodes[label] == 0 {
		return 0
	}
	return float64(l.Detected[label]) / float64(l.Episodes[label])
}

// MeanLatency returns the mean detection latency in seconds over the
// detected episodes of the given type (0 when none were detected).
func (l *DetectionLatency) MeanLatency(label dataset.AttackType) float64 {
	if l.Detected[label] == 0 {
		return 0
	}
	return l.TotalSeconds[label] / float64(l.Detected[label])
}

// TopKCurve is the top-k error as a function of k (Fig. 6): Err[k-1] is the
// fraction of predictions whose true class was outside the k most probable
// classes.
type TopKCurve struct {
	Err []float64
}

// NewTopKCurve builds a curve from per-prediction ranks: rank[i] is the
// 0-based position of the true class in the sorted prediction (or >= maxK
// if beyond). maxK bounds the curve length.
func NewTopKCurve(ranks []int, maxK int) *TopKCurve {
	curve := &TopKCurve{Err: make([]float64, maxK)}
	if len(ranks) == 0 {
		return curve
	}
	for k := 1; k <= maxK; k++ {
		misses := 0
		for _, r := range ranks {
			if r >= k {
				misses++
			}
		}
		curve.Err[k-1] = float64(misses) / float64(len(ranks))
	}
	return curve
}

// MinKBelow returns the smallest k with Err[k-1] < theta, implementing the
// paper's k-selection rule argmin_k errk < θ. It returns len(Err)+1 when no
// k qualifies, and an error for a non-positive theta.
func (c *TopKCurve) MinKBelow(theta float64) (int, error) {
	if theta <= 0 {
		return 0, fmt.Errorf("metrics: theta must be positive, got %g", theta)
	}
	for k := 1; k <= len(c.Err); k++ {
		if c.Err[k-1] < theta {
			return k, nil
		}
	}
	return len(c.Err) + 1, nil
}
