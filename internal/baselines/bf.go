package baselines

import (
	"strings"

	"icsdetect/internal/bloom"
	"icsdetect/internal/signature"
)

// Scorer assigns an anomaly score to a window; higher means more anomalous.
// A window is classified anomalous when the score exceeds a threshold tuned
// by TuneThreshold.
type Scorer interface {
	Name() string
	Score(w *Window) float64
}

// BF is the 4-package Bloom filter baseline: the concatenated signatures of
// a command-response cycle form one composite signature stored in a Bloom
// filter ("the Bloom filter used here is different than the one we used for
// package level anomaly detector", §VIII-C).
type BF struct {
	filter *bloom.Filter
}

var _ DiscreteScorer = (*BF)(nil)

// NewBF builds the filter over the training windows.
func NewBF(train []*Window, fp float64) (*BF, error) {
	f, err := bloom.NewWithEstimates(uint64(len(train)+1), fp)
	if err != nil {
		return nil, err
	}
	for _, w := range train {
		f.AddString(compositeSig(w))
	}
	return &BF{filter: f}, nil
}

func compositeSig(w *Window) string {
	return strings.Join(w.Sigs, "|")
}

// Name implements Scorer.
func (b *BF) Name() string { return "BF" }

// Score returns 1 for windows whose composite signature is unknown.
func (b *BF) Score(w *Window) float64 {
	return b.scoreKey([]byte(compositeSig(w)))
}

// ScoreDiscrete implements DiscreteScorer: the composite signature is
// spelled from the discretized vectors into key, byte for byte what
// compositeSig joins from Window.Sigs.
func (b *BF) ScoreDiscrete(c []int, key []byte) (float64, []byte) {
	dim := len(c) / WindowSize
	key = key[:0]
	for i := 0; i < WindowSize; i++ {
		if i > 0 {
			key = append(key, '|')
		}
		key = signature.AppendSignature(key, c[i*dim:(i+1)*dim])
	}
	return b.scoreKey(key), key
}

// scoreKey is the one scoring rule: a composite signature the filter has
// not seen scores 1. Filter.Contains hashes the same FNV bits as the
// AddString that inserted the training windows.
func (b *BF) scoreKey(key []byte) float64 {
	if b.filter.Contains(key) {
		return 0
	}
	return 1
}
