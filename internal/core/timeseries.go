package core

import (
	"fmt"
	"slices"

	"icsdetect/internal/dataset"
	"icsdetect/internal/metrics"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
)

// TimeSeriesDetector is the time-series level anomaly detector F_t (§V): a
// stacked LSTM softmax classifier predicting the next package's signature;
// a package is anomalous iff its signature is outside the top-k predicted
// set S(k).
type TimeSeriesDetector struct {
	Model *nn.Classifier
	K     int
}

// rankOf returns the 0-based rank of class in probs: the number of classes
// with strictly greater probability, ties broken toward earlier indices so
// the rank is deterministic. A package passes F_t iff rank < k.
func rankOf(probs []float64, class int) int {
	p := probs[class]
	rank := 0
	for i, v := range probs {
		if v > p || (v == p && i < class) {
			rank++
		}
	}
	return rank
}

// BuildSequences converts attack-free fragments into training sequences:
// Inputs[t] encodes package t of the fragment (optionally noise-corrupted),
// Targets[t] is the class of package t+1's signature. The final package of
// each fragment has no target.
//
// noise may be nil to train without probabilistic noise (the paper's
// ablation in Fig. 6/7).
func BuildSequences(enc *signature.Encoder, ienc *InputEncoder, db *signature.DB,
	frags []dataset.Fragment, noise *NoiseInjector) []nn.Sequence {
	seqs := make([]nn.Sequence, 0, len(frags))
	for _, frag := range frags {
		if len(frag) < 2 {
			continue
		}
		cs := enc.EncodeFragment(frag)
		seq := nn.Sequence{
			Inputs:  make([][]float64, len(frag)-1),
			Targets: make([]int, len(frag)-1),
		}
		for t := 0; t < len(frag)-1; t++ {
			c := cs[t]
			noisy := false
			if noise != nil {
				c, noisy = noise.Apply(c, signature.Signature(cs[t]))
			}
			seq.Inputs[t] = ienc.Encode(c, noisy)
			nextSig := signature.Signature(cs[t+1])
			if class, ok := db.ClassOf(nextSig); ok {
				seq.Targets[t] = class
			} else {
				seq.Targets[t] = -1 // unseen target (cannot happen on train data)
			}
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

// topKGroup is the widest group of fragments TopKRanks steps together:
// the engine's default micro-batch width.
const topKGroup = 64

// TopKRanks runs the model statefully over attack-free fragments and
// returns the rank of every true next-signature, the raw material for the
// top-k error curve err_k (§V-A-2), fragment by fragment and package by
// package; fragments shorter than two packages have no prediction to rank.
// Ranks are computed over raw logits, exactly as the deployed detector
// ranks them (SeriesStage), so the calibrated k and the runtime top-k
// boundary always agree.
//
// The fragments are independent, so they run lock-step, longest first, in
// groups of up to topKGroup, each on its own state, through the batched
// one-hot step the engine runs; a group's active set shrinks as its
// fragments end. The batched step is bitwise identical to the sequential
// StepLogitsOneHot, so the ranks are those of a fragment-at-a-time pass.
func (d *TimeSeriesDetector) TopKRanks(enc *signature.Encoder, ienc *InputEncoder,
	db *signature.DB, frags []dataset.Fragment) []int {
	type run struct {
		frag dataset.Fragment
		off  int // where the fragment's ranks start
	}
	var runs []run
	total := 0
	for _, frag := range frags {
		if len(frag) >= 2 {
			runs = append(runs, run{frag, total})
			total += len(frag) - 1
		}
	}
	// Longest first: a group's fragments end together, and its active set
	// is always a prefix of the group.
	slices.SortStableFunc(runs, func(a, b run) int { return len(b.frag) - len(a.frag) })

	ranks := make([]int, total)
	width := min(len(runs), topKGroup)
	m := d.Model
	buf := m.NewBatchBuffer(width)
	cs := make([][][]int, width)
	states := make([]*nn.State, width)
	scores := make([][]float64, width)
	idxs := make([][]int, width)
	for i := range states {
		states[i] = m.NewState()
		scores[i] = make([]float64, m.Classes())
		idxs[i] = make([]int, 0, len(ienc.Buckets)+1)
	}
	for g := 0; g < len(runs); g += width {
		group := runs[g:min(g+width, len(runs))]
		for i, r := range group {
			cs[i] = enc.EncodeFragment(r.frag)
			states[i].Reset()
		}
		for t, n := 0, len(group); ; t++ {
			for n > 0 && len(group[n-1].frag) <= t+1 {
				n--
			}
			if n == 0 {
				break
			}
			for i := range group[:n] {
				// Same one-hot fast path as the deployed SeriesStage — the
				// calibration ranks the exact bits the runtime will.
				idxs[i] = ienc.EncodeSparse(idxs[i], cs[i][t], false)
			}
			m.StepBatchLogitsOneHot(buf, states[:n], idxs[:n], scores[:n])
			for i, r := range group[:n] {
				// A signature absent from the database can never be in
				// S(k): it ranks beyond any k.
				rank := m.Classes()
				if class, ok := db.ClassOf(signature.Signature(cs[i][t+1])); ok {
					rank = rankOf(scores[i], class)
				}
				ranks[r.off+t] = rank
			}
		}
	}
	return ranks
}

// SelectK evaluates the top-k error curve on validation fragments and picks
// the minimal k with err_k < theta (§V-A-2). maxK bounds the curve.
func (d *TimeSeriesDetector) SelectK(enc *signature.Encoder, ienc *InputEncoder,
	db *signature.DB, validation []dataset.Fragment, theta float64, maxK int) (*metrics.TopKCurve, int, error) {
	if maxK < 1 {
		return nil, 0, fmt.Errorf("core: maxK must be >= 1, got %d", maxK)
	}
	ranks := d.TopKRanks(enc, ienc, db, validation)
	curve := metrics.NewTopKCurve(ranks, maxK)
	k, err := curve.MinKBelow(theta)
	if err != nil {
		return nil, 0, err
	}
	if k > maxK {
		// No k satisfies θ on this validation set; use the best available
		// and report it via the curve so callers can inspect.
		k = maxK
	}
	return curve, k, nil
}
