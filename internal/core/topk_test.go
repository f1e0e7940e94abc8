package core

import (
	"slices"
	"testing"

	"icsdetect/internal/dataset"
	"icsdetect/internal/gaspipeline"
	"icsdetect/internal/mathx"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
)

// topKRanksSequential is the oracle of TopKRanks: one fragment at a time,
// one package at a time, through the sequential one-hot step.
func topKRanksSequential(d *TimeSeriesDetector, enc *signature.Encoder, ienc *InputEncoder,
	db *signature.DB, frags []dataset.Fragment) []int {
	var ranks []int
	scores := make([]float64, d.Model.Classes())
	xi := make([]int, 0, len(ienc.Buckets)+1)
	for _, frag := range frags {
		if len(frag) < 2 {
			continue
		}
		state := d.Model.NewState()
		cs := enc.EncodeFragment(frag)
		for t := 0; t < len(frag)-1; t++ {
			xi = ienc.EncodeSparse(xi, cs[t], false)
			d.Model.StepLogitsOneHot(state, xi, scores)
			class, ok := db.ClassOf(signature.Signature(cs[t+1]))
			if !ok {
				ranks = append(ranks, d.Model.Classes())
				continue
			}
			ranks = append(ranks, rankOf(scores, class))
		}
	}
	return ranks
}

// TestTopKRanksMatchesSequential runs the lock-step TopKRanks over the
// fragments of an attack-laden split — dozens of unequal lengths, more
// than one group of them, plus fragments too short to rank — and requires
// every rank to equal the oracle's, on every kernel tier.
func TestTopKRanksMatchesSequential(t *testing.T) {
	ds, err := gaspipeline.Generate(gaspipeline.DefaultGenConfig(30000, 7))
	if err != nil {
		t.Fatal(err)
	}
	split, err := dataset.MakeSplit(ds, dataset.SplitConfig{})
	if err != nil {
		t.Fatal(err)
	}
	gran := signature.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
	}
	enc, err := signature.FitEncoder(split.Train, gran, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := signature.BuildDB(enc, split.Train)
	ienc := NewInputEncoder(enc)
	model, err := nn.NewClassifier(ienc.Dim, []int{24, 16}, db.Size(), 3)
	if err != nil {
		t.Fatal(err)
	}
	det := &TimeSeriesDetector{Model: model, K: 1}

	// The split drops fragments shorter than ten packages, so two short
	// ones are spliced in, each shifting every later fragment's ranks.
	frags := append([]dataset.Fragment(nil), split.Validation...)
	if len(frags) <= topKGroup {
		t.Fatalf("split has %d validation fragments, want more than %d", len(frags), topKGroup)
	}
	frags = slices.Insert(frags, 5, frags[5][:1])
	frags = slices.Insert(frags, topKGroup-1, dataset.Fragment{})
	lens := map[int]bool{}
	for _, f := range frags {
		lens[len(f)] = true
	}
	if len(lens) < 12 {
		t.Fatalf("only %d distinct fragment lengths", len(lens))
	}

	check := func(t *testing.T) {
		want := topKRanksSequential(det, enc, ienc, db, frags)
		got := det.TopKRanks(enc, ienc, db, frags)
		t.Logf("%d fragments, %d ranks", len(frags), len(want))
		if len(got) != len(want) {
			t.Fatalf("%d ranks, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("rank %d = %d, want %d", i, got[i], want[i])
			}
		}
	}
	t.Run("simd", check)
	t.Run("scalar", func(t *testing.T) {
		prev := mathx.SetSIMDEnabled(false)
		defer mathx.SetSIMDEnabled(prev)
		check(t)
	})
}
