package icsdetect_test

import (
	"bytes"
	"os"
	"testing"

	"icsdetect/internal/baselines"
	"icsdetect/internal/core"
	"icsdetect/internal/mathx"
	"icsdetect/internal/nn"
	"icsdetect/internal/recon"
)

// TestLoadRejectsMisshapenModels: a framework whose tensors disagree with
// their declared shapes, or whose window levels carry a standardizer of
// the wrong length, must fail to load rather than panic on first use —
// /swap hands core.Load bytes from the network. Each case starts from the
// committed model, which must itself still load and round-trip.
func TestLoadRejectsMisshapenModels(t *testing.T) {
	base := func(t *testing.T) *core.Framework {
		f, err := os.Open("testdata/traces/model.fw")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		fw, err := core.Load(f)
		if err != nil {
			t.Fatalf("committed model: %v", err)
		}
		return fw
	}
	std := func(n int) *baselines.Standardizer {
		s := &baselines.Standardizer{Mean: make([]float64, n), Std: make([]float64, n)}
		mathx.Fill(s.Std, 1)
		return s
	}
	ae := func() *nn.AutoEncoder {
		return nn.NewAutoEncoder(baselines.WindowSize, baselines.SampleDim/baselines.WindowSize, 8, 1)
	}
	pca := func(t *testing.T) baselines.Scorer {
		rng := mathx.NewRNG(5)
		data := make([][]float64, 40)
		for i := range data {
			data[i] = make([]float64, baselines.SampleDim)
			for j := range data[i] {
				data[i][j] = rng.Range(-1, 1)
			}
		}
		p, err := baselines.NewPCASVD(data, baselines.PCAConfig{Components: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	roundTrip := func(t *testing.T, fw *core.Framework) error {
		var buf bytes.Buffer
		if err := fw.Save(&buf); err != nil {
			t.Fatal(err)
		}
		_, err := core.Load(&buf)
		return err
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, fw *core.Framework)
	}{
		{"classifier-truncated-U", func(t *testing.T, fw *core.Framework) {
			u := fw.Series.Model.Layers[0].U
			u.Data = u.Data[:3]
		}},
		{"recon-truncated-weights", func(t *testing.T, fw *core.Framework) {
			net := ae()
			net.Enc.U.Data = net.Enc.U.Data[:3]
			fw.Extra = map[string]core.StageModel{"ae": &recon.Model{Std: std(baselines.SampleDim), Threshold: 1, Net: net}}
		}},
		{"recon-short-standardizer", func(t *testing.T, fw *core.Framework) {
			fw.Extra = map[string]core.StageModel{"ae": &recon.Model{Std: std(3), Threshold: 1, Net: ae()}}
		}},
		{"pca-short-standardizer", func(t *testing.T, fw *core.Framework) {
			fw.Extra = map[string]core.StageModel{"pca": &baselines.WindowModel{Std: std(3), Threshold: 1, Scorer: pca(t)}}
		}},
	}
	t.Run("well-formed", func(t *testing.T) {
		fw := base(t)
		fw.Extra = map[string]core.StageModel{
			"ae":  &recon.Model{Std: std(baselines.SampleDim), Threshold: 1, Net: ae()},
			"pca": &baselines.WindowModel{Std: std(baselines.SampleDim), Threshold: 1, Scorer: pca(t)},
		}
		if err := roundTrip(t, fw); err != nil {
			t.Fatalf("well-formed framework rejected: %v", err)
		}
	})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fw := base(t)
			tc.corrupt(t, fw)
			if err := roundTrip(t, fw); err == nil {
				t.Fatal("misshapen framework loaded")
			} else {
				t.Logf("rejected: %v", err)
			}
		})
	}
}
