package icsdetect_test

import (
	"bytes"
	"sync"
	"testing"

	"icsdetect"
)

func TestFacadeQuickPath(t *testing.T) {
	if testing.Short() {
		t.Skip("facade integration skipped in -short mode")
	}
	ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{Packages: 5000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() < 5000 {
		t.Fatalf("generated %d packages", ds.Len())
	}

	// ARFF round trip through the facade.
	var buf bytes.Buffer
	if err := icsdetect.WriteDatasetARFF(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := icsdetect.ReadDatasetARFF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != ds.Len() {
		t.Fatalf("ARFF round trip: %d vs %d", back.Len(), ds.Len())
	}

	split, err := icsdetect.Split(ds)
	if err != nil {
		t.Fatal(err)
	}
	opts := icsdetect.DefaultTrainOptions()
	opts.Granularity = icsdetect.Granularity{
		IntervalClusters: 2, CRCClusters: 2,
		PressureBins: 5, SetpointBins: 3, PIDClusters: 2,
	}
	opts.Hidden = []int{16, 16}
	opts.Fit.Epochs = 4
	opts.Fit.BatchSize = 4
	det, report, err := icsdetect.Train(split, opts)
	if err != nil {
		t.Fatal(err)
	}
	if report.Signatures == 0 {
		t.Fatal("empty signature database")
	}

	sess := det.NewSession()
	alerts := 0
	for _, p := range split.Test {
		if sess.Classify(p).Anomaly {
			alerts++
		}
	}
	if alerts == 0 {
		t.Error("no alerts on a test set full of attacks")
	}

	// The concurrent engine through the facade: same stream, same verdicts.
	var engineAlerts int
	var mu sync.Mutex
	eng, err := icsdetect.NewEngine(det, icsdetect.EngineConfig{Shards: 2},
		func(r icsdetect.EngineResult) {
			if r.Verdict.Anomaly {
				mu.Lock()
				engineAlerts++
				mu.Unlock()
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range split.Test {
		if err := eng.SubmitBatchFor(nil, "link", []*icsdetect.Package{p}); err != nil {
			t.Fatal(err)
		}
	}
	eng.Stop()
	st := eng.Stats()
	if st.Packages != uint64(len(split.Test)) {
		t.Errorf("engine classified %d of %d packages", st.Packages, len(split.Test))
	}
	if engineAlerts != alerts {
		t.Errorf("engine raised %d alerts, sequential session %d", engineAlerts, alerts)
	}

	var model bytes.Buffer
	if err := det.Save(&model); err != nil {
		t.Fatal(err)
	}
	if _, err := icsdetect.Load(&model); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateNormalOption(t *testing.T) {
	ds, err := icsdetect.GenerateDataset(icsdetect.DatasetOptions{
		Packages: 1000, Seed: 3, AttackRatio: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ds.Packages {
		if p.IsAttack() {
			t.Fatal("attack in normal-only capture")
		}
	}
}
