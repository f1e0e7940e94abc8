package core_test

import (
	"testing"

	"icsdetect/internal/core"
)

// TestDynamicKConfigValidation: the controller config the lstm-dynamic
// level derives from a trained k is always usable — k bounds that contain
// the trained k and never drop below 1, a target rate inside (0, 1), and
// a window long enough to estimate it.
func TestDynamicKConfigValidation(t *testing.T) {
	for _, k := range []int{1, 2, 3, 4, 10} {
		cfg := core.DefaultDynamicKConfig(k)
		if cfg.MinK < 1 || cfg.MinK > k || cfg.MaxK <= k {
			t.Errorf("k=%d: bounds [%d, %d] do not bracket it", k, cfg.MinK, cfg.MaxK)
		}
		if cfg.TargetRate <= 0 || cfg.TargetRate >= 1 {
			t.Errorf("k=%d: target rate %g outside (0, 1)", k, cfg.TargetRate)
		}
		if cfg.Window < 10 {
			t.Errorf("k=%d: window %d too small", k, cfg.Window)
		}
	}
}

func TestDynamicSession(t *testing.T) {
	if testing.Short() {
		t.Skip("dynamic session test uses the trained integration fixture")
	}
	fw, report, split := trainSmallFramework(t, true)

	sess, err := fw.NewStackSession(core.StackSpec{
		Stages: []core.StageSpec{{Kind: core.StageBloom}, {Kind: core.StageLSTMDynamic}},
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultDynamicKConfig(report.ChosenK)
	if k := core.DynamicK(sess); k != report.ChosenK {
		t.Fatalf("initial k = %d, want %d", k, report.ChosenK)
	}

	var alerts int
	for _, p := range split.Test {
		if sess.Classify(p).Anomaly {
			alerts++
		}
		if k := core.DynamicK(sess); k < cfg.MinK || k > cfg.MaxK {
			t.Fatalf("adaptive k %d escaped [%d, %d]", k, cfg.MinK, cfg.MaxK)
		}
	}
	if alerts == 0 {
		t.Error("dynamic session raised no alerts on attack-laden traffic")
	}
	// The trained framework's k must be untouched afterwards.
	if fw.Series.K != report.ChosenK {
		t.Errorf("dynamic session leaked k=%d into the framework", fw.Series.K)
	}
}
