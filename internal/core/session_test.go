package core_test

import (
	"testing"

	"icsdetect/internal/core"
	"icsdetect/internal/dataset"
)

// The paper's framework and its §VIII single-level ablations, as stacks.
var (
	combinedSpec = core.DefaultStackSpec()
	packageSpec  = core.StackSpec{Stages: []core.StageSpec{{Kind: core.StageBloom}}}
	seriesSpec   = core.StackSpec{Stages: []core.StageSpec{{Kind: core.StageLSTM}}}
)

func newSession(t *testing.T, fw *core.Framework, spec core.StackSpec) *core.Session {
	t.Helper()
	sess, err := fw.NewStackSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sess
}

func evaluate(t *testing.T, fw *core.Framework, test []*dataset.Package, spec core.StackSpec) *core.Evaluation {
	t.Helper()
	eval, err := fw.Evaluate(test, spec)
	if err != nil {
		t.Fatal(err)
	}
	return eval
}

func TestSessionBehaviour(t *testing.T) {
	if testing.Short() {
		t.Skip("session test uses the trained integration fixture")
	}
	fw, _, split := trainSmallFramework(t, true)

	t.Run("ResetReproducesVerdicts", func(t *testing.T) {
		sess := fw.NewSession()
		first := make([]bool, 0, 200)
		for _, p := range split.Test[:200] {
			first = append(first, sess.Classify(p).Anomaly)
		}
		sess.Reset()
		for i, p := range split.Test[:200] {
			if got := sess.Classify(p).Anomaly; got != first[i] {
				t.Fatalf("verdict %d changed after reset", i)
			}
		}
	})

	t.Run("ResetMatchesFreshSession", func(t *testing.T) {
		// A reused session must be indistinguishable from a fresh one:
		// every field of every verdict, not just the anomaly bit.
		for _, spec := range []core.StackSpec{combinedSpec, packageSpec, seriesSpec} {
			reused := newSession(t, fw, spec)
			for _, p := range split.Test[:150] {
				reused.Classify(p)
			}
			reused.Reset()
			fresh := newSession(t, fw, spec)
			for i, p := range split.Test[:150] {
				got, want := reused.Classify(p), fresh.Classify(p)
				if !got.Equal(want) {
					t.Fatalf("stack %s verdict %d: reset session %+v, fresh session %+v",
						spec, i, got, want)
				}
			}
		}
	})

	t.Run("FirstPackageNeverSeriesFlagged", func(t *testing.T) {
		sess := fw.NewSession()
		v := sess.Classify(split.Test[0])
		if v.Level == core.LevelTimeSeries {
			t.Error("time-series level fired without any history")
		}
		if v.Rank != -1 && v.Level == core.LevelPackage {
			t.Error("package-level verdict carries a rank")
		}
	})

	t.Run("ModesAreConsistent", func(t *testing.T) {
		pkgEval := evaluate(t, fw, split.Test, packageSpec)
		combEval := evaluate(t, fw, split.Test, combinedSpec)
		// The combined framework flags everything the package level flags
		// (Fig. 3: the Bloom filter is checked first and short-circuits).
		if combEval.Confusion.TP+combEval.Confusion.FP <
			pkgEval.Confusion.TP+pkgEval.Confusion.FP {
			t.Errorf("combined raised fewer alerts (%d) than package level alone (%d)",
				combEval.Confusion.TP+combEval.Confusion.FP,
				pkgEval.Confusion.TP+pkgEval.Confusion.FP)
		}
		// Level attribution matches the stack.
		if pkgEval.ByLevel[core.LevelTimeSeries] != 0 {
			t.Error("package-only stack attributed detections to the series level")
		}
		serEval := evaluate(t, fw, split.Test, seriesSpec)
		if serEval.ByLevel[core.LevelPackage] != 0 {
			t.Error("series-only stack attributed detections to the package level")
		}
	})

	t.Run("PackageOnlyAblationPath", func(t *testing.T) {
		// The package-only pipeline never consults the LSTM: no
		// time-series levels, no ranks, and identical verdicts to the
		// combined pipeline's package level on the same stream.
		pkgOnly := newSession(t, fw, packageSpec)
		combined := newSession(t, fw, combinedSpec)
		for i, p := range split.Test[:300] {
			pv, cv := pkgOnly.Classify(p), combined.Classify(p)
			if pv.Level == core.LevelTimeSeries {
				t.Fatal("package-only session produced a time-series verdict")
			}
			if pv.Rank != -1 {
				t.Fatalf("package-only verdict %d carries rank %d", i, pv.Rank)
			}
			if pv.Anomaly != (cv.Anomaly && cv.Level == core.LevelPackage) {
				t.Fatalf("package %d: package-only anomaly=%v, combined %+v", i, pv.Anomaly, cv)
			}
		}
	})

	t.Run("SeriesOnlyAblationPath", func(t *testing.T) {
		// The series-only pipeline never fires the Bloom level, still
		// never scores the first package, and ranks every scored package
		// whose signature is in the database.
		sess := newSession(t, fw, seriesSpec)
		for i, p := range split.Test[:300] {
			v := sess.Classify(p)
			if v.Level == core.LevelPackage {
				t.Fatal("series-only session produced a package-level verdict")
			}
			if i == 0 {
				if v.Anomaly {
					t.Fatal("series-only session flagged the first package of the stream")
				}
				continue
			}
			if _, known := fw.DB.ClassOf(v.Signature); known && v.Rank < 0 {
				t.Fatalf("package %d: known signature not ranked: %+v", i, v)
			}
		}
	})

	t.Run("StagePipelinesPerMode", func(t *testing.T) {
		cases := []struct {
			spec   core.StackSpec
			levels []core.Level
		}{
			{combinedSpec, []core.Level{core.LevelPackage, core.LevelTimeSeries}},
			{packageSpec, []core.Level{core.LevelPackage}},
			{seriesSpec, []core.Level{core.LevelTimeSeries}},
		}
		for _, c := range cases {
			st, err := fw.NewStack(c.spec)
			if err != nil {
				t.Fatalf("NewStack(%s): %v", c.spec, err)
			}
			stages := st.Stages()
			if len(stages) != len(c.levels) {
				t.Fatalf("stack %s has %d stages, want %d", c.spec, len(stages), len(c.levels))
			}
			for i, stage := range stages {
				if stage.Level() != c.levels[i] {
					t.Errorf("stack %s stage %d level = %v, want %v", c.spec, i, stage.Level(), c.levels[i])
				}
				if stage.Name() == "" {
					t.Errorf("stack %s stage %d has no name", c.spec, i)
				}
			}
		}
		if _, err := fw.NewStack(core.StackSpec{Stages: []core.StageSpec{{Kind: "no-such-level"}}}); err == nil {
			t.Error("NewStack accepted an unknown level")
		}
	})

	t.Run("ReuseEvidencePooling", func(t *testing.T) {
		// Opting into evidence reuse must change only the slice's identity,
		// never its contents: verdicts match a fresh-slice session field for
		// field, and the pooled session hands out the same backing buffer
		// every package.
		spec := core.DefaultStackSpec()
		spec.RecordEvidence = true
		pooled, err := fw.NewStackSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		pooled.ReuseEvidence(true)
		fresh, err := fw.NewStackSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		var prevBuf *core.LevelEvidence
		for i, p := range split.Test[:300] {
			pv, fv := pooled.Classify(p), fresh.Classify(p)
			if !pv.Equal(fv) {
				t.Fatalf("package %d: pooled verdict %+v, fresh %+v", i, pv, fv)
			}
			if len(pv.Evidence) == 0 {
				t.Fatalf("package %d: evidence-recording stack produced no evidence", i)
			}
			if prevBuf != nil && prevBuf != &pv.Evidence[0] {
				t.Fatalf("package %d: pooled session allocated a new evidence buffer", i)
			}
			prevBuf = &pv.Evidence[0]
		}
	})

	t.Run("F32SessionResetMatchesFresh", func(t *testing.T) {
		// The f32 tier honors the same session contract as f64: a reset
		// session is indistinguishable from a fresh one.
		spec := core.DefaultStackSpec()
		spec.Precision = core.PrecisionF32
		reused, err := fw.NewStackSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range split.Test[:150] {
			reused.Classify(p)
		}
		reused.Reset()
		freshSess, err := fw.NewStackSession(spec)
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range split.Test[:150] {
			got, want := reused.Classify(p), freshSess.Classify(p)
			if !got.Equal(want) {
				t.Fatalf("f32 verdict %d: reset session %+v, fresh session %+v", i, got, want)
			}
		}
	})

	t.Run("MFCISignaturesCaughtAtPackageLevel", func(t *testing.T) {
		sess := fw.NewSession()
		for _, p := range split.Test {
			v := sess.Classify(p)
			if p.Label == dataset.MFCI && v.Anomaly && v.Level != core.LevelPackage {
				// Not fatal — but MFCI function codes are not in the
				// signature DB, so the Bloom level should claim them.
				t.Errorf("MFCI package detected at %v level", v.Level)
			}
		}
	})
}

func TestEndToEndNoNoiseAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test skipped in -short mode")
	}
	fw, report, split := trainSmallFramework(t, false)
	eval := evaluate(t, fw, split.Test, combinedSpec)
	t.Logf("no-noise: %v k=%d", eval.Summary, report.ChosenK)
	if eval.Summary.F1 < 0.4 {
		t.Errorf("no-noise framework F1 = %.3f, want >= 0.4", eval.Summary.F1)
	}
}
