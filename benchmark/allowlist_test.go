package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// denied are the names the benchmark must never reach for: everything it
// imports is API that later simplification PRs have to keep compiling, so it
// stays on the surface ROADMAP item 2 keeps (StackSpec, NewStackSession,
// Session.Classify/ClassifyOnly/Advance, engine.New/SubmitBatchFor/Barrier/
// Stats/Stop, serve.New/Listen*/Stats/Shutdown/Replay/DialLive/Subscribe, the
// trace reader/decoder/recorder, one-hot nn steps) and off what that item
// deletes or moves to test-only code.
var denied = map[string]string{
	"Mode":                  "the legacy core.Mode API (use StackSpec)",
	"NewSessionMode":        "the legacy core.Mode API (use NewStackSession)",
	"SpecForMode":           "the legacy core.Mode API (use ParseStackSpec)",
	"IngestBurst":           "the per-package serve path knob",
	"Submit":                "a non-For submit variant (use SubmitBatchFor)",
	"SubmitFor":             "a per-package submit variant (use SubmitBatchFor)",
	"SubmitBatch":           "a non-For submit variant (use SubmitBatchFor)",
	"TrySubmit":             "a Try submit variant",
	"TrySubmitFor":          "a Try submit variant",
	"TrySubmitBatch":        "a Try submit variant",
	"TrySubmitBatchFor":     "a Try submit variant",
	"Step":                  "a dense LSTM step (use the one-hot steps)",
	"StepLogits":            "a dense LSTM step (use StepLogitsOneHot)",
	"StepBatch":             "a dense LSTM step (use StepBatchLogitsOneHot)",
	"StepBatchLogits":       "a dense LSTM step (use StepBatchLogitsOneHot)",
	"TrainerReference":      "the reference trainer",
	"SetSIMDEnabled":        "a kernel-tier override",
	"SetAVX512Enabled":      "a kernel-tier override",
	"ResolveStackFlags":     "the legacy -mode flag resolver",
	"ParseModeName":         "the legacy core.Mode API",
	"NewDynamicSession":     "a session kind outside the kept surface",
	"DefaultDynamicKConfig": "a session kind outside the kept surface",
}

// TestAllowList parses the benchmark's own files and fails on any selector
// or composite-literal key on the deny list.
func TestAllowList(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	files := 0
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, e.Name(), nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files++
		ast.Inspect(f, func(n ast.Node) bool {
			var id *ast.Ident
			switch x := n.(type) {
			case *ast.SelectorExpr:
				id = x.Sel
			case *ast.KeyValueExpr:
				id, _ = x.Key.(*ast.Ident)
			}
			if id != nil {
				if why, bad := denied[id.Name]; bad {
					t.Errorf("%s: %s is %s", fset.Position(id.Pos()), id.Name, why)
				}
			}
			return true
		})
	}
	if files == 0 {
		t.Fatal("no benchmark source files found")
	}
}
