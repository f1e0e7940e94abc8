package cli

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"icsdetect/internal/core"
)

func TestStackFlags(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string // the resolved spec's String, or "" for an error
		err  string // a substring of the expected error
	}{
		{"default", nil, "bloom,lstm/first-hit", ""},
		{"weighted", []string{"-levels", "bloom,pca:2,lstm", "-fusion", "weighted"}, "bloom,pca:2,lstm/weighted", ""},
		{"fusion-without-levels", []string{"-fusion", "majority"}, "bloom,lstm/majority", ""},
		{"f32", []string{"-levels", "bloom,lstm", "-precision", "f32"}, "bloom,lstm/first-hit/f32", ""},
		{"f32-default-stack", []string{"-precision", "f32"}, "bloom,lstm/first-hit/f32", ""},
		{"f32-f64-only-level", []string{"-levels", "bloom,pca,lstm", "-precision", "f32"}, "", "pca"},
		{"unknown-precision", []string{"-precision", "f16"}, "", "f16"},
		{"unknown-level", []string{"-levels", "bloom,nope"}, "", `unknown level "nope"`},
		{"bad-weight", []string{"-levels", "bloom,pca:-1"}, "", "bad level weight"},
		{"unknown-fusion", []string{"-fusion", "veto"}, "", "unknown fusion"},
		{"list-is-no-level", []string{"-levels", "list"}, "", `unknown level "list"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			stack := StackFlags(fs)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			spec, err := stack.Spec()
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Spec() = %v, %v; want an error containing %q", spec, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := spec.String(); got != tc.want {
				t.Errorf("Spec() = %s, want %s", got, tc.want)
			}
		})
	}
}

func TestStackList(t *testing.T) {
	var out bytes.Buffer
	if (&Stack{Levels: "bloom,lstm"}).List(&out) || out.Len() != 0 {
		t.Fatalf("List printed for a real stack: %q", out.String())
	}
	if !(&Stack{Levels: "list"}).List(&out) {
		t.Fatal("-levels list not handled")
	}
	got := strings.Fields(out.String())
	want := core.StageKinds()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("listed %v, want %v", got, want)
	}
	for _, kind := range []string{"pca", "ae"} {
		if !strings.Contains(out.String(), kind+"\n") {
			t.Errorf("promoted level %s not registered", kind)
		}
	}
}

func TestRequireTrained(t *testing.T) {
	fw := &core.Framework{}
	if err := RequireTrained(fw, core.DefaultStackSpec()); err != nil {
		t.Errorf("built-in stack: %v", err)
	}
	spec, err := core.ParseStackSpec("bloom,pca:2,lstm", "weighted")
	if err != nil {
		t.Fatal(err)
	}
	err = RequireTrained(fw, spec)
	if err == nil || !strings.Contains(err.Error(), "for pca (retrain with icstrain -levels bloom,pca,lstm)") {
		t.Errorf("RequireTrained = %v", err)
	}
}
