// Package cli declares and resolves the detection-stack flags the
// icsdetect tools share: -levels, -fusion and -precision. Importing it also
// registers every promoted level kind, so -levels can name any of them.
package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"icsdetect/internal/core"

	// Register the promoted baseline and reconstruction levels.
	_ "icsdetect/internal/baselines"
	_ "icsdetect/internal/recon"
)

// Stack holds the raw values of the stack flags.
type Stack struct {
	Levels, Fusion, Precision string
}

// StackFlags registers -levels, -fusion and -precision on fs.
func StackFlags(fs *flag.FlagSet) *Stack {
	s := new(Stack)
	fs.StringVar(&s.Levels, "levels", "", "detection stack, e.g. bloom,pca,lstm or bloom:3,pca,lstm:2 (default bloom,lstm; registered: "+
		strings.Join(core.StageKinds(), ", ")+"); \"list\" prints the kinds")
	fs.StringVar(&s.Fusion, "fusion", "", "verdict fusion policy: first-hit (default), majority or weighted")
	fs.StringVar(&s.Precision, "precision", "", "numeric tier: f64 (default) or f32 (float32 SIMD inference)")
	return s
}

// List handles -levels list: it prints the registered level kinds to w,
// one per line, and reports whether it did.
func (s *Stack) List(w io.Writer) bool {
	if s.Levels != "list" {
		return false
	}
	fmt.Fprintln(w, strings.Join(core.StageKinds(), "\n"))
	return true
}

// Spec resolves the flags into a stack spec with its precision validated.
// Empty -levels means the default bloom,lstm stack, under -fusion when it
// is given.
func (s *Stack) Spec() (core.StackSpec, error) {
	spec, err := core.ParseStackSpec(s.Levels, s.Fusion)
	if err != nil {
		return core.StackSpec{}, err
	}
	return spec.WithPrecision(s.Precision)
}

// RequireTrained fails when fw lacks the trained stage models spec needs.
func RequireTrained(fw *core.Framework, spec core.StackSpec) error {
	missing := fw.MissingStages(spec)
	if len(missing) == 0 {
		return nil
	}
	kinds := make([]string, len(spec.Stages))
	for i, ss := range spec.Stages {
		kinds[i] = ss.Kind
	}
	return fmt.Errorf("model has no trained stage models for %s (retrain with icstrain -levels %s)",
		strings.Join(missing, ", "), strings.Join(kinds, ","))
}
