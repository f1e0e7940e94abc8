package core

import (
	"fmt"
	"strconv"
	"strings"

	"icsdetect/internal/dataset"
)

// Fusion is the verdict fusion policy of a detection stack: how the
// per-level Check outcomes combine into one Verdict.
type Fusion int

// Fusion policies.
const (
	// FusionFirstHit is the paper's Fig. 3 policy: levels run in stack
	// order until one flags the package; later levels are short-circuited.
	FusionFirstHit Fusion = iota + 1
	// FusionMajority runs every level and flags the package when a strict
	// majority of the levels that scored it vote anomalous.
	FusionMajority
	// FusionWeighted runs every level and flags the package when the
	// summed weight of anomalous votes exceeds Threshold times the summed
	// weight of scoring levels.
	FusionWeighted
)

// String names the fusion policy as accepted by ParseFusion.
func (f Fusion) String() string {
	switch f {
	case FusionFirstHit:
		return "first-hit"
	case FusionMajority:
		return "majority"
	case FusionWeighted:
		return "weighted"
	default:
		return fmt.Sprintf("Fusion(%d)", int(f))
	}
}

// ParseFusion parses a fusion policy name. The empty string means the
// default first-hit policy.
func ParseFusion(s string) (Fusion, error) {
	switch s {
	case "", "first-hit":
		return FusionFirstHit, nil
	case "majority", "majority-vote":
		return FusionMajority, nil
	case "weighted", "weighted-score":
		return FusionWeighted, nil
	default:
		return 0, fmt.Errorf("core: unknown fusion policy %q (first-hit, majority or weighted)", s)
	}
}

// StageSpec describes one level of a detection stack.
type StageSpec struct {
	// Kind is the registered stage kind ("bloom", "lstm", "pca", …); see
	// RegisterStage and StageKinds.
	Kind string
	// Weight is the level's vote weight under weighted fusion (0 means 1).
	Weight float64
	// Precision is the numeric tier the level runs at. It is filled from
	// the stack-wide StackSpec.Precision when the stack is built; factories
	// read it to pick the kernel tier (zero means f64).
	Precision Precision
}

// StackSpec describes a detection stack: an ordered list of level
// descriptors plus the fusion policy that combines their votes. The zero
// value is not a valid spec; DefaultStackSpec returns the paper's
// two-level framework.
type StackSpec struct {
	// Stages are the levels, checked in order.
	Stages []StageSpec
	// Fusion is the verdict fusion policy (0 means FusionFirstHit).
	Fusion Fusion
	// Threshold tunes weighted fusion: anomalous when the flagged weight
	// exceeds Threshold × the scored weight (0 means 0.5).
	Threshold float64
	// RecordEvidence forces per-level evidence into every Verdict even for
	// stacks whose Level/Rank fields already capture it. Evidence is
	// always recorded for non-first-hit fusion and for stacks with levels
	// beyond the built-in two.
	RecordEvidence bool
	// Precision is the numeric tier the stack's kernel-backed levels run
	// at: PrecisionF64 (the reference, also the zero value) or the opt-in
	// PrecisionF32 inference tier. Every level of an f32 stack must have
	// an f32 path (Validate fails fast otherwise).
	Precision Precision
}

// DefaultStackSpec returns the paper's framework: the Bloom package level
// and the LSTM time-series level under first-hit fusion.
func DefaultStackSpec() StackSpec {
	return StackSpec{
		Stages: []StageSpec{{Kind: StageBloom}, {Kind: StageLSTM}},
		Fusion: FusionFirstHit,
	}
}

// ParseStackSpec parses a stack from a comma-separated level list (each
// "kind" or "kind:weight") and a fusion policy name, the format of the
// command-line -levels / -fusion flags. Empty levels means the default
// two-level stack under the given fusion policy.
func ParseStackSpec(levels, fusion string) (StackSpec, error) {
	f, err := ParseFusion(fusion)
	if err != nil {
		return StackSpec{}, err
	}
	if levels == "" {
		spec := DefaultStackSpec()
		spec.Fusion = f
		return spec, nil
	}
	var spec StackSpec
	spec.Fusion = f
	for _, part := range strings.Split(levels, ",") {
		part = strings.TrimSpace(part)
		ss := StageSpec{Kind: part}
		if kind, w, ok := strings.Cut(part, ":"); ok {
			weight, err := strconv.ParseFloat(w, 64)
			if err != nil || weight <= 0 {
				return StackSpec{}, fmt.Errorf("core: bad level weight %q", part)
			}
			ss = StageSpec{Kind: kind, Weight: weight}
		}
		if _, ok := stageFactory(ss.Kind); !ok {
			return StackSpec{}, fmt.Errorf("core: unknown level %q (registered: %s)",
				ss.Kind, strings.Join(StageKinds(), ", "))
		}
		spec.Stages = append(spec.Stages, ss)
	}
	return spec, spec.Validate()
}

// Validate reports structural spec errors (unknown kinds surface later,
// when the stack is built against a framework).
func (s StackSpec) Validate() error {
	if len(s.Stages) == 0 {
		return fmt.Errorf("core: stack spec has no levels")
	}
	switch s.Fusion {
	case 0, FusionFirstHit, FusionMajority, FusionWeighted:
	default:
		return fmt.Errorf("core: unknown fusion policy %d", int(s.Fusion))
	}
	if s.Threshold < 0 {
		// A negative threshold would flag packages with zero anomalous
		// votes (Anomaly true, Level none) — never a coherent verdict.
		return fmt.Errorf("core: negative fusion threshold %g", s.Threshold)
	}
	for _, ss := range s.Stages {
		if ss.Kind == "" {
			return fmt.Errorf("core: stack spec has an unnamed level")
		}
		if ss.Weight < 0 {
			return fmt.Errorf("core: level %s has negative weight %g", ss.Kind, ss.Weight)
		}
	}
	return s.validatePrecision()
}

// String renders the spec in the -levels/-fusion flag syntax.
func (s StackSpec) String() string {
	var b strings.Builder
	for i, ss := range s.Stages {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(ss.Kind)
		if ss.Weight != 0 && ss.Weight != 1 {
			fmt.Fprintf(&b, ":%g", ss.Weight)
		}
	}
	b.WriteByte('/')
	b.WriteString(s.fusion().String())
	if s.precision() != PrecisionF64 {
		b.WriteByte('/')
		b.WriteString(s.precision().String())
	}
	return b.String()
}

func (s StackSpec) fusion() Fusion {
	if s.Fusion == 0 {
		return FusionFirstHit
	}
	return s.Fusion
}

func (s StackSpec) threshold() float64 {
	if s.Threshold == 0 {
		return 0.5
	}
	return s.Threshold
}

// builtin reports whether a stage kind belongs to the paper's original
// two-level framework, whose verdicts are fully described by the v1
// Level/Rank fields.
func builtinKind(kind string) bool { return kind == StageBloom || kind == StageLSTM }

// recordEvidence decides whether sessions over this stack attach
// per-level evidence to every verdict.
func (s StackSpec) recordEvidence() bool {
	if s.RecordEvidence || s.fusion() != FusionFirstHit {
		return true
	}
	for _, ss := range s.Stages {
		if !builtinKind(ss.Kind) {
			return true
		}
	}
	return false
}

// Stack is a detection stack bound to a trained framework: the stage
// descriptors of a StackSpec resolved into StageDetector values. A Stack
// is immutable and safe for concurrent use; all per-stream mutability
// lives in the Sessions it creates.
type Stack struct {
	fw       *Framework
	spec     StackSpec
	stages   []StageDetector
	weights  []float64
	evidence bool
}

// NewStack resolves a spec against the framework's trained models. Levels
// beyond the built-in two need their stage models trained first (see
// TrainStages); a missing model is reported here, by kind.
func (f *Framework) NewStack(spec StackSpec) (*Stack, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	stages := make([]StageDetector, len(spec.Stages))
	for i, ss := range spec.Stages {
		// Thread the stack-wide numeric tier down to the factory.
		ss.Precision = spec.precision()
		fac, ok := stageFactory(ss.Kind)
		if !ok {
			return nil, fmt.Errorf("core: unknown level %q (registered: %s)",
				ss.Kind, strings.Join(StageKinds(), ", "))
		}
		st, err := fac.Build(f, ss)
		if err != nil {
			return nil, fmt.Errorf("core: level %s: %w", ss.Kind, err)
		}
		stages[i] = st
	}
	return NewStackFromStages(f, spec, stages)
}

// NewStackFromStages builds a stack from explicit stage values instead of
// the registry — the hook for custom or instrumented levels (stage
// wrappers that time or log the inner stage). spec supplies the fusion
// policy and weights and must have one StageSpec per stage.
func NewStackFromStages(f *Framework, spec StackSpec, stages []StageDetector) (*Stack, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(stages) != len(spec.Stages) {
		return nil, fmt.Errorf("core: %d stages for %d level specs", len(stages), len(spec.Stages))
	}
	st := &Stack{
		fw:       f,
		spec:     spec,
		stages:   stages,
		weights:  make([]float64, len(stages)),
		evidence: spec.recordEvidence(),
	}
	for i, ss := range spec.Stages {
		w := ss.Weight
		if w == 0 {
			w = 1
		}
		st.weights[i] = w
	}
	return st, nil
}

// Spec returns the stack's descriptor.
func (st *Stack) Spec() StackSpec { return st.spec }

// Stages returns the resolved stage values, in stack order.
func (st *Stack) Stages() []StageDetector { return st.stages }

// NewSession starts a classification session over this stack.
func (st *Stack) NewSession() *Session {
	states := make([]StageState, len(st.stages))
	for i, s := range st.stages {
		states[i] = s.NewState()
	}
	return &Session{
		stack:  st,
		states: states,
		cbuf:   make([]int, st.fw.Encoder.Dim()),
		sigbuf: make([]byte, 0, 3*st.fw.Encoder.Dim()),
	}
}

// TrainStages fits the stage models the spec needs beyond the framework's
// built-in two levels, from the same attack-free split the framework
// trained on. Models already present are kept; built-in levels (bloom,
// lstm) are always part of the framework and train in Train.
func (f *Framework) TrainStages(spec StackSpec, split *dataset.Split, seed uint64) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	for _, ss := range spec.Stages {
		fac, ok := stageFactory(ss.Kind)
		if !ok {
			return fmt.Errorf("core: unknown level %q (registered: %s)",
				ss.Kind, strings.Join(StageKinds(), ", "))
		}
		if fac.Train == nil {
			continue
		}
		if _, done := f.Extra[ss.Kind]; done {
			continue
		}
		m, err := fac.Train(f, split, seed)
		if err != nil {
			return fmt.Errorf("core: train level %s: %w", ss.Kind, err)
		}
		if f.Extra == nil {
			f.Extra = make(map[string]StageModel)
		}
		f.Extra[ss.Kind] = m
	}
	return nil
}

// MissingStages lists the spec's levels whose trained models are absent
// from the framework (the ones TrainStages would fit).
func (f *Framework) MissingStages(spec StackSpec) []string {
	var missing []string
	for _, ss := range spec.Stages {
		fac, ok := stageFactory(ss.Kind)
		if !ok || fac.Train == nil {
			continue
		}
		if _, done := f.Extra[ss.Kind]; !done {
			missing = append(missing, ss.Kind)
		}
	}
	return missing
}
