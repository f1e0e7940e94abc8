package nn

import (
	"bytes"
	"math"
	"testing"

	"icsdetect/internal/mathx"
)

// analyticLoss computes the summed cross-entropy loss of seq without
// touching gradients, used by the finite-difference check.
func analyticLoss(c *Classifier, seq *Sequence) float64 {
	// The gradient check perturbs weight tensors in place between calls,
	// so the cached inference layouts must be rebuilt from fresh values.
	c.InvalidateInference()
	state := c.NewState()
	probs := make([]float64, c.Classes())
	var loss float64
	for t := range seq.Inputs {
		c.Step(state, seq.Inputs[t], probs)
		if seq.Targets[t] >= 0 {
			loss += -math.Log(math.Max(probs[seq.Targets[t]], 1e-300))
		}
	}
	return loss
}

func randomSequence(rng *mathx.RNG, c *Classifier, T int) *Sequence {
	seq := &Sequence{Inputs: make([][]float64, T), Targets: make([]int, T)}
	for t := 0; t < T; t++ {
		x := make([]float64, c.InputSize())
		// One-hot-ish sparse inputs, like the detector's encoding.
		x[rng.Intn(len(x))] = 1
		if rng.Bernoulli(0.3) {
			x[rng.Intn(len(x))] = 1
		}
		seq.Inputs[t] = x
		seq.Targets[t] = rng.Intn(c.Classes())
	}
	return seq
}

// TestGradientCheck validates the full BPTT implementation (both LSTM
// layers, the dense head, and the softmax loss) against central finite
// differences on a small random network, for both the per-window oracle
// and the lock-step trainer (a one-window minibatch). This is the
// load-bearing correctness test for the entire neural substrate.
func TestGradientCheck(t *testing.T) {
	rng := mathx.NewRNG(7)
	c, err := NewClassifier(6, []int{5, 4}, 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	seq := randomSequence(rng, c, 7)

	oracle := c.NewGradBuffer()
	if _, steps := c.lossForwardBackward(seq, oracle); steps != 7 {
		t.Fatalf("oracle scored %d steps", steps)
	}
	bt := newBatchTrainer(c, 1, len(seq.Inputs))
	defer bt.stop()
	if _, steps := bt.run([]Sequence{*seq}); steps != 7 {
		t.Fatalf("lock-step pass scored %d steps", steps)
	}

	params := c.Params()
	const eps = 1e-5
	checked := 0
	for pi, p := range params {
		// Spot-check a handful of coordinates per tensor.
		stride := len(p.Data)/7 + 1
		for j := 0; j < len(p.Data); j += stride {
			orig := p.Data[j]
			p.Data[j] = orig + eps
			up := analyticLoss(c, seq)
			p.Data[j] = orig - eps
			down := analyticLoss(c, seq)
			p.Data[j] = orig

			numeric := (up - down) / (2 * eps)
			for _, g := range []struct {
				name string
				buf  *GradBuffer
			}{{"oracle", oracle}, {"lock-step", bt.grads}} {
				analytic := g.buf.Slices()[pi][j]
				scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if math.Abs(numeric-analytic)/scale > 1e-5 {
					t.Errorf("%s %s[%d]: numeric %.8g vs analytic %.8g",
						g.name, p.Name, j, numeric, analytic)
				}
			}
			checked++
		}
	}
	if checked < 30 {
		t.Fatalf("only %d coordinates checked", checked)
	}
}

// TestTrainingLearnsDeterministicSequence: the classifier must drive the
// loss near zero on a perfectly predictable cyclic pattern, the degenerate
// version of the SCADA polling cycle.
func TestTrainingLearnsDeterministicSequence(t *testing.T) {
	const classes = 4
	c, err := NewClassifier(classes, []int{16}, classes, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Cycle 0→1→2→3→0…: input one-hot of current, target = next.
	seq := Sequence{}
	for i := 0; i < 200; i++ {
		x := make([]float64, classes)
		x[i%classes] = 1
		seq.Inputs = append(seq.Inputs, x)
		seq.Targets = append(seq.Targets, (i+1)%classes)
	}
	loss, err := Train(c, []Sequence{seq}, TrainConfig{
		Epochs: 30, Window: 16, BatchSize: 4, LR: 5e-3, ClipNorm: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if loss > 0.05 {
		t.Errorf("final loss %.4f on deterministic sequence, want < 0.05", loss)
	}
	// Streaming prediction must now be right.
	state := c.NewState()
	probs := make([]float64, classes)
	correct := 0
	for i := 0; i < 40; i++ {
		x := make([]float64, classes)
		x[i%classes] = 1
		c.Step(state, x, probs)
		if mathx.ArgMax(probs) == (i+1)%classes {
			correct++
		}
	}
	if correct < 36 {
		t.Errorf("streaming accuracy %d/40 on learned cycle", correct)
	}
}

func TestTrainValidation(t *testing.T) {
	c, _ := NewClassifier(3, []int{4}, 2, 1)
	if _, err := Train(c, []Sequence{{
		Inputs:  [][]float64{{1, 0, 0}},
		Targets: []int{0, 1},
	}}, TrainConfig{}); err == nil {
		t.Error("mismatched inputs/targets accepted")
	}
	if _, err := Train(c, []Sequence{{
		Inputs:  [][]float64{{1, 0}},
		Targets: []int{0},
	}}, TrainConfig{}); err == nil {
		t.Error("wrong input size accepted")
	}
	if _, err := Train(c, []Sequence{{
		Inputs:  [][]float64{{1, 0, 0}, {1, 0, 0}},
		Targets: []int{0, 5},
	}}, TrainConfig{}); err == nil {
		t.Error("out-of-range target accepted")
	}
	if _, err := Train(c, nil, TrainConfig{}); err == nil {
		t.Error("no sequences accepted")
	}
}

func TestNewClassifierValidation(t *testing.T) {
	if _, err := NewClassifier(0, []int{4}, 2, 1); err == nil {
		t.Error("zero input size accepted")
	}
	if _, err := NewClassifier(3, nil, 2, 1); err == nil {
		t.Error("no layers accepted")
	}
	if _, err := NewClassifier(3, []int{0}, 2, 1); err == nil {
		t.Error("zero hidden accepted")
	}
	if _, err := NewClassifier(3, []int{4}, 0, 1); err == nil {
		t.Error("zero classes accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := mathx.NewRNG(5)
	c, err := NewClassifier(8, []int{6, 5}, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Identical streaming behaviour.
	s1, s2 := c.NewState(), loaded.NewState()
	p1 := make([]float64, 4)
	p2 := make([]float64, 4)
	for i := 0; i < 20; i++ {
		x := make([]float64, 8)
		x[rng.Intn(8)] = 1
		c.Step(s1, x, p1)
		loaded.Step(s2, x, p2)
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("prediction diverged after load at step %d", i)
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("garbage model accepted")
	}
}

func TestStateResetAndClone(t *testing.T) {
	c, _ := NewClassifier(3, []int{4}, 2, 1)
	s := c.NewState()
	probs := make([]float64, 2)
	x := []float64{1, 0, 0}
	c.Step(s, x, probs)
	first := append([]float64(nil), probs...)

	clone := s.Clone()
	c.Step(s, x, probs) // advance original; clone unaffected
	c.Step(clone, x, probs)
	second := append([]float64(nil), probs...)

	s.Reset()
	c.Step(s, x, probs)
	for i := range probs {
		if probs[i] != first[i] {
			t.Fatal("reset state does not reproduce first step")
		}
	}
	_ = second
}

func TestMakeWindows(t *testing.T) {
	seq := Sequence{
		Inputs:  make([][]float64, 70),
		Targets: make([]int, 70),
	}
	ws := MakeWindows([]Sequence{seq}, 32)
	// 70 = 32 + 32 + 6: three windows, none shorter than 2.
	if len(ws) != 3 {
		t.Fatalf("windows = %d", len(ws))
	}
	if len(ws[2].Inputs) != 6 {
		t.Errorf("remainder window length %d", len(ws[2].Inputs))
	}
	// A length-1 remainder is dropped.
	seq2 := Sequence{Inputs: make([][]float64, 33), Targets: make([]int, 33)}
	if ws := MakeWindows([]Sequence{seq2}, 32); len(ws) != 1 {
		t.Errorf("length-1 remainder not dropped: %d windows", len(ws))
	}
}

func TestMakeWindowsEdgeCases(t *testing.T) {
	mk := func(n int) Sequence {
		return Sequence{Inputs: make([][]float64, n), Targets: make([]int, n)}
	}
	// Exact multiples produce only full windows, no empty remainder.
	ws := MakeWindows([]Sequence{mk(64)}, 32)
	if len(ws) != 2 || len(ws[0].Inputs) != 32 || len(ws[1].Inputs) != 32 {
		t.Errorf("exact multiple: got %d windows", len(ws))
	}
	// Empty input and empty sequences yield no windows.
	if ws := MakeWindows(nil, 32); len(ws) != 0 {
		t.Errorf("nil sequences produced %d windows", len(ws))
	}
	if ws := MakeWindows([]Sequence{mk(0)}, 32); len(ws) != 0 {
		t.Errorf("empty sequence produced %d windows", len(ws))
	}
	// Sequences entirely shorter than 2 are dropped...
	if ws := MakeWindows([]Sequence{mk(1)}, 32); len(ws) != 0 {
		t.Errorf("length-1 sequence produced %d windows", len(ws))
	}
	// ...while a length-2 sequence is the smallest trainable window.
	if ws := MakeWindows([]Sequence{mk(2)}, 32); len(ws) != 1 || len(ws[0].Inputs) != 2 {
		t.Errorf("length-2 sequence: %d windows", len(ws))
	}
	// Window length 2 over an odd sequence: 5 = 2+2+1, last dropped.
	if ws := MakeWindows([]Sequence{mk(5)}, 2); len(ws) != 2 {
		t.Errorf("5 steps at window 2: %d windows, want 2", len(ws))
	}
	// Windows alias the parent sequence rather than copying it.
	parent := mk(4)
	for i := range parent.Inputs {
		parent.Inputs[i] = []float64{float64(i)}
	}
	ws = MakeWindows([]Sequence{parent}, 2)
	if &ws[1].Inputs[0][0] != &parent.Inputs[2][0] {
		t.Error("windows copied inputs instead of aliasing")
	}
}

// TestAdamStepDeterminism: identical parameter/gradient histories must
// produce bitwise-identical parameters — the optimizer-side half of the
// trainer equivalence invariant.
func TestAdamStepDeterminism(t *testing.T) {
	run := func() []float64 {
		opt := NewAdam(3e-3)
		params := []Param{{Name: "w", Data: make([]float64, 13)}}
		g := mathx.NewRNG(99)
		for iter := 0; iter < 50; iter++ {
			grad := make([]float64, 13)
			for i := range grad {
				grad[i] = g.NormScaled(0, 1)
			}
			if err := opt.Step(params, [][]float64{grad}); err != nil {
				t.Fatal(err)
			}
		}
		return params[0].Data
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Adam diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimize f(w) = Σ (w_i - i)² with Adam.
	target := []float64{0, 1, 2, 3}
	params := []Param{{Name: "w", Data: make([]float64, 4)}}
	opt := NewAdam(0.1)
	for iter := 0; iter < 500; iter++ {
		grad := make([]float64, 4)
		for i := range grad {
			grad[i] = 2 * (params[0].Data[i] - target[i])
		}
		if err := opt.Step(params, [][]float64{grad}); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range params[0].Data {
		if math.Abs(w-target[i]) > 0.01 {
			t.Errorf("w[%d] = %v, want %v", i, w, target[i])
		}
	}
}

func TestOptimizerShapeErrors(t *testing.T) {
	params := []Param{{Name: "w", Data: []float64{1, 2}}}
	if err := NewAdam(0.1).Step(params, [][]float64{{1}}); err == nil {
		t.Error("adam accepted mismatched grad shape")
	}
	if err := NewAdam(0.1).Step(params, nil); err == nil {
		t.Error("adam accepted missing grads")
	}
}

// TestGradBufferMergeAndClip: a buffer that accumulated two windows
// counts both windows' steps, and ClipAndScale caps its norm.
func TestGradBufferMergeAndClip(t *testing.T) {
	c, _ := NewClassifier(3, []int{4}, 2, 2)
	rng := mathx.NewRNG(3)
	seq := randomSequence(rng, c, 5)

	a := c.NewGradBuffer()
	c.lossForwardBackward(seq, a)
	c.lossForwardBackward(seq, a)
	if a.Steps != 10 {
		t.Errorf("accumulated steps = %d", a.Steps)
	}
	norm := a.ClipAndScale(0.001)
	if norm <= 0 {
		t.Error("zero gradient norm on nonzero gradients")
	}
	var after float64
	for _, s := range a.Slices() {
		for _, v := range s {
			after += v * v
		}
	}
	if math.Sqrt(after) > 0.001*1.0001 {
		t.Errorf("clip failed: post-clip norm %v", math.Sqrt(after))
	}
}

func TestNumParams(t *testing.T) {
	c, _ := NewClassifier(10, []int{8}, 5, 1)
	// LSTM: 4*8*10 + 4*8*8 + 4*8 = 320+256+32 = 608; dense: 5*8+5 = 45.
	if got := c.NumParams(); got != 653 {
		t.Errorf("NumParams = %d, want 653", got)
	}
}
