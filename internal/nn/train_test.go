package nn

import (
	"testing"

	"icsdetect/internal/mathx"
)

// makeCyclicData builds several fragments of a noisy cyclic pattern.
func makeCyclicData(rng *mathx.RNG, classes, frags, length int) []Sequence {
	out := make([]Sequence, frags)
	for f := range out {
		seq := Sequence{}
		phase := rng.Intn(classes)
		for i := 0; i < length; i++ {
			x := make([]float64, classes)
			x[(phase+i)%classes] = 1
			seq.Inputs = append(seq.Inputs, x)
			seq.Targets = append(seq.Targets, (phase+i+1)%classes)
		}
		out[f] = seq
	}
	return out
}

func TestLRDecaySchedule(t *testing.T) {
	rng := mathx.NewRNG(14)
	data := makeCyclicData(rng, 4, 2, 40)
	c, err := NewClassifier(4, []int{8}, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	losses := make([]float64, 0, 8)
	_, err = Train(c, data, TrainConfig{
		Epochs: 8, Window: 16, BatchSize: 2, LR: 5e-3, ClipNorm: 5, Seed: 1,
		LRDecayEpoch: 4, LRDecayFactor: 0.1,
		EpochEnd: func(s EpochStats) {
			losses = append(losses, s.MeanLoss)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 8 {
		t.Fatalf("EpochEnd called %d times", len(losses))
	}
	// Loss must improve from first to last epoch.
	if losses[len(losses)-1] >= losses[0] {
		t.Errorf("loss did not improve: %v", losses)
	}
}

// TestSkippedTargets: steps with negative targets contribute no loss and no
// gradient but still advance the recurrent state.
func TestSkippedTargets(t *testing.T) {
	c, err := NewClassifier(3, []int{6}, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	seq := &Sequence{
		Inputs:  [][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}},
		Targets: []int{-1, 1, -1},
	}
	g := c.NewGradBuffer()
	loss, steps := c.lossForwardBackward(seq, g)
	if steps != 1 {
		t.Fatalf("scored %d steps, want 1", steps)
	}
	if loss <= 0 {
		t.Errorf("loss = %v", loss)
	}
	// A sequence with no valid targets yields zero gradient steps.
	g2 := c.NewGradBuffer()
	_, steps = c.lossForwardBackward(&Sequence{
		Inputs:  [][]float64{{1, 0, 0}},
		Targets: []int{-1},
	}, g2)
	if steps != 0 {
		t.Errorf("scored %d steps on targetless sequence", steps)
	}
}

// TestStepDeterministic: identical state + input give identical output.
func TestStepDeterministic(t *testing.T) {
	c, err := NewClassifier(4, []int{8, 8}, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0, 1, 0, 0}
	p1 := make([]float64, 5)
	p2 := make([]float64, 5)
	s1, s2 := c.NewState(), c.NewState()
	for i := 0; i < 10; i++ {
		c.Step(s1, x, p1)
		c.Step(s2, x, p2)
		for j := range p1 {
			if p1[j] != p2[j] {
				t.Fatalf("step diverged at iteration %d", i)
			}
		}
	}
}
