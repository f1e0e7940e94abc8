package baselines

import (
	"fmt"
	"testing"

	"icsdetect/internal/mathx"
)

// TestBayesNetStructureDeterministic: the Chow–Liu tree must be a function
// of the training windows alone. Duplicated columns make many mutual
// informations tie exactly, so a sum whose order changes between trainings
// moves them in their last bits and flips the tree.
func TestBayesNetStructureDeterministic(t *testing.T) {
	const base, copies, rows = 6, 3, 400
	rng := mathx.NewRNG(11)
	train := make([]*Window, rows)
	for i := range train {
		c := make([]int, 0, base*copies)
		for j := 0; j < base; j++ {
			// Correlated base columns: each leans on the previous one.
			v := rng.Intn(9)
			if j > 0 && rng.Intn(2) == 0 {
				v = (c[j-1] + rng.Intn(3)) % 9
			}
			c = append(c, v)
		}
		for k := 1; k < copies; k++ {
			c = append(c, c[:base]...)
		}
		train[i] = &Window{Discrete: c}
	}
	structures := make(map[string]int)
	for i := 0; i < 64; i++ {
		bn, err := NewBayesNet(train)
		if err != nil {
			t.Fatal(err)
		}
		structures[fmt.Sprint(bn.parent)]++
	}
	if len(structures) != 1 {
		t.Errorf("64 trainings on the same windows gave %d tree structures", len(structures))
	}
}
