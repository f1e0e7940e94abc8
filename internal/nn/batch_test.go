package nn

import (
	"sync"
	"testing"

	"icsdetect/internal/mathx"
)

// randomInputs builds T steps of n one-hot-ish input vectors.
func randomInputs(rng *mathx.RNG, t, n, dim int) [][][]float64 {
	out := make([][][]float64, t)
	for step := range out {
		out[step] = make([][]float64, n)
		for i := range out[step] {
			x := make([]float64, dim)
			x[rng.Intn(dim)] = 1
			if rng.Bernoulli(0.3) {
				x[rng.Intn(dim)] = 1
			}
			out[step][i] = x
		}
	}
	return out
}

// TestStepBatchMatchesStep drives n independent streams both through the
// sequential Step and through StepBatch and requires bitwise identical
// probabilities and hidden states at every timestep — the property the
// concurrent engine's verdict-equivalence guarantee rests on.
func TestStepBatchMatchesStep(t *testing.T) {
	const (
		dim     = 13
		classes = 9
		steps   = 25
	)
	for _, n := range []int{1, 2, 7, 32} {
		c, err := NewClassifier(dim, []int{11, 8}, classes, 42)
		if err != nil {
			t.Fatal(err)
		}
		rng := mathx.NewRNG(uint64(n) + 1)
		inputs := randomInputs(rng, steps, n, dim)

		seqStates := make([]*State, n)
		batStates := make([]*State, n)
		batProbs := make([][]float64, n)
		for i := 0; i < n; i++ {
			seqStates[i] = c.NewState()
			batStates[i] = c.NewState()
			batProbs[i] = make([]float64, classes)
		}
		buf := c.NewBatchBuffer(n)
		seqProbs := make([]float64, classes)

		for step := 0; step < steps; step++ {
			c.StepBatch(buf, batStates, inputs[step], batProbs)
			for i := 0; i < n; i++ {
				c.Step(seqStates[i], inputs[step][i], seqProbs)
				for j := range seqProbs {
					if seqProbs[j] != batProbs[i][j] {
						t.Fatalf("n=%d step=%d stream=%d class=%d: batch prob %v != sequential %v",
							n, step, i, j, batProbs[i][j], seqProbs[j])
					}
				}
				for l := range seqStates[i].h {
					for j := range seqStates[i].h[l] {
						if seqStates[i].h[l][j] != batStates[i].h[l][j] ||
							seqStates[i].c[l][j] != batStates[i].c[l][j] {
							t.Fatalf("n=%d step=%d stream=%d layer=%d: state diverged", n, step, i, l)
						}
					}
				}
			}
		}
	}
}

// TestStepBatchLogitsRanksMatchProbs verifies that ranking over raw logits
// is identical to ranking over softmax probabilities (softmax is strictly
// monotone), so the logits fast path cannot change top-k verdicts.
func TestStepBatchLogitsRanksMatchProbs(t *testing.T) {
	const (
		dim     = 10
		classes = 12
		steps   = 30
		n       = 5
	)
	c, err := NewClassifier(dim, []int{9}, classes, 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := mathx.NewRNG(99)
	inputs := randomInputs(rng, steps, n, dim)

	probStates := make([]*State, n)
	logitStates := make([]*State, n)
	probs := make([][]float64, n)
	logits := make([][]float64, n)
	for i := 0; i < n; i++ {
		probStates[i] = c.NewState()
		logitStates[i] = c.NewState()
		probs[i] = make([]float64, classes)
		logits[i] = make([]float64, classes)
	}
	bufA := c.NewBatchBuffer(n)
	bufB := c.NewBatchBuffer(n)

	rank := func(scores []float64, class int) int {
		p := scores[class]
		r := 0
		for i, v := range scores {
			if v > p || (v == p && i < class) {
				r++
			}
		}
		return r
	}
	for step := 0; step < steps; step++ {
		c.StepBatch(bufA, probStates, inputs[step], probs)
		c.StepBatchLogits(bufB, logitStates, inputs[step], logits)
		for i := 0; i < n; i++ {
			for class := 0; class < classes; class++ {
				if rank(probs[i], class) != rank(logits[i], class) {
					t.Fatalf("step=%d stream=%d class=%d: logit rank %d != prob rank %d",
						step, i, class, rank(logits[i], class), rank(probs[i], class))
				}
			}
		}
	}
}

// TestStepBatchNoAllocations pins the zero-allocation property of the
// batched hot path at widths on both sides of every stream-block boundary:
// a partial block, a full block plus a partial one, and whole blocks only.
// The buffer's tables are sized at construction and the rows are the
// streams' own, so not even the first step allocates.
func TestStepBatchNoAllocations(t *testing.T) {
	const maxN = 16
	c, err := NewClassifier(12, []int{16, 16}, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]*State, maxN)
	inputs := make([][]float64, maxN)
	idxs := make([][]int, maxN)
	probs := make([][]float64, maxN)
	for i := range states {
		states[i] = c.NewState()
		inputs[i] = make([]float64, 12)
		inputs[i][i%12] = 1
		idxs[i] = []int{i % 12}
		probs[i] = make([]float64, 10)
	}
	// Warm the lazily built packs and the transposed W.
	c.StepBatchLogits(c.NewBatchBuffer(1), states[:1], inputs[:1], probs[:1])
	c.StepBatchLogitsOneHot(c.NewBatchBuffer(1), states[:1], idxs[:1], probs[:1])
	for _, n := range []int{3, 11, 16} {
		buf := c.NewBatchBuffer(maxN)
		if allocs := testing.AllocsPerRun(50, func() {
			c.StepBatchLogits(buf, states[:n], inputs[:n], probs[:n])
		}); allocs != 0 {
			t.Errorf("StepBatchLogits allocates %v times per %d-stream call, want 0", allocs, n)
		}
		if allocs := testing.AllocsPerRun(50, func() {
			c.StepBatchLogitsOneHot(buf, states[:n], idxs[:n], probs[:n])
		}); allocs != 0 {
			t.Errorf("StepBatchLogitsOneHot allocates %v times per %d-stream call, want 0", allocs, n)
		}
	}
}

func TestStepBatchShapePanics(t *testing.T) {
	c, err := NewClassifier(5, []int{4}, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := c.NewBatchBuffer(2)
	states := []*State{c.NewState(), c.NewState(), c.NewState()}
	inputs := [][]float64{make([]float64, 5), make([]float64, 5), make([]float64, 5)}
	probs := [][]float64{make([]float64, 3), make([]float64, 3), make([]float64, 3)}

	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	assertPanics("oversized batch", func() { c.StepBatch(buf, states, inputs, probs) })
	assertPanics("input mismatch", func() { c.StepBatch(buf, states[:2], inputs[:1], probs[:2]) })

	// Empty batch is a no-op.
	c.StepBatch(buf, nil, nil, nil)
}

// requireRowsCleared fails unless every table of b holds MaxBatch empty
// rows: the gate and logit rows are the streams' own, so a buffer holds
// row tables only, and a step must leave them pinning no stream.
func requireRowsCleared[T float32 | float64](t *testing.T, b *batchRows[T], maxBatch int) {
	t.Helper()
	if b.MaxBatch() != maxBatch {
		t.Fatalf("buffer: MaxBatch %d, want %d", b.MaxBatch(), maxBatch)
	}
	for name, table := range map[string][][]T{"zs": b.zs, "cs": b.cs, "hs0": b.hs[0], "hs1": b.hs[1]} {
		if len(table) != maxBatch {
			t.Fatalf("table %s holds %d rows, want MaxBatch", name, len(table))
		}
		for i, row := range table {
			if row != nil {
				t.Fatalf("table %s still points at stream %d's state after the step", name, i)
			}
		}
	}
}

// TestBatchBufferGrowsOnDemand: the inference buffers of both precisions
// are row tables, sized at construction, that every step leaves empty.
func TestBatchBufferGrowsOnDemand(t *testing.T) {
	c, err := NewClassifier(13, []int{11, 8}, 9, 42)
	if err != nil {
		t.Fatal(err)
	}
	m := c.Infer32()
	buf, buf32 := c.NewBatchBuffer(20), m.NewBatchBuffer(20)
	states, idxs, scores := make([]*State, 7), make([][]int, 7), make([][]float64, 7)
	states32, scores32 := make([]*State32, 7), make([][]float32, 7)
	for i := range states {
		states[i], idxs[i], scores[i] = c.NewState(), []int{i}, make([]float64, 9)
		states32[i], scores32[i] = m.NewState(), make([]float32, 9)
	}
	c.StepBatchLogitsOneHot(buf, states, idxs, scores)
	requireRowsCleared(t, &buf.batchRows, 20)
	m.StepBatchLogitsOneHot(buf32, states32, idxs, scores32)
	requireRowsCleared(t, &buf32.batchRows, 20)
}

// TestLazyInferenceCachesPublishOnce: goroutines racing on a cold model —
// shards hitting their first flush together — must all come back with the
// same f32 snapshot, the same GEMV packs and the same transposed W. Before
// the caches published by CompareAndSwap each racer kept its own build: a
// duplicate copy of the weights per shard, and under -race a reported race
// on nothing worse than wasted memory.
func TestLazyInferenceCachesPublishOnce(t *testing.T) {
	const racers, rounds = 8, 20
	for round := 0; round < rounds; round++ {
		c, err := NewClassifier(57, []int{16, 16}, 11, uint64(round)+1)
		if err != nil {
			t.Fatal(err)
		}
		type seen struct {
			m32        *InferModel32
			wt         *mathx.Matrix
			u0, w1, hd *mathx.PackedGEMV
			u032       *mathx.PackedGEMV32
		}
		got := make([]seen, racers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for r := 0; r < racers; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				<-start
				// The calls a shard's first narrow flush makes.
				state := c.NewState()
				c.StepLogitsOneHot(state, []int{r}, make([]float64, 11))
				m := c.Infer32()
				m.StepLogitsOneHot(m.NewState(), []int{r}, make([]float32, 11))
				got[r] = seen{
					m32:  m,
					wt:   c.Layers[0].wtrans(),
					u0:   lazyPack(&c.Layers[0].packU, c.Layers[0].U),
					w1:   lazyPack(&c.Layers[1].packW, c.Layers[1].W),
					hd:   lazyPack(&c.Out.pack, c.Out.W),
					u032: lazyPack32(&m.layers[0].packU, m.layers[0].u),
				}
			}(r)
		}
		close(start)
		wg.Wait()
		for r := 1; r < racers; r++ {
			if got[r] != got[0] {
				t.Fatalf("round %d: racer %d holds %+v, racer 0 holds %+v", round, r, got[r], got[0])
			}
		}
		if c.Layers[0].packW.Load() != nil {
			t.Fatal("the one-hot step packed layer 0's W, which it never multiplies")
		}
	}
}
