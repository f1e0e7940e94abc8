package nn

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"icsdetect/internal/mathx"
)

// trainTwin trains a fresh, identically initialized classifier with train
// (Train or trainOracle), returning the model and final loss.
func trainTwin(t *testing.T, data []Sequence, cfg TrainConfig,
	train func(*Classifier, []Sequence, TrainConfig) (float64, error)) (*Classifier, float64) {
	t.Helper()
	c, err := NewClassifier(7, []int{10, 8}, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	loss, err := train(c, data, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, loss
}

// ragged training data: mixed fragment lengths (remainder windows, one
// dropped length-1 remainder at window 9), sprinkled negative targets.
func raggedData(rng *mathx.RNG, inputs, classes int) []Sequence {
	var out []Sequence
	for _, length := range []int{23, 18, 4, 28, 11} {
		seq := Sequence{}
		for i := 0; i < length; i++ {
			x := make([]float64, inputs)
			x[rng.Intn(inputs)] = 1
			if rng.Bernoulli(0.3) {
				x[rng.Intn(inputs)] = 1
			}
			seq.Inputs = append(seq.Inputs, x)
			tgt := rng.Intn(classes)
			if rng.Bernoulli(0.15) {
				tgt = -1 // unscored step: no loss, state still advances
			}
			seq.Targets = append(seq.Targets, tgt)
		}
		out = append(out, seq)
	}
	return out
}

// TestBatchedTrainerBitwiseEqualsReference is the headline invariant of the
// training pipeline: for the same seed and window order, Train must
// produce bitwise-identical parameters (and losses) to the per-window
// oracle, across multiple epochs with gradient clipping, LR decay, ragged
// windows, and skipped targets — on every kernel tier ("simd" is the
// machine's default, AVX-512 where the CPU has it) and at GOMAXPROCS 1–4,
// which cut each minibatch into that many sweep groups. The 11 windows in
// minibatches of 3, 5 and 7 leave uneven groups and a short last
// minibatch, down to one window on four goroutines.
func TestBatchedTrainerBitwiseEqualsReference(t *testing.T) {
	run := func(t *testing.T) {
		for _, batch := range []int{3, 5, 7} {
			rng := mathx.NewRNG(21)
			data := raggedData(rng, 7, 6)
			cfg := TrainConfig{
				Epochs: 4, Window: 9, BatchSize: batch, LR: 3e-3, ClipNorm: 1.5,
				LRDecayEpoch: 2, LRDecayFactor: 0.5, Seed: 5,
			}
			ref, refLoss := trainTwin(t, data, cfg, trainOracle)
			for procs := 1; procs <= 4; procs++ {
				t.Run(fmt.Sprintf("batch=%d/procs=%d", batch, procs), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					bat, batLoss := trainTwin(t, data, cfg, Train)
					if refLoss != batLoss {
						t.Errorf("final losses diverge: reference %v, batched %v", refLoss, batLoss)
					}
					rp, bp := ref.Params(), bat.Params()
					for i := range rp {
						for j := range rp[i].Data {
							if rp[i].Data[j] != bp[i].Data[j] {
								t.Fatalf("parameter %s[%d] diverged: reference %v, batched %v",
									rp[i].Name, j, rp[i].Data[j], bp[i].Data[j])
							}
						}
					}
				})
			}
		}
	}
	t.Run("simd", run)
	t.Run("avx2", func(t *testing.T) {
		prev := mathx.SetAVX512Enabled(false)
		defer mathx.SetAVX512Enabled(prev)
		run(t)
	})
	t.Run("scalar", func(t *testing.T) {
		prev := mathx.SetSIMDEnabled(false)
		defer mathx.SetSIMDEnabled(prev)
		run(t)
	})
}

// TestBatchedTrainerGradientsMatchReference compares a single minibatch's
// raw gradient buffer (before any optimizer state is involved) with the
// oracle's, including batch widths that exercise the 4-wide kernel tiles
// and their tails, on every kernel tier.
func TestBatchedTrainerGradientsMatchReference(t *testing.T) {
	forEachKernelTier(t, testBatchGradients)
}

func testBatchGradients(t *testing.T) {
	rng := mathx.NewRNG(31)
	for _, nWin := range []int{1, 3, 4, 7} {
		c, err := NewClassifier(5, []int{9, 6}, 4, 13)
		if err != nil {
			t.Fatal(err)
		}
		var batch []Sequence
		for i := 0; i < nWin; i++ {
			seq := raggedData(rng, 5, 4)[0]
			batch = append(batch, Sequence{Inputs: seq.Inputs[:6+i], Targets: seq.Targets[:6+i]})
		}
		bt := newBatchTrainer(c, len(batch), 16)
		checkClassifierBatch(t, c, bt, batch)
		bt.stop()
	}
}

// TestBatchedTrainerDeterministic: two identical runs must agree bitwise.
func TestBatchedTrainerDeterministic(t *testing.T) {
	rng := mathx.NewRNG(41)
	data := raggedData(rng, 7, 6)
	cfg := TrainConfig{Epochs: 3, Window: 8, BatchSize: 4, LR: 2e-3, ClipNorm: 5, Seed: 9}
	a, lossA := trainTwin(t, data, cfg, Train)
	b, lossB := trainTwin(t, data, cfg, Train)
	if lossA != lossB {
		t.Errorf("losses diverge across identical runs: %v vs %v", lossA, lossB)
	}
	ap, bp := a.Params(), b.Params()
	for i := range ap {
		for j := range ap[i].Data {
			if ap[i].Data[j] != bp[i].Data[j] {
				t.Fatalf("parameter %s[%d] diverged across identical runs", ap[i].Name, j)
			}
		}
	}
}

// TestEpochEndStats: the per-epoch callback reports coherent counts and
// wall time.
func TestEpochEndStats(t *testing.T) {
	rng := mathx.NewRNG(51)
	data := raggedData(rng, 7, 6)
	var stats []EpochStats
	c, _ := NewClassifier(7, []int{6}, 6, 2)
	_, err := Train(c, data, TrainConfig{
		Epochs: 3, Window: 8, BatchSize: 4, Seed: 1,
		EpochEnd: func(s EpochStats) { stats = append(stats, s) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("EpochEnd called %d times, want 3", len(stats))
	}
	wantWindows := len(MakeWindows(data, 8))
	for i, s := range stats {
		if s.Epoch != i+1 || s.Epochs != 3 {
			t.Errorf("epoch %d: numbering %d/%d", i, s.Epoch, s.Epochs)
		}
		if s.Windows != wantWindows {
			t.Errorf("epoch %d: %d windows, want %d", i, s.Windows, wantWindows)
		}
		if s.Steps <= 0 || s.Duration < 0 {
			t.Errorf("epoch %d: implausible stats %+v", i, s)
		}
	}
	if stats[0].WindowsPerSec() < 0 {
		t.Error("negative throughput")
	}
	if (EpochStats{Windows: 5}).WindowsPerSec() != 0 {
		t.Error("zero-duration throughput not guarded")
	}
}

// allocsAt is the fewest heap allocations f makes in one of ten calls at
// GOMAXPROCS procs, after a warm-up call, with the collector off.
// testing.AllocsPerRun would pin GOMAXPROCS to 1, where Train starts no
// workers. The fewest rather than the mean, because the count is
// process-wide and the runtime adds a few allocations of its own to some
// calls.
func allocsAt(procs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	f()
	fewest := ^uint64(0)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		fewest = min(fewest, after.Mallocs-before.Mallocs)
	}
	return fewest
}

// TestTrainAllocations: Train allocates only its per-call state — nothing
// per epoch, minibatch or timestep, and nothing per hand-off to a worker —
// so 1, 4 and 16 epochs make the same allocations, at every GOMAXPROCS.
func TestTrainAllocations(t *testing.T) {
	data := raggedData(mathx.NewRNG(71), 7, 6)
	for _, procs := range []int{1, 2, 4} {
		allocs := func(epochs int) uint64 {
			return allocsAt(procs, func() {
				c, err := NewClassifier(7, []int{10, 8}, 6, 77)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := Train(c, data, TrainConfig{Epochs: epochs, Window: 9, BatchSize: 3, Seed: 1}); err != nil {
					t.Fatal(err)
				}
			})
		}
		if one, four, sixteen := allocs(1), allocs(4), allocs(16); one != four || one != sixteen {
			t.Errorf("GOMAXPROCS %d: 1, 4 and 16 epochs make %d, %d and %d allocations", procs, one, four, sixteen)
		}
	}
}

// workers counts the goroutines inside a batchTrainer worker.
func workers() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*batchTrainer).worker(")
}

// TestTrainWorkersExit: Train's workers run while it trains and have
// exited once it returns, normally or by a panic out of EpochEnd, so a
// trained model keeps none of the trainer's buffers alive.
func TestTrainWorkersExit(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	data := raggedData(mathx.NewRNG(61), 7, 6)
	// A worker still counts for the moment between signalling its exit
	// and returning, so each count is given that moment to settle.
	settle := func(done func() bool) bool {
		for i := 0; !done(); i++ {
			if i == 1000 {
				return false
			}
			time.Sleep(time.Millisecond)
		}
		return true
	}
	settle(func() bool { return workers() == 0 }) // an earlier test's
	before := runtime.NumGoroutine()
	returned := func(when string) {
		t.Helper()
		if !settle(func() bool { return runtime.NumGoroutine() == before }) {
			t.Errorf("%s: %d goroutines, %d before Train", when, runtime.NumGoroutine(), before)
		}
	}
	train := func(end func(EpochStats)) {
		c, err := NewClassifier(7, []int{10, 8}, 6, 77)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Train(c, data, TrainConfig{Epochs: 2, Window: 9, BatchSize: 3, Seed: 1, EpochEnd: end}); err != nil {
			t.Fatal(err)
		}
	}

	during := 0
	train(func(EpochStats) { during = workers() })
	if during != 1 {
		t.Errorf("%d workers during training at GOMAXPROCS 2, want 1", during)
	}
	returned("after Train returned")

	func() {
		defer func() {
			if recover() == nil {
				t.Error("EpochEnd's panic did not reach the caller")
			}
		}()
		train(func(EpochStats) { panic("stop") })
	}()
	returned("after a panic out of EpochEnd")
}
