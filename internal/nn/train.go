package nn

import (
	"fmt"
	"time"

	"icsdetect/internal/mathx"
)

// EpochStats captures one epoch of training for progress reporting and
// checkpointing decisions.
type EpochStats struct {
	// Epoch is 1-based; Epochs is the configured total.
	Epoch, Epochs int
	// MeanLoss is the mean per-step softmax loss over the epoch.
	MeanLoss float64
	// Windows and Steps count the truncated-BPTT windows and scored
	// timesteps processed this epoch.
	Windows, Steps int
	// Duration is the epoch's wall time.
	Duration time.Duration
}

// WindowsPerSec is the epoch's training throughput.
func (s EpochStats) WindowsPerSec() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Windows) / s.Duration.Seconds()
}

// TrainConfig controls minibatch training of a Classifier.
type TrainConfig struct {
	// Epochs is the number of passes over all windows (paper: 50).
	Epochs int
	// Window is the truncated-BPTT length each training window spans.
	Window int
	// BatchSize is the number of windows whose gradients are averaged per
	// optimizer step.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// ClipNorm is the global gradient norm cap (0 disables clipping).
	ClipNorm float64
	// LRDecayEpoch, when positive, multiplies the learning rate by
	// LRDecayFactor once that epoch is reached (simple step schedule).
	LRDecayEpoch  int
	LRDecayFactor float64
	// Seed drives window shuffling.
	Seed uint64
	// EpochEnd, when non-nil, receives the per-epoch statistics (loss,
	// wall time, throughput) after each epoch, for reporting and periodic
	// checkpointing.
	EpochEnd func(EpochStats)
}

func (c *TrainConfig) defaults() {
	if c.Epochs <= 0 {
		c.Epochs = 10
	}
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 16
	}
	if c.LR <= 0 {
		c.LR = 2e-3
	}
	if c.ClipNorm < 0 {
		c.ClipNorm = 0
	}
}

// MakeWindows chops full sequences into non-overlapping training windows of
// the given length. Remainder windows shorter than 2 steps are dropped.
func MakeWindows(seqs []Sequence, window int) []Sequence {
	var out []Sequence
	for _, s := range seqs {
		for start := 0; start < len(s.Inputs); start += window {
			end := start + window
			if end > len(s.Inputs) {
				end = len(s.Inputs)
			}
			if end-start < 2 {
				continue
			}
			out = append(out, Sequence{
				Inputs:  s.Inputs[start:end],
				Targets: s.Targets[start:end],
			})
		}
	}
	return out
}

// Train fits the classifier on the given full sequences with Adam over
// shuffled minibatches of truncated-BPTT windows. Each minibatch is cut
// into up to GOMAXPROCS contiguous groups of windows, each group swept
// lock-step on its own goroutine, and its gradient is then replayed one
// tensor per goroutine (batchTrainer). That is bitwise identical to
// running the per-window reference over the windows in order, at any
// GOMAXPROCS, so the trained parameters are a function of the data and
// the seed. The worker goroutines start once per call and have exited
// when Train returns; EpochEnd runs between minibatches, while no sweep
// is in flight. It returns the mean per-step loss of the final epoch.
func Train(c *Classifier, seqs []Sequence, cfg TrainConfig) (float64, error) {
	cfg.defaults()
	for _, s := range seqs {
		if len(s.Inputs) != len(s.Targets) {
			return 0, fmt.Errorf("nn: sequence has %d inputs but %d targets", len(s.Inputs), len(s.Targets))
		}
		for _, x := range s.Inputs {
			if len(x) != c.InputSize() {
				return 0, fmt.Errorf("nn: input size %d, classifier expects %d", len(x), c.InputSize())
			}
		}
		for _, t := range s.Targets {
			if t >= c.Classes() {
				return 0, fmt.Errorf("nn: target %d out of range (classes=%d)", t, c.Classes())
			}
		}
	}
	windows := MakeWindows(seqs, cfg.Window)
	if len(windows) == 0 {
		return 0, fmt.Errorf("nn: no training windows (need sequences of length >= 2)")
	}

	rng := mathx.NewRNG(cfg.Seed)
	opt := NewAdam(cfg.LR)
	params := c.Params()

	bt := newBatchTrainer(c, min(cfg.BatchSize, len(windows)), cfg.Window)
	defer bt.stop()

	var finalLoss float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		if cfg.LRDecayEpoch > 0 && epoch == cfg.LRDecayEpoch && cfg.LRDecayFactor > 0 {
			opt.LR *= cfg.LRDecayFactor
		}
		rng.Shuffle(len(windows), func(i, j int) {
			windows[i], windows[j] = windows[j], windows[i]
		})
		var epochLoss float64
		var epochSteps int

		for start := 0; start < len(windows); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(windows) {
				end = len(windows)
			}
			batch := windows[start:end]

			batchLoss, batchSteps := bt.run(batch)
			bt.grads.ClipAndScale(cfg.ClipNorm)
			if err := opt.Step(params, bt.grads.Slices()); err != nil {
				return 0, err
			}
			// The step mutated every weight tensor in place: drop the
			// cached inference layouts so they rebuild from fresh values.
			c.InvalidateInference()
			epochLoss += batchLoss
			epochSteps += batchSteps
		}

		if epochSteps > 0 {
			finalLoss = epochLoss / float64(epochSteps)
		}
		if cfg.EpochEnd != nil {
			cfg.EpochEnd(EpochStats{
				Epoch:    epoch + 1,
				Epochs:   cfg.Epochs,
				MeanLoss: finalLoss,
				Windows:  len(windows),
				Steps:    epochSteps,
				Duration: time.Since(epochStart),
			})
		}
	}
	return finalLoss, nil
}
