package core

import (
	"fmt"

	"icsdetect/internal/dataset"
	"icsdetect/internal/metrics"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
)

// Config holds every training knob of the framework. The defaults mirror
// the paper's experimental setup at a laptop-friendly scale; PaperScale
// produces the full-size configuration.
type Config struct {
	// Granularity fixes the discretization; when zero-valued, a
	// granularity search (§IV-B) with Search is run instead.
	Granularity signature.Granularity
	// Search configures the granularity search when Granularity is zero.
	Search signature.SearchConfig
	// BloomFP is the Bloom filter's target false-positive probability.
	BloomFP float64
	// Hidden lists the stacked LSTM layer sizes (paper: 256, 256).
	Hidden []int
	// UseNoise enables probabilistic-noise training (§V-A-3).
	UseNoise bool
	// Lambda is the noise frequency parameter λ (paper: 10).
	Lambda float64
	// NoiseMaxFeatures is l, the max corrupted features per noisy package.
	NoiseMaxFeatures int
	// ThetaSeries is the acceptable false-positive rate θ for selecting k
	// (paper: 0.05).
	ThetaSeries float64
	// MaxK bounds the top-k error curve (paper plots k ≤ 10).
	MaxK int
	// Fit configures the LSTM optimizer loop. Training is deterministic:
	// one split, one Seed and one Fit give one model.
	Fit nn.TrainConfig
	// Checkpoint, when non-nil, receives a provisional framework after
	// every training epoch so long runs can be saved incrementally. The
	// framework shares the live (partially trained) model and uses k=1
	// until selection runs after the final epoch; the callback must not
	// retain it across epochs.
	Checkpoint func(epoch int, fw *Framework)
	// Seed drives all randomness.
	Seed uint64
}

// DefaultConfig returns a configuration that trains in seconds on small
// datasets while preserving every qualitative behaviour of the paper's
// setup.
func DefaultConfig() Config {
	return Config{
		Search:           signature.DefaultSearchConfig(),
		BloomFP:          0.005,
		Hidden:           []int{64, 64},
		UseNoise:         true,
		Lambda:           10,
		NoiseMaxFeatures: 3,
		ThetaSeries:      0.05,
		MaxK:             10,
		Fit: nn.TrainConfig{
			Epochs:    10,
			Window:    32,
			BatchSize: 8,
			LR:        2e-3,
			ClipNorm:  5,
		},
		Seed: 1,
	}
}

// PaperScale returns the paper's full-size configuration: two stacked LSTM
// layers of 256 units trained for 50 epochs.
func PaperScale() Config {
	cfg := DefaultConfig()
	cfg.Hidden = []int{256, 256}
	cfg.Fit.Epochs = 50
	return cfg
}

// Report captures everything the training pipeline measured, feeding the
// experiment harness (Figs. 5 and 6, Table III). Training calibrates k on
// the validation set only (§V-A-2), so the report holds no training-set
// top-k curve; Fig. 6 computes that one itself with TopKRanks.
type Report struct {
	// Granularity is the discretization actually used.
	Granularity signature.Granularity
	// SearchPoints holds the granularity search trace (nil when the
	// granularity was fixed).
	SearchPoints []signature.SearchPoint
	// Signatures is |S|.
	Signatures int
	// FinalLoss is the mean per-step softmax loss after the last epoch.
	FinalLoss float64
	// ValidationCurve is the validation top-k error curve k is chosen on
	// (Fig. 6); its length is the curve bound MaxK.
	ValidationCurve *metrics.TopKCurve
	// ChosenK is the selected k (paper: 4).
	ChosenK int
	// PackageErrv is the package-level validation error (expected FP rate).
	PackageErrv float64
}

// Train builds the complete two-level framework from an attack-free
// train/validation split: fits the discretizers, builds the signature
// database and Bloom filter, trains the stacked LSTM (with or without
// probabilistic noise), and selects k on the validation set.
func Train(split *dataset.Split, cfg Config) (*Framework, *Report, error) {
	if len(split.Train) == 0 || len(split.Validation) == 0 {
		return nil, nil, fmt.Errorf("core: empty train or validation fragments")
	}
	if cfg.BloomFP <= 0 || cfg.BloomFP >= 1 {
		return nil, nil, fmt.Errorf("core: BloomFP must be in (0,1), got %g", cfg.BloomFP)
	}
	if cfg.ThetaSeries <= 0 {
		return nil, nil, fmt.Errorf("core: ThetaSeries must be positive, got %g", cfg.ThetaSeries)
	}

	report := &Report{}

	// 1. Discretization: fixed granularity or the §IV-B search.
	var (
		enc *signature.Encoder
		db  *signature.DB
		err error
	)
	if (cfg.Granularity != signature.Granularity{}) {
		if err := cfg.Granularity.Validate(); err != nil {
			return nil, nil, err
		}
		enc, err = signature.FitEncoder(split.Train, cfg.Granularity, cfg.Seed)
		if err != nil {
			return nil, nil, err
		}
		db = signature.BuildDB(enc, split.Train)
		report.Granularity = cfg.Granularity
	} else {
		search := cfg.Search
		search.Seed = cfg.Seed
		res, err := signature.Search(split.Train, split.Validation, search)
		if err != nil {
			return nil, nil, err
		}
		enc, db = res.BestEncoder, res.BestDB
		report.Granularity = res.Best
		report.SearchPoints = res.Points
	}
	report.Signatures = db.Size()
	report.PackageErrv = db.ValidationError(enc, split.Validation)

	// 2. Package content level: Bloom filter over the signature database.
	pkg, err := NewPackageDetector(db, cfg.BloomFP)
	if err != nil {
		return nil, nil, err
	}

	// 3. Time-series level: stacked LSTM softmax classifier.
	ienc := NewInputEncoder(enc)
	model, err := nn.NewClassifier(ienc.Dim, cfg.Hidden, db.Size(), cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	var noise *NoiseInjector
	if cfg.UseNoise {
		noise, err = NewNoiseInjector(cfg.Lambda, cfg.NoiseMaxFeatures, db, ienc, cfg.Seed^0x5EED)
		if err != nil {
			return nil, nil, err
		}
	}
	seqs := BuildSequences(enc, ienc, db, split.Train, noise)
	fit := cfg.Fit
	fit.Seed = cfg.Seed ^ 0x7121
	if cfg.Checkpoint != nil {
		userEnd := fit.EpochEnd
		fit.EpochEnd = func(st nn.EpochStats) {
			if userEnd != nil {
				userEnd(st)
			}
			cfg.Checkpoint(st.Epoch, &Framework{
				Encoder: enc,
				DB:      db,
				Package: pkg,
				Series:  &TimeSeriesDetector{Model: model, K: 1},
				Input:   ienc,
			})
		}
	}
	loss, err := nn.Train(model, seqs, fit)
	if err != nil {
		return nil, nil, err
	}
	report.FinalLoss = loss

	series := &TimeSeriesDetector{Model: model, K: 1}

	// 4. Validation top-k error curve and k selection (§V-A-2, Fig. 6).
	maxK := cfg.MaxK
	if maxK < 1 {
		maxK = 10
	}
	curve, k, err := series.SelectK(enc, ienc, db, split.Validation, cfg.ThetaSeries, maxK)
	if err != nil {
		return nil, nil, err
	}
	report.ValidationCurve = curve
	report.ChosenK = k
	series.K = k

	return &Framework{
		Encoder: enc,
		DB:      db,
		Package: pkg,
		Series:  series,
		Input:   ienc,
	}, report, nil
}
