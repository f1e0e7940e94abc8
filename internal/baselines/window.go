// Package baselines implements the six comparison models of the paper's
// Table IV/V: a 4-package Bloom filter (BF), a Bayesian network with
// structure learned from data (BN) [53], Support Vector Data Description
// (SVDD) [54], Isolation Forest (IF) [55], a Gaussian Mixture Model (GMM)
// and PCA with SVD (PCA-SVD) [52].
//
// Following §VIII-C, the windowed models consume "four consecutive packages,
// representing a complete command response cycle, as a single data sample",
// and their hyper-parameters/thresholds are tuned for best F1-score subject
// to accuracy above 0.7.
package baselines

import (
	"fmt"
	"math"

	"icsdetect/internal/dataset"
	"icsdetect/internal/signature"
)

// WindowSize is the number of consecutive packages per sample (a full
// command-response cycle in the gas pipeline dataset).
const WindowSize = 4

// Window is one 4-package sample.
type Window struct {
	// Sample is the standardized numeric feature vector (WindowSize × 17).
	Sample []float64
	// Sigs holds the per-package signatures (for the BF baseline).
	Sigs []string
	// Discrete holds the per-package discretized vectors (for the BN
	// baseline), concatenated.
	Discrete []int
	// Label is the window's ground truth: the first non-normal package
	// label, or Normal.
	Label dataset.AttackType
	// Packages are the constituent packages (for per-package accounting).
	Packages []*dataset.Package
}

// IsAttack reports whether the window contains attack traffic.
func (w *Window) IsAttack() bool { return w.Label != dataset.Normal }

// numericInto writes the 17 per-package numeric features (the 16 Table I
// columns with the timestamp replaced by the inter-package interval) into
// dst[:numericDim].
func numericInto(dst []float64, prev, cur *dataset.Package) {
	dst[0] = cur.Address
	dst[1] = cur.CRCRate
	dst[2] = cur.Function
	dst[3] = cur.Length
	dst[4] = cur.Setpoint
	dst[5] = cur.Gain
	dst[6] = cur.ResetRate
	dst[7] = cur.Deadband
	dst[8] = cur.CycleTime
	dst[9] = cur.Rate
	dst[10] = cur.SystemMode
	dst[11] = cur.ControlScheme
	dst[12] = cur.Pump
	dst[13] = cur.Solenoid
	dst[14] = cur.Pressure
	dst[15] = cur.CmdResponse
	dst[16] = dataset.Interval(prev, cur)
}

// numericVector allocates the per-package numeric feature vector.
func numericVector(prev, cur *dataset.Package) []float64 {
	x := make([]float64, numericDim)
	numericInto(x, prev, cur)
	return x
}

// numericDim is the per-package numeric feature count.
const numericDim = 17

// Standardizer performs per-dimension z-score normalization fitted on
// training windows, required by the kernel and distance based baselines.
type Standardizer struct {
	Mean, Std []float64
}

// FitStandardizer computes per-dimension statistics.
func FitStandardizer(samples [][]float64) (*Standardizer, error) {
	if len(samples) == 0 {
		return nil, fmt.Errorf("baselines: no samples to standardize")
	}
	dim := len(samples[0])
	s := &Standardizer{Mean: make([]float64, dim), Std: make([]float64, dim)}
	for _, x := range samples {
		for i, v := range x {
			s.Mean[i] += v
		}
	}
	n := float64(len(samples))
	for i := range s.Mean {
		s.Mean[i] /= n
	}
	for _, x := range samples {
		for i, v := range x {
			d := v - s.Mean[i]
			s.Std[i] += d * d
		}
	}
	for i := range s.Std {
		s.Std[i] = math.Sqrt(s.Std[i] / n)
		if s.Std[i] < 1e-9 {
			s.Std[i] = 1 // constant feature: leave centered at 0
		}
	}
	return s, nil
}

// Validate reports a standardizer that cannot standardize a window
// sample: Mean and Std must each hold SampleDim values, and every Std
// must be finite and positive. The window-level snapshot decoders (here
// and in internal/recon) run it.
func (s *Standardizer) Validate() error {
	if len(s.Mean) != SampleDim || len(s.Std) != SampleDim {
		return fmt.Errorf("baselines: standardizer has %d means and %d deviations, want %d",
			len(s.Mean), len(s.Std), SampleDim)
	}
	for i, v := range s.Std {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("baselines: standardizer deviation %d is %v", i, v)
		}
	}
	return nil
}

// Apply standardizes x in place and returns it.
func (s *Standardizer) Apply(x []float64) []float64 {
	for i := range x {
		x[i] = (x[i] - s.Mean[i]) / s.Std[i]
	}
	return x
}

// Windowizer builds windows from package streams using a fitted signature
// encoder (shared with the main framework so all models see the same
// discretization).
type Windowizer struct {
	enc *signature.Encoder
	std *Standardizer
}

// SampleDim is the numeric feature dimensionality of one window sample.
const SampleDim = WindowSize * numericDim

// NewWindowizerWith reassembles a windowizer from its parts (a fitted
// encoder and a previously fitted standardizer) — the load path of the
// persisted streaming window levels.
func NewWindowizerWith(enc *signature.Encoder, std *Standardizer) *Windowizer {
	return &Windowizer{enc: enc, std: std}
}

// Std returns the fitted standardizer.
func (wz *Windowizer) Std() *Standardizer { return wz.std }

// NewWindowizer fits the standardizer on the training fragments.
func NewWindowizer(enc *signature.Encoder, train []dataset.Fragment) (*Windowizer, error) {
	var samples [][]float64
	for _, frag := range train {
		for _, w := range slice4(frag) {
			samples = append(samples, rawSample(padded(w)))
		}
	}
	std, err := FitStandardizer(samples)
	if err != nil {
		return nil, err
	}
	return &Windowizer{enc: enc, std: std}, nil
}

// isCycleStart reports whether a package begins a command-response cycle
// (a write command from the master).
func isCycleStart(p *dataset.Package) bool {
	return p.CmdResponse == 1 && p.Function == 0x10
}

// slice4 groups a package sequence into command-response cycle windows of
// at most WindowSize packages: a write command always begins a new window,
// so normal traffic yields aligned (write, ack, read, response) cycles while
// injected traffic produces short or misaligned windows. Feature vectors of
// short windows are padded by build.
func slice4(pkgs []*dataset.Package) [][]*dataset.Package {
	var out [][]*dataset.Package
	var cur []*dataset.Package
	flush := func() {
		if len(cur) > 0 {
			out = append(out, cur)
			cur = nil
		}
	}
	for _, p := range pkgs {
		if isCycleStart(p) && len(cur) > 0 {
			flush()
		}
		cur = append(cur, p)
		if len(cur) == WindowSize {
			flush()
		}
	}
	flush()
	return out
}

// padded returns pkgs extended to WindowSize by repeating the last package
// (feature-level padding only; Window.Packages stays unpadded).
func padded(pkgs []*dataset.Package) []*dataset.Package {
	if len(pkgs) >= WindowSize {
		return pkgs
	}
	out := append([]*dataset.Package(nil), pkgs...)
	for len(out) < WindowSize {
		out = append(out, out[len(out)-1])
	}
	return out
}

func rawSample(pkgs []*dataset.Package) []float64 {
	x := make([]float64, 0, WindowSize*numericDim)
	var prev *dataset.Package
	for _, p := range pkgs {
		x = append(x, numericVector(prev, p)...)
		prev = p
	}
	return x
}

// SampleInto writes the standardized numeric sample of a complete
// (WindowSize-package) window into dst[:SampleDim] without allocating,
// with values bitwise-identical to Build's Sample. It is the streaming
// window levels' hot-path sample builder.
func (wz *Windowizer) SampleInto(dst []float64, pkgs []*dataset.Package) {
	if len(pkgs) != WindowSize {
		panic(fmt.Sprintf("baselines: SampleInto over %d packages, want %d", len(pkgs), WindowSize))
	}
	var prev *dataset.Package
	for i, p := range pkgs {
		numericInto(dst[i*numericDim:(i+1)*numericDim], prev, p)
		prev = p
	}
	wz.std.Apply(dst[:SampleDim])
}

// Build constructs a fully populated window (padding short windows at the
// feature level, like the offline evaluation path).
func (wz *Windowizer) Build(pkgs []*dataset.Package) *Window { return wz.build(pkgs) }

// build constructs a fully populated window.
func (wz *Windowizer) build(pkgs []*dataset.Package) *Window {
	full := padded(pkgs)
	w := &Window{
		Sample:   wz.std.Apply(rawSample(full)),
		Packages: pkgs,
	}
	var prev *dataset.Package
	for _, p := range full {
		c := wz.enc.Encode(prev, p)
		w.Discrete = append(w.Discrete, c...)
		w.Sigs = append(w.Sigs, signature.Signature(c))
		prev = p
	}
	for _, p := range pkgs {
		if w.Label == dataset.Normal && p.Label != dataset.Normal {
			w.Label = p.Label
		}
	}
	return w
}

// FromFragments windows attack-free fragments (training data).
func (wz *Windowizer) FromFragments(frags []dataset.Fragment) []*Window {
	var out []*Window
	for _, frag := range frags {
		for _, pkgs := range slice4(frag) {
			out = append(out, wz.build(pkgs))
		}
	}
	return out
}

// FromStream windows a raw package stream (the test set, anomalies
// included).
func (wz *Windowizer) FromStream(pkgs []*dataset.Package) []*Window {
	var out []*Window
	for _, w := range slice4(pkgs) {
		out = append(out, wz.build(w))
	}
	return out
}

// Samples extracts the numeric vectors of windows.
func Samples(ws []*Window) [][]float64 {
	out := make([][]float64, len(ws))
	for i, w := range ws {
		out[i] = w.Sample
	}
	return out
}
