package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// Param is one flat parameter tensor of the model. Data aliases model
// storage, so optimizer updates apply in place.
type Param struct {
	Name string
	Data []float64
}

// Classifier is the stacked LSTM softmax classifier of the paper (Fig. 2):
// one-hot encoded discretized packages pass through one or more LSTM layers;
// the last hidden vector maps through a dense layer to |S| logits and a
// softmax activation producing Pr(s_i | c(t-1), c(t-2), …).
type Classifier struct {
	Layers []*LSTMLayer
	Out    *Dense

	// m32 caches the frozen float32 inference snapshot (built lazily by
	// Infer32, dropped by InvalidateInference). Unexported, so gob skips it.
	m32 atomic.Pointer[InferModel32]
}

// NewClassifier builds a classifier with the given input dimensionality,
// hidden layer sizes (one per stacked LSTM layer) and number of signature
// classes.
func NewClassifier(inputSize int, hidden []int, classes int, seed uint64) (*Classifier, error) {
	if inputSize <= 0 || classes <= 0 {
		return nil, fmt.Errorf("nn: invalid classifier sizes (input=%d classes=%d)", inputSize, classes)
	}
	if len(hidden) == 0 {
		return nil, fmt.Errorf("nn: at least one LSTM layer is required")
	}
	rng := mathx.NewRNG(seed)
	c := &Classifier{}
	in := inputSize
	for _, h := range hidden {
		if h <= 0 {
			return nil, fmt.Errorf("nn: non-positive hidden size %d", h)
		}
		c.Layers = append(c.Layers, NewLSTMLayer(in, h, rng))
		in = h
	}
	c.Out = NewDense(in, classes, rng)
	return c, nil
}

// InputSize returns the expected input vector length.
func (c *Classifier) InputSize() int { return c.Layers[0].InputSize }

// Classes returns |S|, the softmax width.
func (c *Classifier) Classes() int { return c.Out.OutputSize }

// NumParams returns the total number of scalar parameters.
func (c *Classifier) NumParams() int {
	n := 0
	for _, p := range c.Params() {
		n += len(p.Data)
	}
	return n
}

// Params returns all parameter tensors in a stable order.
func (c *Classifier) Params() []Param {
	var out []Param
	for i, l := range c.Layers {
		for _, p := range l.params() {
			p.Name = "lstm" + strconv.Itoa(i) + "." + p.Name
			out = append(out, p)
		}
	}
	for _, p := range c.Out.params() {
		p.Name = "out." + p.Name
		out = append(out, p)
	}
	return out
}

// State is the recurrent state (h_t, c_t per layer) of a streaming
// classification session. The combined detector keeps one State per
// monitored link.
type State struct {
	h, c [][]float64
	// z is per-layer gate pre-activation scratch for the allocation-free
	// sequential inference step (StepLogits).
	z [][]float64
}

// NewState returns a zero state for the classifier.
func (c *Classifier) NewState() *State {
	s := &State{
		h: make([][]float64, len(c.Layers)),
		c: make([][]float64, len(c.Layers)),
		z: make([][]float64, len(c.Layers)),
	}
	for i, l := range c.Layers {
		s.h[i] = make([]float64, l.HiddenSize)
		s.c[i] = make([]float64, l.HiddenSize)
		s.z[i] = make([]float64, numGates*l.HiddenSize)
	}
	return s
}

// Reset zeroes the state in place (fragment boundaries).
func (s *State) Reset() {
	for i := range s.h {
		mathx.Fill(s.h[i], 0)
		mathx.Fill(s.c[i], 0)
	}
}

// Clone deep-copies the state.
func (s *State) Clone() *State {
	out := &State{
		h: make([][]float64, len(s.h)),
		c: make([][]float64, len(s.c)),
		z: make([][]float64, len(s.z)),
	}
	for i := range s.h {
		out.h[i] = append([]float64(nil), s.h[i]...)
		out.c[i] = append([]float64(nil), s.c[i]...)
		out.z[i] = make([]float64, len(s.z[i]))
	}
	return out
}

// Step advances the recurrent state with input x and writes the class
// probability vector into probs (len = Classes()).
func (c *Classifier) Step(state *State, x, probs []float64) {
	c.StepLogits(state, x, probs)
	mathx.Softmax(probs, probs)
}

// StepLogits is Step without the final softmax: scores receives the raw
// logit vector. Softmax is monotone, so top-k ranking over logits agrees
// with ranking over probabilities up to float rounding — and unlike
// probabilities, distinct logits can never collapse into a tie, so
// inference paths that only need ranks use this variant (it also skips
// Classes() exponentials per step).
func (c *Classifier) StepLogits(state *State, x, scores []float64) {
	cur := x
	for i, l := range c.Layers {
		l.stepInfer(state.z[i], cur, state.h[i], state.c[i])
		cur = state.h[i]
	}
	c.Out.forwardInfer(scores, cur)
}

// GradBuffer accumulates gradients for every parameter of a classifier
// over one minibatch.
type GradBuffer struct {
	lstm    []*lstmGrads
	dense   *denseGrads
	tensors [][]float64 // every tensor above, in Classifier.Params order
	// Steps counts the timesteps accumulated, used to normalize.
	Steps int
}

// NewGradBuffer allocates a zeroed gradient buffer shaped like c.
func (c *Classifier) NewGradBuffer() *GradBuffer {
	g := &GradBuffer{dense: newDenseGrads(c.Out)}
	for _, l := range c.Layers {
		lg := newLSTMGrads(l)
		g.lstm = append(g.lstm, lg)
		g.tensors = append(g.tensors, lg.slices()...)
	}
	g.tensors = append(g.tensors, g.dense.slices()...)
	return g
}

// Slices returns the flat gradient tensors in the same order as
// Classifier.Params. The list is built once and shared by every call, so
// callers must not modify it.
func (g *GradBuffer) Slices() [][]float64 { return g.tensors }

// Zero clears the buffer.
func (g *GradBuffer) Zero() {
	for _, s := range g.Slices() {
		mathx.Fill(s, 0)
	}
	g.Steps = 0
}

// ClipAndScale normalizes by the accumulated step count and applies global
// gradient-norm clipping; it returns the pre-clip norm.
func (g *GradBuffer) ClipAndScale(clipNorm float64) float64 {
	if g.Steps > 0 {
		inv := 1 / float64(g.Steps)
		for _, s := range g.Slices() {
			for i := range s {
				s[i] *= inv
			}
		}
	}
	var norm float64
	for _, s := range g.Slices() {
		for _, v := range s {
			norm += v * v
		}
	}
	norm = math.Sqrt(norm)
	if clipNorm > 0 && norm > clipNorm {
		scale := clipNorm / norm
		for _, s := range g.Slices() {
			for i := range s {
				s[i] *= scale
			}
		}
	}
	return norm
}

// Sequence is one training window: Inputs[t] is the one-hot encoded
// discretized package c(t-1) (plus noise bit) and Targets[t] is the class
// index of the *next* package's signature. A negative target skips the loss
// at that step.
type Sequence struct {
	Inputs  [][]float64
	Targets []int
}

// Save serializes the classifier with gob.
func (c *Classifier) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(c); err != nil {
		return fmt.Errorf("nn: save classifier: %w", err)
	}
	return nil
}

// Load deserializes a classifier saved with Save and validates its shapes.
func Load(r io.Reader) (*Classifier, error) {
	var c Classifier
	if err := gob.NewDecoder(r).Decode(&c); err != nil {
		return nil, fmt.Errorf("nn: load classifier: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// Validate reports structural corruption after deserialization: a
// missing part, a tensor whose shape or data length is wrong, or layers
// whose widths do not chain. Load and core.Load run it.
func (c *Classifier) Validate() error {
	if len(c.Layers) == 0 || c.Out == nil {
		return fmt.Errorf("nn: classifier is empty")
	}
	for i, l := range c.Layers {
		if l == nil {
			return fmt.Errorf("nn: classifier layer %d is missing", i)
		}
		if err := l.validate(); err != nil {
			return err
		}
		if i > 0 && l.InputSize != c.Layers[i-1].HiddenSize {
			return fmt.Errorf("nn: classifier layer %d reads %d inputs, layer %d has %d units",
				i, l.InputSize, i-1, c.Layers[i-1].HiddenSize)
		}
	}
	if err := c.Out.validate(); err != nil {
		return err
	}
	if top := c.Layers[len(c.Layers)-1].HiddenSize; c.Out.InputSize != top {
		return fmt.Errorf("nn: classifier head reads %d inputs, top layer has %d units", c.Out.InputSize, top)
	}
	return nil
}
