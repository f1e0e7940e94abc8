// Package nn is the from-scratch neural substrate for the time-series level
// anomaly detector: LSTM layers implementing exactly the memory-cell
// equations of the paper (§V, Fig. 1), a dense softmax head (Fig. 2),
// cross-entropy loss, full backpropagation through time, the Adam
// optimizer, and lock-step minibatch trainers for the classifier and the
// reconstruction nets. It has no dependencies beyond the repository's
// math kernels.
package nn

import (
	"fmt"
	"math"
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// Gate block offsets inside the concatenated 4H gate vector. The order is
// (input, forget, output, cell-candidate), matching the paper's
// (i_t, f_t, o_t, g_t).
const (
	gateI = iota
	gateF
	gateO
	gateG
	numGates
)

// LSTMLayer is one layer of memory cells:
//
//	i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//	f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//	o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//	g_t = τ(W_g x_t + U_g h_{t-1} + b_g)
//	c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//	h_t = o_t ⊙ τ(c_t)
//
// with τ = tanh. The four per-gate weight matrices are stored stacked:
// W is (4H × I), U is (4H × H), B is 4H.
type LSTMLayer struct {
	InputSize  int
	HiddenSize int
	W          *mathx.Matrix
	U          *mathx.Matrix
	B          []float64

	// Cached inference layouts (infer.go): packed GEMV tiles of W and U,
	// each built when first multiplied, and the transposed W the one-hot
	// gather walks. Unexported so gob skips them; dropped by
	// Classifier.InvalidateInference on weight mutation.
	packW, packU atomic.Pointer[mathx.PackedGEMV]
	wt           atomic.Pointer[mathx.Matrix]
}

// NewLSTMLayer allocates a layer with Xavier/Glorot-uniform weights and the
// customary forget-gate bias of 1 (keeps memory open early in training).
func NewLSTMLayer(inputSize, hiddenSize int, rng *mathx.RNG) *LSTMLayer {
	l := &LSTMLayer{
		InputSize:  inputSize,
		HiddenSize: hiddenSize,
		W:          mathx.NewMatrix(numGates*hiddenSize, inputSize),
		U:          mathx.NewMatrix(numGates*hiddenSize, hiddenSize),
		B:          make([]float64, numGates*hiddenSize),
	}
	xavierInit(l.W, inputSize, hiddenSize, rng)
	xavierInit(l.U, hiddenSize, hiddenSize, rng)
	for h := 0; h < hiddenSize; h++ {
		l.B[gateF*hiddenSize+h] = 1
	}
	return l
}

func xavierInit(m *mathx.Matrix, fanIn, fanOut int, rng *mathx.RNG) {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range m.Data {
		m.Data[i] = rng.Range(-bound, bound)
	}
}

// lstmGrads accumulates gradients for one layer.
type lstmGrads struct {
	dW *mathx.Matrix
	dU *mathx.Matrix
	dB []float64
}

func newLSTMGrads(l *LSTMLayer) *lstmGrads {
	return &lstmGrads{
		dW: mathx.NewMatrix(l.W.Rows, l.W.Cols),
		dU: mathx.NewMatrix(l.U.Rows, l.U.Cols),
		dB: make([]float64, len(l.B)),
	}
}

// stepInfer is the allocation-free inference step: gate pre-activations
// go through the caller's z scratch and h/c update in place. It runs on
// the packed inference weights (infer.go) with the bias and gate epilogue
// fused, but per element it performs exactly the operations of the
// per-window reference step (stepForward in train_oracle_test.go) in the
// same order — gate pre-activation sums, activations, then the
// cell/hidden update — so inference stays bitwise-identical to that
// reference, to the lock-step trainer's forward and to the batched
// StepBatchLogits (which also updates h/c in place).
func (l *LSTMLayer) stepInfer(z, x, h, c []float64) {
	lazyPack(&l.packW, l.W).Apply(z, x, nil, mathx.GemvSet)
	lazyPack(&l.packU, l.U).Apply(z, h, l.B, mathx.GemvAddBias)
	l.gatesCellUpdate(z, h, c)
}

// params returns the layer's parameter tensors (aliases, not copies).
func (l *LSTMLayer) params() []Param {
	return []Param{
		{Name: "W", Data: l.W.Data},
		{Name: "U", Data: l.U.Data},
		{Name: "B", Data: l.B},
	}
}

func (g *lstmGrads) slices() [][]float64 {
	return [][]float64{g.dW.Data, g.dU.Data, g.dB}
}

// shaped reports whether m is a rows×cols matrix whose data has exactly
// that many elements.
func shaped(m *mathx.Matrix, rows, cols int) bool {
	return m != nil && m.Rows == rows && m.Cols == cols && len(m.Data) == rows*cols
}

// validate reports structural corruption after deserialization.
func (l *LSTMLayer) validate() error {
	if l.HiddenSize <= 0 || l.InputSize <= 0 {
		return fmt.Errorf("nn: LSTM layer with non-positive sizes (%d, %d)", l.InputSize, l.HiddenSize)
	}
	if !shaped(l.W, numGates*l.HiddenSize, l.InputSize) ||
		!shaped(l.U, numGates*l.HiddenSize, l.HiddenSize) ||
		len(l.B) != numGates*l.HiddenSize {
		return fmt.Errorf("nn: LSTM layer shape corruption")
	}
	return nil
}
