package nn

import (
	"fmt"
	"sync/atomic"

	"icsdetect/internal/mathx"
)

// Dense is the fully connected output layer mapping the last LSTM layer's
// hidden vector to the |S|-dimensional logit vector z that feeds the softmax
// activation layer (paper Fig. 2).
type Dense struct {
	InputSize  int
	OutputSize int
	W          *mathx.Matrix // OutputSize × InputSize
	B          []float64

	// Cached packed-GEMV layout for inference (infer.go); unexported so
	// gob skips it, dropped on weight mutation.
	pack atomic.Pointer[mathx.PackedGEMV]
}

// NewDense allocates a Xavier-initialized dense layer.
func NewDense(inputSize, outputSize int, rng *mathx.RNG) *Dense {
	d := &Dense{
		InputSize:  inputSize,
		OutputSize: outputSize,
		W:          mathx.NewMatrix(outputSize, inputSize),
		B:          make([]float64, outputSize),
	}
	xavierInit(d.W, inputSize, outputSize, rng)
	return d
}

type denseGrads struct {
	dW *mathx.Matrix
	dB []float64
}

func newDenseGrads(d *Dense) *denseGrads {
	return &denseGrads{dW: mathx.NewMatrix(d.W.Rows, d.W.Cols), dB: make([]float64, len(d.B))}
}

func (d *Dense) params() []Param {
	return []Param{
		{Name: "W", Data: d.W.Data},
		{Name: "B", Data: d.B},
	}
}

func (g *denseGrads) slices() [][]float64 {
	return [][]float64{g.dW.Data, g.dB}
}

func (d *Dense) validate() error {
	if d.InputSize <= 0 || d.OutputSize <= 0 {
		return fmt.Errorf("nn: dense layer with non-positive sizes (%d, %d)", d.InputSize, d.OutputSize)
	}
	if !shaped(d.W, d.OutputSize, d.InputSize) || len(d.B) != d.OutputSize {
		return fmt.Errorf("nn: dense layer shape corruption")
	}
	return nil
}
