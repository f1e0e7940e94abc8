package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adam optimizer (Kingma & Ba), the de-facto default
// for LSTM training.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m [][]float64
	v [][]float64
}

// NewAdam constructs Adam with standard hyper-parameters (β1=0.9, β2=0.999,
// ε=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update.
func (o *Adam) Step(params []Param, grads [][]float64) error {
	if len(params) != len(grads) {
		return fmt.Errorf("nn: adam: %d params vs %d grads", len(params), len(grads))
	}
	if o.m == nil {
		o.m = make([][]float64, len(params))
		o.v = make([][]float64, len(params))
		for i, p := range params {
			o.m[i] = make([]float64, len(p.Data))
			o.v[i] = make([]float64, len(p.Data))
		}
	}
	o.t++
	// Bias-corrected step size.
	lrT := o.LR * math.Sqrt(1-math.Pow(o.Beta2, float64(o.t))) / (1 - math.Pow(o.Beta1, float64(o.t)))
	for i, p := range params {
		g := grads[i]
		if len(g) != len(p.Data) {
			return fmt.Errorf("nn: adam: param %q has %d values, grad has %d", p.Name, len(p.Data), len(g))
		}
		m, v := o.m[i], o.v[i]
		for j := range p.Data {
			m[j] = o.Beta1*m[j] + (1-o.Beta1)*g[j]
			v[j] = o.Beta2*v[j] + (1-o.Beta2)*g[j]*g[j]
			p.Data[j] -= lrT * m[j] / (math.Sqrt(v[j]) + o.Epsilon)
		}
	}
	return nil
}
