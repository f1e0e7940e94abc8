package baselines

import (
	"fmt"
	"math"

	"icsdetect/internal/mathx"
)

// SVDD is Support Vector Data Description [54]: the minimum enclosing
// hypersphere of the training data in an RBF-kernel feature space. The dual
//
//	min_α  Σ_ij α_i α_j K(x_i,x_j) − Σ_i α_i K(x_i,x_i)
//	s.t.   0 ≤ α_i ≤ C, Σ α_i = 1
//
// is solved with the Frank–Wolfe algorithm (pairwise variant), which needs
// only kernel rows and converges linearly on this simplex-constrained QP.
// The anomaly score is the squared feature-space distance to the center.
type SVDD struct {
	Gamma float64 // RBF kernel width: K(x,y)=exp(-γ‖x−y‖²)
	C     float64 // box constraint (soft margin)

	support [][]float64 // training points with α_i > 0
	alpha   []float64
	// aa = Σ_ij α_i α_j K(x_i,x_j), the constant ‖a‖² term of the distance.
	aa float64
}

var _ Scorer = (*SVDD)(nil)

// SVDDConfig bundles the SVDD hyper-parameters.
type SVDDConfig struct {
	Gamma    float64 // default: 1/dim
	C        float64 // default: 0.05 (≈ 5% outlier budget)
	MaxIter  int     // Frank–Wolfe iterations (default 300)
	MaxTrain int     // kernel-matrix budget: subsample above this (default 1500)
	Seed     uint64
}

// NewSVDD fits the model on training samples.
func NewSVDD(train [][]float64, cfg SVDDConfig) (*SVDD, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: svdd needs training samples")
	}
	dim := len(train[0])
	if cfg.Gamma <= 0 {
		cfg.Gamma = 1 / float64(dim)
	}
	if cfg.C <= 0 {
		cfg.C = 0.05
	}
	if cfg.MaxIter <= 0 {
		cfg.MaxIter = 300
	}
	if cfg.MaxTrain <= 0 {
		cfg.MaxTrain = 1500
	}
	// Subsample to bound the kernel matrix.
	pts := train
	if len(pts) > cfg.MaxTrain {
		rng := mathx.NewRNG(cfg.Seed)
		perm := rng.Perm(len(pts))
		sub := make([][]float64, cfg.MaxTrain)
		for i := 0; i < cfg.MaxTrain; i++ {
			sub[i] = pts[perm[i]]
		}
		pts = sub
	}
	n := len(pts)
	// C must admit Σα=1: C*n >= 1.
	if cfg.C*float64(n) < 1 {
		cfg.C = 2 / float64(n)
	}

	// Precompute the kernel matrix (n ≤ MaxTrain keeps this ≤ ~18 MB).
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := rbf(pts[i], pts[j], cfg.Gamma)
			k[i][j] = v
			k[j][i] = v
		}
	}

	// Frank–Wolfe with away steps on the scaled simplex {0≤α≤C, Σα=1}.
	alpha := make([]float64, n)
	// Feasible start: spread uniformly over ceil(1/C) points.
	m := int(math.Ceil(1 / cfg.C))
	if m > n {
		m = n
	}
	for i := 0; i < m; i++ {
		alpha[i] = 1 / float64(m)
	}
	// gradient g_i = 2 Σ_j α_j K_ij − K_ii
	grad := make([]float64, n)
	recompute := func() {
		for i := 0; i < n; i++ {
			var s float64
			for j := 0; j < n; j++ {
				if alpha[j] != 0 {
					s += alpha[j] * k[i][j]
				}
			}
			grad[i] = 2*s - k[i][i]
		}
	}
	recompute()
	for iter := 0; iter < cfg.MaxIter; iter++ {
		// Toward vertex: index with the most negative gradient among those
		// with α < C; away vertex: most positive gradient among α > 0.
		to, away := -1, -1
		for i := 0; i < n; i++ {
			if alpha[i] < cfg.C-1e-12 && (to < 0 || grad[i] < grad[to]) {
				to = i
			}
			if alpha[i] > 1e-12 && (away < 0 || grad[i] > grad[away]) {
				away = i
			}
		}
		if to < 0 || away < 0 || to == away || grad[away]-grad[to] < 1e-9 {
			break
		}
		// Pairwise step: move mass δ from away to to. Optimal δ for the
		// quadratic along direction (e_to − e_away):
		//   δ* = (g_away − g_to) / (2 (K_tt − 2K_ta + K_aa))
		denom := 2 * (k[to][to] - 2*k[to][away] + k[away][away])
		var delta float64
		if denom <= 1e-15 {
			delta = alpha[away]
		} else {
			delta = (grad[away] - grad[to]) / denom
		}
		maxDelta := math.Min(alpha[away], cfg.C-alpha[to])
		delta = mathx.Clamp(delta, 0, maxDelta)
		if delta == 0 {
			break
		}
		alpha[to] += delta
		alpha[away] -= delta
		for i := 0; i < n; i++ {
			grad[i] += 2 * delta * (k[i][to] - k[i][away])
		}
	}

	s := &SVDD{Gamma: cfg.Gamma, C: cfg.C}
	for i, a := range alpha {
		if a > 1e-10 {
			s.support = append(s.support, pts[i])
			s.alpha = append(s.alpha, a)
		}
	}
	for i := range s.support {
		for j := range s.support {
			s.aa += s.alpha[i] * s.alpha[j] * rbf(s.support[i], s.support[j], cfg.Gamma)
		}
	}
	return s, nil
}

// sqDist is ‖a−b‖².
func sqDist(a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return d2
}

func rbf(a, b []float64, gamma float64) float64 {
	return math.Exp(-gamma * sqDist(a, b))
}

// Name implements Scorer.
func (s *SVDD) Name() string { return "SVDD" }

// Score returns the squared feature-space distance to the hypersphere
// center: K(x,x) − 2Σ α_i K(x,x_i) + ‖a‖². For RBF, K(x,x)=1.
func (s *SVDD) Score(w *Window) float64 {
	return s.ScoreVector(w.Sample, make([]float64, s.ScratchLen()))
}

// ScratchLen implements VectorScorer: one kernel value per support vector.
func (s *SVDD) ScratchLen() int { return len(s.support) }

// ScoreVector implements VectorScorer. The kernel exponents of all support
// vectors go through one mathx.VExp pass (bitwise math.Exp, so each value
// equals rbf's) before the sum accumulates them in support order.
func (s *SVDD) ScoreVector(x, scratch []float64) float64 {
	k := scratch[:len(s.support)]
	for i, sv := range s.support {
		k[i] = -s.Gamma * sqDist(x, sv)
	}
	mathx.VExp(k, k)
	var cross float64
	for i, a := range s.alpha {
		cross += a * k[i]
	}
	return 1 - 2*cross + s.aa
}

var _ VectorScorer = (*SVDD)(nil)

// SupportVectors returns the number of support vectors (diagnostics).
func (s *SVDD) SupportVectors() int { return len(s.support) }
