package baselines

import (
	"fmt"
	"math"

	"icsdetect/internal/mathx"
)

// IsolationForest implements Liu, Ting & Zhou's Isolation Forest [55]:
// anomalies are isolated by fewer random axis-aligned splits, so short
// average path lengths score high.
//
// The forest is one flat node array, every tree in preorder (a node's left
// child directly follows it) — the layout the snapshot writes (persist.go),
// so a walk touches consecutive cache lines on its left turns and
// persistence is a field-by-field copy.
type IsolationForest struct {
	nodes    []isoNode
	roots    []int32
	sub      int
	expected float64 // c(sub): average unsuccessful BST search length
}

var _ Scorer = (*IsolationForest)(nil)

// isoNode is one node of the flat forest. Internal nodes route x[attr] <
// split to left, else to right; leaves have left < 0 and carry the size of
// the subsample they isolate with its path-length term cost = c(size),
// computed once when the forest is built or restored.
type isoNode struct {
	split       float64
	cost        float64
	attr        int32
	left, right int32
	size        int32
}

// IForestConfig bundles the forest hyper-parameters (paper defaults of the
// original algorithm: 100 trees, subsample 256).
type IForestConfig struct {
	Trees     int
	Subsample int
	Seed      uint64
}

// NewIsolationForest fits the forest.
func NewIsolationForest(train [][]float64, cfg IForestConfig) (*IsolationForest, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: isolation forest needs training samples")
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	if cfg.Subsample <= 0 {
		cfg.Subsample = 256
	}
	if cfg.Subsample > len(train) {
		cfg.Subsample = len(train)
	}
	rng := mathx.NewRNG(cfg.Seed)
	maxDepth := int(math.Ceil(math.Log2(float64(cfg.Subsample)))) + 1

	f := &IsolationForest{sub: cfg.Subsample, expected: avgPathLength(cfg.Subsample)}
	for t := 0; t < cfg.Trees; t++ {
		perm := rng.Perm(len(train))
		sample := make([][]float64, cfg.Subsample)
		for i := 0; i < cfg.Subsample; i++ {
			sample[i] = train[perm[i]]
		}
		f.roots = append(f.roots, f.grow(sample, 0, maxDepth, rng))
	}
	return f, nil
}

// grow appends the isolation tree over data to f.nodes in preorder and
// returns its root's index.
func (f *IsolationForest) grow(data [][]float64, depth, maxDepth int, rng *mathx.RNG) int32 {
	idx := int32(len(f.nodes))
	if len(data) <= 1 || depth >= maxDepth {
		f.nodes = append(f.nodes, isoLeaf(len(data)))
		return idx
	}
	dim := len(data[0])
	// Pick an attribute with spread; give up after a few tries (all-equal
	// subsample).
	for try := 0; try < 8; try++ {
		attr := rng.Intn(dim)
		lo, hi := data[0][attr], data[0][attr]
		for _, x := range data[1:] {
			if x[attr] < lo {
				lo = x[attr]
			}
			if x[attr] > hi {
				hi = x[attr]
			}
		}
		if hi <= lo {
			continue
		}
		split := rng.Range(lo, hi)
		var left, right [][]float64
		for _, x := range data {
			if x[attr] < split {
				left = append(left, x)
			} else {
				right = append(right, x)
			}
		}
		if len(left) == 0 || len(right) == 0 {
			continue
		}
		f.nodes = append(f.nodes, isoNode{attr: int32(attr), split: split})
		l := f.grow(left, depth+1, maxDepth, rng)
		r := f.grow(right, depth+1, maxDepth, rng)
		f.nodes[idx].left, f.nodes[idx].right = l, r
		return idx
	}
	f.nodes = append(f.nodes, isoLeaf(len(data)))
	return idx
}

// isoLeaf is the leaf isolating size subsample points.
func isoLeaf(size int) isoNode {
	return isoNode{size: int32(size), cost: avgPathLength(size), left: -1, right: -1}
}

// avgPathLength is c(n), the average path length of an unsuccessful BST
// search, used to normalize scores.
func avgPathLength(n int) float64 {
	if n <= 1 {
		return 0
	}
	h := math.Log(float64(n-1)) + 0.5772156649015329 // harmonic number approx
	return 2*h - 2*float64(n-1)/float64(n)
}

// pathLength is h(x) in the tree rooted at root: the depth of the leaf x
// falls into plus that leaf's c(size).
func (f *IsolationForest) pathLength(root int32, x []float64) float64 {
	n := &f.nodes[root]
	depth := 0
	for n.left >= 0 {
		if x[n.attr] < n.split {
			n = &f.nodes[n.left]
		} else {
			n = &f.nodes[n.right]
		}
		depth++
	}
	return float64(depth) + n.cost
}

// Name implements Scorer.
func (f *IsolationForest) Name() string { return "IF" }

// Score returns the anomaly score 2^(−E[h(x)]/c(ψ)) ∈ (0,1]; values near 1
// are anomalies.
func (f *IsolationForest) Score(w *Window) float64 {
	return f.ScoreVector(w.Sample, nil)
}

// ScratchLen implements VectorScorer; tree walks need no scratch.
func (f *IsolationForest) ScratchLen() int { return 0 }

// ScoreVector implements VectorScorer.
func (f *IsolationForest) ScoreVector(x, _ []float64) float64 {
	var sum float64
	for _, root := range f.roots {
		sum += f.pathLength(root, x)
	}
	mean := sum / float64(len(f.roots))
	return math.Pow(2, -mean/f.expected)
}

var _ VectorScorer = (*IsolationForest)(nil)
