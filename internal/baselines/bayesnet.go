package baselines

import (
	"fmt"
	"math"
	"sort"
)

// BayesNet is the Bayesian network baseline "whose structure is
// automatically learned from training data" [53]: a Chow-Liu tree over the
// discretized features of the 4-package window, scored by negative
// log-likelihood. The Chow-Liu construction is the classic
// information-theoretic structure learner: it finds the maximum spanning
// tree of pairwise mutual information, which maximizes the likelihood among
// all tree-shaped networks.
type BayesNet struct {
	// parent[i] is the parent variable of node i in the tree (-1 for the
	// root).
	parent []int
	// card[i] is the cardinality of variable i.
	card []int
	// cpt[i] holds P(x_i | parent value) as log-probabilities:
	// cpt[i][pv*card[i]+v]. The root uses pv=0.
	cpt [][]float64
}

var _ DiscreteScorer = (*BayesNet)(nil)

// NewBayesNet learns structure and parameters from attack-free training
// windows.
func NewBayesNet(train []*Window) (*BayesNet, error) {
	if len(train) == 0 {
		return nil, fmt.Errorf("baselines: bayes net needs training windows")
	}
	nvar := len(train[0].Discrete)
	data := make([][]int, len(train))
	for i, w := range train {
		if len(w.Discrete) != nvar {
			return nil, fmt.Errorf("baselines: window %d has %d variables, want %d", i, len(w.Discrete), nvar)
		}
		data[i] = w.Discrete
	}

	card := make([]int, nvar)
	for _, row := range data {
		for i, v := range row {
			if v+1 > card[i] {
				card[i] = v + 1
			}
		}
	}
	// Allow one extra value per variable so unseen test values stay inside
	// the CPT domain (they receive only Laplace mass).
	for i := range card {
		card[i]++
	}

	bn := &BayesNet{card: card}
	bn.learnStructure(data)
	bn.fitCPTs(data)
	return bn, nil
}

// learnStructure computes pairwise mutual information and extracts the
// maximum spanning tree (Prim's algorithm), rooted at variable 0.
func (bn *BayesNet) learnStructure(data [][]int) {
	nvar := len(bn.card)
	n := float64(len(data))

	// Counts live in dense arrays reused across pairs, and the joint is
	// summed in index order: summing over a map would follow Go's random
	// map order, so the float sum — and with it a near-tied edge of the
	// tree — could change between trainings.
	maxCard := 0
	for _, c := range bn.card {
		maxCard = max(maxCard, c)
	}
	joint := make([]float64, maxCard*maxCard)
	ma := make([]float64, maxCard)
	mb := make([]float64, maxCard)
	mi := func(a, b int) float64 {
		ca, cb := bn.card[a], bn.card[b]
		joint, ma, mb := joint[:ca*cb], ma[:ca], mb[:cb]
		clear(joint)
		clear(ma)
		clear(mb)
		for _, row := range data {
			joint[row[a]*cb+row[b]]++
			ma[row[a]]++
			mb[row[b]]++
		}
		var m float64
		for x := 0; x < ca; x++ {
			for y := 0; y < cb; y++ {
				c := joint[x*cb+y]
				if c == 0 {
					continue
				}
				pxy := c / n
				px := ma[x] / n
				py := mb[y] / n
				m += pxy * math.Log(pxy/(px*py))
			}
		}
		return m
	}

	// Prim's MST over the complete MI graph.
	inTree := make([]bool, nvar)
	bestEdge := make([]float64, nvar)
	bestFrom := make([]int, nvar)
	bn.parent = make([]int, nvar)
	for i := range bestEdge {
		bestEdge[i] = -1
		bestFrom[i] = -1
		bn.parent[i] = -1
	}
	inTree[0] = true
	for i := 1; i < nvar; i++ {
		bestEdge[i] = mi(0, i)
		bestFrom[i] = 0
	}
	for added := 1; added < nvar; added++ {
		// Pick the highest-MI frontier edge, ties broken by index for
		// determinism.
		pick := -1
		for i := 0; i < nvar; i++ {
			if !inTree[i] && (pick < 0 || bestEdge[i] > bestEdge[pick]) {
				pick = i
			}
		}
		inTree[pick] = true
		bn.parent[pick] = bestFrom[pick]
		for i := 0; i < nvar; i++ {
			if !inTree[i] {
				if w := mi(pick, i); w > bestEdge[i] {
					bestEdge[i] = w
					bestFrom[i] = pick
				}
			}
		}
	}
}

// fitCPTs estimates conditional probability tables with Laplace smoothing.
func (bn *BayesNet) fitCPTs(data [][]int) {
	nvar := len(bn.card)
	bn.cpt = make([][]float64, nvar)
	for i := 0; i < nvar; i++ {
		pc := 1
		if bn.parent[i] >= 0 {
			pc = bn.card[bn.parent[i]]
		}
		counts := make([]float64, pc*bn.card[i])
		for _, row := range data {
			pv := 0
			if bn.parent[i] >= 0 {
				pv = row[bn.parent[i]]
			}
			counts[pv*bn.card[i]+clampVal(row[i], bn.card[i])]++
		}
		logp := make([]float64, len(counts))
		for pv := 0; pv < pc; pv++ {
			var total float64
			for v := 0; v < bn.card[i]; v++ {
				total += counts[pv*bn.card[i]+v]
			}
			denom := total + float64(bn.card[i]) // Laplace
			for v := 0; v < bn.card[i]; v++ {
				logp[pv*bn.card[i]+v] = math.Log((counts[pv*bn.card[i]+v] + 1) / denom)
			}
		}
		bn.cpt[i] = logp
	}
}

func clampVal(v, card int) int {
	if v < 0 {
		return 0
	}
	if v >= card {
		return card - 1
	}
	return v
}

// Name implements Scorer.
func (bn *BayesNet) Name() string { return "BN" }

// Score returns the negative log-likelihood of the window under the tree.
func (bn *BayesNet) Score(w *Window) float64 {
	score, _ := bn.ScoreDiscrete(w.Discrete, nil)
	return score
}

// ScoreDiscrete implements DiscreteScorer; the CPT walk needs no key
// scratch.
func (bn *BayesNet) ScoreDiscrete(c []int, key []byte) (float64, []byte) {
	var ll float64
	for i := range bn.card {
		v := clampVal(c[i], bn.card[i])
		pv := 0
		if bn.parent[i] >= 0 {
			pv = clampVal(c[bn.parent[i]], bn.card[bn.parent[i]])
		}
		ll += bn.cpt[i][pv*bn.card[i]+v]
	}
	return -ll, key
}

// Structure returns a human-readable summary of the learned tree (for
// documentation and tests).
func (bn *BayesNet) Structure() []string {
	out := make([]string, 0, len(bn.parent))
	for i, p := range bn.parent {
		out = append(out, fmt.Sprintf("x%d <- x%d", i, p))
	}
	sort.Strings(out)
	return out
}
