package baselines

import (
	"bytes"
	"encoding/gob"
	"math"
	"strings"
	"testing"

	"icsdetect/internal/mathx"
)

// refIsoNode is the pointer-tree isolation forest the flat node array
// replaced, kept as the reference the flat walk is checked against: the
// same construction (and RNG draw order), a walk that recomputes c(size)
// at every leaf, and the recursive preorder flattening that wrote the
// persisted form.
type refIsoNode struct {
	size        int
	attr        int
	split       float64
	left, right *refIsoNode
}

func refBuildIsoTree(data [][]float64, depth, maxDepth int, rng *mathx.RNG) *refIsoNode {
	if len(data) <= 1 || depth >= maxDepth {
		return &refIsoNode{size: len(data)}
	}
	dim := len(data[0])
	for try := 0; try < 8; try++ {
		attr := rng.Intn(dim)
		lo, hi := data[0][attr], data[0][attr]
		for _, x := range data[1:] {
			lo, hi = math.Min(lo, x[attr]), math.Max(hi, x[attr])
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
		n := &refIsoNode{attr: attr, split: split}
		n.left = refBuildIsoTree(left, depth+1, maxDepth, rng)
		n.right = refBuildIsoTree(right, depth+1, maxDepth, rng)
		return n
	}
	return &refIsoNode{size: len(data)}
}

// refForest builds the reference trees for the configuration
// NewIsolationForest(train, cfg) uses.
func refForest(train [][]float64, cfg IForestConfig) []*refIsoNode {
	rng := mathx.NewRNG(cfg.Seed)
	maxDepth := int(math.Ceil(math.Log2(float64(cfg.Subsample)))) + 1
	trees := make([]*refIsoNode, cfg.Trees)
	for t := range trees {
		perm := rng.Perm(len(train))
		sample := make([][]float64, cfg.Subsample)
		for i := range sample {
			sample[i] = train[perm[i]]
		}
		trees[t] = refBuildIsoTree(sample, 0, maxDepth, rng)
	}
	return trees
}

func refForestScore(trees []*refIsoNode, sub int, x []float64) float64 {
	var sum float64
	for _, node := range trees {
		depth := 0
		for node.left != nil {
			if x[node.attr] < node.split {
				node = node.left
			} else {
				node = node.right
			}
			depth++
		}
		sum += float64(depth) + avgPathLength(node.size)
	}
	return math.Pow(2, -(sum/float64(len(trees)))/avgPathLength(sub))
}

func refFlattenIso(s *ifSnap, node *refIsoNode) int32 {
	idx := int32(len(s.Nodes))
	s.Nodes = append(s.Nodes, ifNodeSnap{Size: node.size, Attr: node.attr, Split: node.split, Left: -1, Right: -1})
	if node.left != nil {
		left := refFlattenIso(s, node.left)
		right := refFlattenIso(s, node.right)
		s.Nodes[idx].Left, s.Nodes[idx].Right = left, right
	}
	return idx
}

func encodeSnap(t *testing.T, snap *windowModelSnap) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIsolationForestFlatMatchesTrees: the flat forest must score every
// sample bit for bit like the pointer-tree reference — as built, after a
// gob round trip, and when restored from the blob the reference's own
// flattening writes (the bytes a forest saved before the flat form holds),
// which the flat forest must also reproduce exactly.
func TestIsolationForestFlatMatchesTrees(t *testing.T) {
	rng := mathx.NewRNG(21)
	train := gaussianCloud(rng, make([]float64, SampleDim), 600, 1)
	probes := append(gaussianCloud(rng, make([]float64, SampleDim), 200, 1),
		gaussianCloud(rng, make([]float64, SampleDim), 50, 6)...)
	cfg := IForestConfig{Trees: 100, Subsample: 256, Seed: 9}

	flat, err := NewIsolationForest(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	trees := refForest(train, cfg)

	std := unitStandardizer()
	refSnap := &ifSnap{Sub: cfg.Subsample, Expected: avgPathLength(cfg.Subsample)}
	for _, root := range trees {
		refSnap.Roots = append(refSnap.Roots, refFlattenIso(refSnap, root))
	}
	refBlob := encodeSnap(t, &windowModelSnap{Std: std, Threshold: 0.5, IF: refSnap})

	blob, err := encodeWindowModel(&WindowModel{Std: std, Threshold: 0.5, Scorer: flat})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, refBlob) {
		t.Fatal("flat forest encodes to different bytes than the flattened reference trees")
	}
	restored, err := decodeWindowModel(refBlob)
	if err != nil {
		t.Fatal(err)
	}

	for i, x := range probes {
		want := math.Float64bits(refForestScore(trees, cfg.Subsample, x))
		if got := math.Float64bits(flat.ScoreVector(x, nil)); got != want {
			t.Fatalf("probe %d: flat score %x, reference trees %x", i, got, want)
		}
		if got := math.Float64bits(restored.Scorer.(*IsolationForest).ScoreVector(x, nil)); got != want {
			t.Fatalf("probe %d: restored score %x, reference trees %x", i, got, want)
		}
	}
}

// TestIsolationForestRestoreRejectsHostile: a forest snapshot arrives over
// /swap from anywhere. Node arrays that would make a walk loop, leave the
// array, or index past the sample must be refused at restore — with an
// error, never a panic or a runaway recursion.
func TestIsolationForestRestoreRejectsHostile(t *testing.T) {
	leaf := ifNodeSnap{Size: 1, Left: -1, Right: -1}
	cases := []struct {
		name string
		snap ifSnap
		want string
	}{
		{"self-loop", ifSnap{Nodes: []ifNodeSnap{{Left: 0, Right: 1}, leaf}, Roots: []int32{0}}, "out of range"},
		{"back-edge", ifSnap{Nodes: []ifNodeSnap{{Left: 1, Right: 2}, {Left: 0, Right: 2}, leaf}, Roots: []int32{0}}, "out of range"},
		{"shared child", ifSnap{Nodes: []ifNodeSnap{{Left: 1, Right: 1}, leaf}, Roots: []int32{0}}, "reached twice"},
		{"child past the array", ifSnap{Nodes: []ifNodeSnap{{Left: 1, Right: 7}, leaf}, Roots: []int32{0}}, "out of range"},
		{"one-child node", ifSnap{Nodes: []ifNodeSnap{{Left: 1, Right: -1}, leaf}, Roots: []int32{0}}, "out of range"},
		{"oversized attribute", ifSnap{Nodes: []ifNodeSnap{{Attr: SampleDim, Left: 1, Right: 2}, leaf, leaf}, Roots: []int32{0}}, "attribute"},
		{"negative size", ifSnap{Nodes: []ifNodeSnap{{Size: -1, Left: -1, Right: -1}}, Roots: []int32{0}}, "size"},
		{"root past the array", ifSnap{Nodes: []ifNodeSnap{leaf}, Roots: []int32{3}}, "out of range"},
		{"empty forest", ifSnap{Nodes: []ifNodeSnap{leaf}}, "no trees"},
	}
	std := unitStandardizer()
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			c.snap.Sub, c.snap.Expected = 256, avgPathLength(256)
			m, err := decodeWindowModel(encodeSnap(t, &windowModelSnap{Std: std, IF: &c.snap}))
			if err == nil {
				t.Fatalf("hostile forest restored: %+v", m.Scorer)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name the fault (%q)", err, c.want)
			}
		})
	}
}

// unitStandardizer is the identity standardizer (zero means, unit
// deviations) — the smallest one a window-level snapshot accepts.
func unitStandardizer() *Standardizer {
	std := &Standardizer{Mean: make([]float64, SampleDim), Std: make([]float64, SampleDim)}
	mathx.Fill(std.Std, 1)
	return std
}
