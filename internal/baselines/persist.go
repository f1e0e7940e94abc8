package baselines

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"

	"icsdetect/internal/bloom"
	"icsdetect/internal/mathx"
)

// This file defines the deterministic on-disk snapshots of the promoted
// window levels: each stage model (scorer + standardizer + threshold)
// round-trips through gob with exported, map-free structures, so the
// encodings are byte-stable and safe for core.Framework.Fingerprint to
// mix. The snapshots feed the stage registry's Encode/Decode hooks
// (register.go) and through them core.Framework.Save/Load.

// windowModelSnap is the common envelope of every persisted window level.
type windowModelSnap struct {
	Std       *Standardizer
	Threshold float64
	// Exactly one of the scorer snapshots is non-nil, matching the kind.
	PCA *pcaSnap
	GMM *gmmSnap
	IF  *ifSnap
	BN  *bnSnap
	SV  *svddSnap
	BF  *bfSnap
}

type pcaSnap struct {
	Mean  []float64
	Comps *mathx.Matrix
}

type gmmSnap struct {
	Weights []float64
	Means   [][]float64
	Vars    [][]float64
}

// ifNodeSnap is one isolation-forest node; Left/Right index into the node
// array (-1 for leaves).
type ifNodeSnap struct {
	Size        int
	Attr        int
	Split       float64
	Left, Right int32
}

type ifSnap struct {
	Nodes    []ifNodeSnap
	Roots    []int32
	Sub      int
	Expected float64
}

type bnSnap struct {
	Parent []int
	Card   []int
	CPT    [][]float64
}

type svddSnap struct {
	Gamma, C, AA float64
	Support      [][]float64
	Alpha        []float64
}

type bfSnap struct {
	Filter []byte
}

// snapshotScorer captures a trained scorer into the envelope.
func snapshotScorer(snap *windowModelSnap, sc Scorer) error {
	switch m := sc.(type) {
	case *PCASVD:
		snap.PCA = &pcaSnap{Mean: m.mean, Comps: m.comps}
	case *GMM:
		snap.GMM = &gmmSnap{Weights: m.weights, Means: m.means, Vars: m.vars}
	case *IsolationForest:
		s := &ifSnap{Nodes: make([]ifNodeSnap, len(m.nodes)), Roots: m.roots, Sub: m.sub, Expected: m.expected}
		for i, n := range m.nodes {
			s.Nodes[i] = ifNodeSnap{Size: int(n.size), Attr: int(n.attr), Split: n.split, Left: n.left, Right: n.right}
		}
		snap.IF = s
	case *BayesNet:
		snap.BN = &bnSnap{Parent: m.parent, Card: m.card, CPT: m.cpt}
	case *SVDD:
		snap.SV = &svddSnap{Gamma: m.Gamma, C: m.C, AA: m.aa, Support: m.support, Alpha: m.alpha}
	case *BF:
		var buf bytes.Buffer
		if _, err := m.filter.WriteTo(&buf); err != nil {
			return fmt.Errorf("baselines: snapshot bf filter: %w", err)
		}
		snap.BF = &bfSnap{Filter: buf.Bytes()}
	default:
		return fmt.Errorf("baselines: no snapshot for scorer %T", sc)
	}
	return nil
}

// restoreScorer rebuilds the scorer the envelope carries.
func (snap *windowModelSnap) restoreScorer() (Scorer, error) {
	switch {
	case snap.PCA != nil:
		return &PCASVD{mean: snap.PCA.Mean, comps: snap.PCA.Comps}, nil
	case snap.GMM != nil:
		g := &GMM{
			weights: snap.GMM.Weights,
			means:   snap.GMM.Means,
			vars:    snap.GMM.Vars,
			logNorm: make([]float64, len(snap.GMM.Weights)),
		}
		g.refreshNorm()
		return g, nil
	case snap.IF != nil:
		return snap.IF.restore()
	case snap.BN != nil:
		return &BayesNet{parent: snap.BN.Parent, card: snap.BN.Card, cpt: snap.BN.CPT}, nil
	case snap.SV != nil:
		return &SVDD{
			Gamma: snap.SV.Gamma, C: snap.SV.C, aa: snap.SV.AA,
			support: snap.SV.Support, alpha: snap.SV.Alpha,
		}, nil
	case snap.BF != nil:
		var filter bloom.Filter
		if _, err := filter.ReadFrom(bytes.NewReader(snap.BF.Filter)); err != nil {
			return nil, fmt.Errorf("baselines: restore bf filter: %w", err)
		}
		return &BF{filter: &filter}, nil
	default:
		return nil, fmt.Errorf("baselines: snapshot carries no scorer")
	}
}

// restore validates the node array — the snapshot may come from anywhere
// (/swap) — and rebuilds the forest over it. Children must lie strictly
// after their parent and no node may be reached twice, so every walk ends
// at a leaf within len(Nodes) steps; attributes must index a window
// sample.
func (s *ifSnap) restore() (*IsolationForest, error) {
	if len(s.Roots) == 0 {
		return nil, fmt.Errorf("baselines: isolation forest snapshot has no trees")
	}
	reached := make([]bool, len(s.Nodes))
	reach := func(idx int32, from int) error {
		if int(idx) <= from || int(idx) >= len(s.Nodes) {
			return fmt.Errorf("baselines: isolation forest node %d: child %d out of range", from, idx)
		}
		if reached[idx] {
			return fmt.Errorf("baselines: isolation forest node %d is reached twice", idx)
		}
		reached[idx] = true
		return nil
	}
	for _, root := range s.Roots {
		if err := reach(root, -1); err != nil {
			return nil, err
		}
	}
	f := &IsolationForest{
		nodes: make([]isoNode, len(s.Nodes)),
		roots: s.Roots,
		sub:   s.Sub, expected: s.Expected,
	}
	for i, n := range s.Nodes {
		if n.Attr < 0 || n.Attr >= SampleDim || n.Size < 0 || n.Size > math.MaxInt32 {
			return nil, fmt.Errorf("baselines: isolation forest node %d: attribute %d or size %d out of range", i, n.Attr, n.Size)
		}
		if n.Left < 0 && n.Right < 0 {
			f.nodes[i] = isoLeaf(n.Size)
			continue
		}
		if err := reach(n.Left, i); err != nil {
			return nil, err
		}
		if err := reach(n.Right, i); err != nil {
			return nil, err
		}
		f.nodes[i] = isoNode{attr: int32(n.Attr), split: n.Split, left: n.Left, right: n.Right, size: int32(n.Size)}
	}
	return f, nil
}

// encodeWindowModel serializes a trained window level.
func encodeWindowModel(m *WindowModel) ([]byte, error) {
	snap := windowModelSnap{Std: m.Std, Threshold: m.Threshold}
	if err := snapshotScorer(&snap, m.Scorer); err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("baselines: encode window level: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeWindowModel deserializes a window level snapshot.
func decodeWindowModel(b []byte) (*WindowModel, error) {
	var snap windowModelSnap
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("baselines: decode window level: %w", err)
	}
	if snap.Std == nil {
		return nil, fmt.Errorf("baselines: window level snapshot has no standardizer")
	}
	if err := snap.Std.Validate(); err != nil {
		return nil, err
	}
	sc, err := snap.restoreScorer()
	if err != nil {
		return nil, err
	}
	return &WindowModel{Std: snap.Std, Threshold: snap.Threshold, Scorer: sc}, nil
}
