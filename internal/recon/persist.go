package recon

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"icsdetect/internal/baselines"
	"icsdetect/internal/nn"
)

// modelSnap is the persisted envelope of one reconstruction stage model.
// Exactly one of the network pointers is non-nil, matching the kind —
// the same one-of discipline as the baselines' windowModelSnap. The
// networks serialize their exported weight tensors only (gob skips the
// unexported inference caches), so the encoding is deterministic and
// safe for core.Framework.Fingerprint to mix.
type modelSnap struct {
	Std       *baselines.Standardizer
	Threshold float64
	AE        *nn.AutoEncoder
	S2S       *nn.Seq2Seq
	CNN       *nn.ConvNet
}

// encodeModel serializes a trained reconstruction stage model.
func encodeModel(m *Model) ([]byte, error) {
	snap := modelSnap{Std: m.Std, Threshold: m.Threshold}
	switch net := m.Net.(type) {
	case *nn.AutoEncoder:
		snap.AE = net
	case *nn.Seq2Seq:
		snap.S2S = net
	case *nn.ConvNet:
		snap.CNN = net
	default:
		return nil, fmt.Errorf("recon: cannot persist network type %T", m.Net)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return nil, fmt.Errorf("recon: encoding stage model: %w", err)
	}
	return buf.Bytes(), nil
}

// decodeModel deserializes a reconstruction stage model and validates
// its structure.
func decodeModel(b []byte) (*Model, error) {
	var snap modelSnap
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&snap); err != nil {
		return nil, fmt.Errorf("recon: decoding stage model: %w", err)
	}
	if snap.Std == nil {
		return nil, fmt.Errorf("recon: stage model snapshot missing standardizer")
	}
	if err := snap.Std.Validate(); err != nil {
		return nil, err
	}
	var net nn.ReconNet
	n := 0
	if snap.AE != nil {
		net, n = snap.AE, n+1
	}
	if snap.S2S != nil {
		net, n = snap.S2S, n+1
	}
	if snap.CNN != nil {
		net, n = snap.CNN, n+1
	}
	if n != 1 {
		return nil, fmt.Errorf("recon: stage model snapshot holds %d networks, want 1", n)
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	if t, d := net.InputDims(); t*d != baselines.SampleDim {
		return nil, fmt.Errorf("recon: stage model shaped %d×%d, want sample dim %d", t, d, baselines.SampleDim)
	}
	return &Model{Std: snap.Std, Threshold: snap.Threshold, Net: net}, nil
}
