package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"icsdetect/internal/bloom"
	"icsdetect/internal/nn"
	"icsdetect/internal/signature"
)

// persisted is the on-disk form of a trained framework. The Bloom filter
// uses its own binary format; everything else is gob. Extra carries the
// promoted stage models, each serialized by its kind's registered codec —
// old snapshots simply have no Extra field, and old readers ignore it, so
// the format is compatible in both directions.
type persisted struct {
	Encoder *signature.Encoder
	DB      *signature.DB
	Bloom   []byte
	Model   *nn.Classifier
	K       int
	Input   *InputEncoder
	Extra   map[string][]byte
}

// Save serializes the trained framework, including any promoted stage
// models whose kinds provide a codec.
func (f *Framework) Save(w io.Writer) error {
	var bf bytes.Buffer
	if _, err := f.Package.Filter.WriteTo(&bf); err != nil {
		return fmt.Errorf("core: save bloom filter: %w", err)
	}
	p := persisted{
		Encoder: f.Encoder,
		DB:      f.DB,
		Bloom:   bf.Bytes(),
		Model:   f.Series.Model,
		K:       f.Series.K,
		Input:   f.Input,
	}
	for kind, m := range f.Extra {
		fac, ok := stageFactory(kind)
		if !ok || fac.Encode == nil {
			return fmt.Errorf("core: save framework: stage kind %q has no codec", kind)
		}
		b, err := fac.Encode(m)
		if err != nil {
			return fmt.Errorf("core: save stage %s: %w", kind, err)
		}
		if p.Extra == nil {
			p.Extra = make(map[string][]byte, len(f.Extra))
		}
		p.Extra[kind] = b
	}
	if err := gob.NewEncoder(w).Encode(&p); err != nil {
		return fmt.Errorf("core: save framework: %w", err)
	}
	return nil
}

// Load deserializes a framework saved with Save.
func Load(r io.Reader) (*Framework, error) {
	var p persisted
	if err := gob.NewDecoder(r).Decode(&p); err != nil {
		return nil, fmt.Errorf("core: load framework: %w", err)
	}
	if p.Encoder == nil || p.DB == nil || p.Model == nil || p.Input == nil {
		return nil, fmt.Errorf("core: loaded framework is incomplete")
	}
	if p.K < 1 {
		return nil, fmt.Errorf("core: loaded framework has invalid k=%d", p.K)
	}
	if err := p.Model.Validate(); err != nil {
		return nil, fmt.Errorf("core: load framework: %w", err)
	}
	var filter bloom.Filter
	if _, err := filter.ReadFrom(bytes.NewReader(p.Bloom)); err != nil {
		return nil, fmt.Errorf("core: load bloom filter: %w", err)
	}
	fw := &Framework{
		Encoder: p.Encoder,
		DB:      p.DB,
		Package: &PackageDetector{Filter: &filter},
		Series:  &TimeSeriesDetector{Model: p.Model, K: p.K},
		Input:   p.Input,
	}
	for kind, b := range p.Extra {
		fac, ok := stageFactory(kind)
		if !ok || fac.Decode == nil {
			return nil, fmt.Errorf("core: load framework: stage kind %q is not registered "+
				"(import the package that provides it)", kind)
		}
		m, err := fac.Decode(b)
		if err != nil {
			return nil, fmt.Errorf("core: load stage %s: %w", kind, err)
		}
		if fw.Extra == nil {
			fw.Extra = make(map[string]StageModel, len(p.Extra))
		}
		fw.Extra[kind] = m
	}
	return fw, nil
}
