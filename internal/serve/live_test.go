package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"icsdetect/internal/dataset"
	"icsdetect/internal/modbus"
	"icsdetect/internal/tap"
	"icsdetect/internal/trace"
)

// referenceLiveDecode is the live decode as it was before it stopped
// allocating: a fresh frame per read, the length of the re-encoded frame, a
// map of outstanding transaction IDs and the registers parsed into values.
type referenceLiveDecode struct {
	regs        tap.RegisterMap
	outstanding map[uint16]struct{}
}

func (d *referenceLiveDecode) decode(t *testing.T, f *modbus.TCPFrame) dataset.Package {
	t.Helper()
	raw, err := modbus.EncodeTCP(f)
	if err != nil {
		t.Fatal(err)
	}
	tid := f.Header.TransactionID
	_, open := d.outstanding[tid]
	if open {
		delete(d.outstanding, tid)
	} else {
		d.outstanding[tid] = struct{}{}
		if len(d.outstanding) > 4096 {
			d.outstanding = make(map[uint16]struct{})
		}
	}
	p := dataset.Package{
		Address:  float64(f.Header.UnitID),
		Function: float64(f.PDU.Function),
		Length:   float64(len(raw)),
	}
	if !open {
		p.CmdResponse = 1
	}
	var values []uint16
	switch f.PDU.Function {
	case modbus.FuncWriteMultipleRegs:
		if !open {
			_, values, _ = modbus.ParseWriteMultipleRequest(f.PDU)
		}
	case modbus.FuncReadHoldingRegisters, modbus.FuncReadInputRegisters, modbus.FuncReadState:
		if open && !f.PDU.IsException() {
			values, _ = modbus.ParseReadRegistersResponse(f.PDU)
		}
	}
	m := d.regs
	if values == nil || len(values) < m.MinRegisters {
		return p
	}
	field := func(idx int, scale float64) float64 {
		if idx < 0 || idx >= len(values) {
			return 0
		}
		return float64(values[idx]) / scale
	}
	p.Setpoint = field(m.Setpoint, 100)
	p.Gain = field(m.Gain, 100)
	p.ResetRate = field(m.ResetRate, 100)
	p.Deadband = field(m.Deadband, 100)
	p.CycleTime = field(m.CycleTime, 1000)
	p.Rate = field(m.Rate, 100)
	p.SystemMode = field(m.Mode, 1)
	p.ControlScheme = field(m.Scheme, 1)
	p.Pump = field(m.Pump, 1)
	p.Solenoid = field(m.Solenoid, 1)
	p.Pressure = field(m.Pressure, 100)
	return p
}

// TestLiveDecodeMatchesReference: every frame of both golden corpora, sent
// as live MBAP traffic (each response under its command's transaction ID),
// decodes through the reused frame reader, the transaction-ID bit set and
// the in-place register decode into exactly the package the allocating
// reference path builds, timestamps aside.
func TestLiveDecodeMatchesReference(t *testing.T) {
	root := filepath.Join("..", "..", "testdata", "traces")
	paths, err := filepath.Glob(filepath.Join(root, "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	more, err := filepath.Glob(filepath.Join(root, "watertank", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, more...)
	if len(paths) < 16 {
		t.Fatalf("found %d golden traces, want both corpora", len(paths))
	}
	frames, withRegisters := 0, 0
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		hdr, recs, err := trace.ReadAll(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var wire bytes.Buffer
		var open []uint16
		var next uint16
		for _, rec := range recs {
			rtu, _, err := modbus.DecodeRTU(rec.Frame)
			if err != nil {
				t.Fatal(err)
			}
			var tid uint16
			if !rec.IsCmd && len(open) > 0 {
				tid, open = open[0], open[1:]
			} else {
				next++
				tid = next
				if rec.IsCmd {
					open = append(open, tid)
				}
			}
			f := &modbus.TCPFrame{Header: modbus.MBAPHeader{TransactionID: tid, UnitID: rtu.Address}, PDU: rtu.PDU}
			if err := modbus.WriteTCPFrame(&wire, f); err != nil {
				t.Fatal(err)
			}
		}
		ref := &referenceLiveDecode{regs: hdr.Registers, outstanding: make(map[uint16]struct{})}
		refWire := bytes.NewReader(wire.Bytes())
		dec := &liveDecoder{regs: hdr.Registers}
		fr := modbus.NewFrameReader(bytes.NewReader(wire.Bytes()))
		for i := range recs {
			f, err := fr.Next()
			if err != nil {
				t.Fatalf("%s frame %d: %v", path, i, err)
			}
			got := *dec.decode(f)
			rf, err := modbus.ReadTCPFrame(refWire)
			if err != nil {
				t.Fatalf("%s frame %d: %v", path, i, err)
			}
			want := ref.decode(t, rf)
			got.Time = 0
			if got != want {
				t.Fatalf("%s frame %d:\n got %+v\nwant %+v", path, i, got, want)
			}
			frames++
			if want.Setpoint != 0 || want.Pressure != 0 {
				withRegisters++
			}
		}
	}
	if withRegisters == 0 {
		t.Fatal("no frame carried a register block")
	}
	t.Logf("%d frames of %d traces, %d with a register block", frames, len(paths), withRegisters)
}
