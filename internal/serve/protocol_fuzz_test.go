package serve

import (
	"bufio"
	"bytes"
	"runtime"
	"testing"
	"unsafe"

	"icsdetect/internal/core"
	"icsdetect/internal/engine"
)

// allocSlack absorbs a decoder's fixed costs (error values, small
// headers) on top of the limits the wire format sets.
const allocSlack = 16 << 10

// decodeAllocs runs decode and returns the bytes it allocated.
func decodeAllocs(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// consumed is how many bytes of data a decoder read through br.
func consumed(data []byte, r *bytes.Reader, br *bufio.Reader) []byte {
	return data[:len(data)-r.Len()-br.Buffered()]
}

// FuzzReadHello: arbitrary bytes never panic the ingest handshake decoder
// or make it allocate past its string limits, and a handshake that decodes
// re-encodes to exactly the bytes it was read from.
func FuzzReadHello(f *testing.F) {
	for _, h := range []hello{
		{Mode: ModeReplay},
		{Mode: ModeLive, Stream: "plc-9", Model: "gaspipeline", Precision: "f32"},
		{Mode: ModeReplay, Stream: string(make([]byte, maxStringLen))},
	} {
		f.Add(appendHello(nil, h))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		br := bufio.NewReader(r)
		var h hello
		var err error
		if n := decodeAllocs(func() { h, err = readHello(br) }); n > 6*maxStringLen+allocSlack {
			t.Fatalf("readHello allocated %d bytes", n)
		}
		if err != nil {
			return
		}
		if got, want := appendHello(nil, h), consumed(data, r, br); !bytes.Equal(got, want) {
			t.Fatalf("hello %+v re-encodes to %x, read from %x", h, got, want)
		}
	})
}

// FuzzReadEvent: arbitrary bytes never panic the subscriber's event
// decoder or make it allocate past the event limits, and an event that
// decodes re-encodes to exactly the bytes it was read from.
func FuzzReadEvent(f *testing.F) {
	for _, v := range []core.Verdict{
		{},
		{Anomaly: true, Level: 3, Rank: -1, Signature: "sig"},
		{Level: 2, Rank: 7, Evidence: []core.LevelEvidence{
			{Stage: "bloom", Scored: true, Score: 0.25, Rank: 2},
			{Stage: "lstm", Level: 3, Scored: true, Flagged: true, Score: 0.99, Rank: -1},
		}},
	} {
		b, _ := appendEvent(nil, nil, engine.Result{Stream: "plc-7", Seq: 42, Verdict: v})
		f.Add(b)
	}
	limit := uint64(2*maxEventLen+maxEvidence*unsafe.Sizeof(core.LevelEvidence{})) + allocSlack
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		br := bufio.NewReader(r)
		var ev Event
		var err error
		if n := decodeAllocs(func() { ev, err = readEvent(br) }); n > limit {
			t.Fatalf("readEvent allocated %d bytes", n)
		}
		if err != nil {
			return
		}
		got, _ := appendEvent(nil, nil, engine.Result{Stream: ev.Stream, Seq: ev.Seq, Verdict: ev.Verdict})
		if want := consumed(data, r, br); !bytes.Equal(got, want) {
			t.Fatalf("event %+v re-encodes to %x, read from %x", ev, got, want)
		}
	})
}
