package modbus

import (
	"encoding/binary"
	"fmt"
	"io"
)

// crcTable holds the byte-indexed remainders of the Modbus CRC-16
// polynomial: one table lookup per input byte instead of eight
// shift-and-conditional-xor rounds. Every frame on the wire path — sim,
// tap and trace decode — pays this checksum, so the serving daemon's
// ingest throughput is directly coupled to it.
var crcTable [256]uint16

func init() {
	for i := range crcTable {
		crc := uint16(i)
		for b := 0; b < 8; b++ {
			if crc&1 != 0 {
				crc = (crc >> 1) ^ 0xA001
			} else {
				crc >>= 1
			}
		}
		crcTable[i] = crc
	}
}

// CRC16 computes the Modbus RTU CRC-16 (polynomial 0xA001, init 0xFFFF) over
// data. The gas-pipeline dataset's "crc rate" feature is derived from this
// checksum: the master tracks the fraction of frames whose received CRC
// disagrees with the recomputed one.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = (crc >> 8) ^ crcTable[byte(crc)^b]
	}
	return crc
}

// RTUFrame is a Modbus RTU application data unit: station address, PDU and
// trailing CRC.
type RTUFrame struct {
	Address uint8
	PDU     *PDU
	// CRC holds the checksum as found on the wire when decoding; EncodeRTU
	// always writes the correct checksum unless CorruptCRC is set.
	CRC uint16
	// CorruptCRC forces EncodeRTU to emit an invalid checksum, used by the
	// attack injector to model transmission tampering.
	CorruptCRC bool
}

// maxRTUSize is the Modbus-mandated RTU frame size limit.
const maxRTUSize = 256

// EncodeRTU serializes the frame (address + PDU + CRC16 little-endian).
func EncodeRTU(f *RTUFrame) ([]byte, error) {
	if f.PDU.Length()+3 > maxRTUSize {
		return nil, ErrFrameTooBig
	}
	buf := make([]byte, 0, f.PDU.Length()+3)
	buf = append(buf, f.Address)
	buf = f.PDU.Encode(buf)
	crc := CRC16(buf)
	if f.CorruptCRC {
		crc ^= 0xFFFF
	}
	buf = binary.LittleEndian.AppendUint16(buf, crc)
	return buf, nil
}

// DecodeRTU parses an RTU frame. It returns the frame along with a boolean
// reporting whether the CRC was valid; a CRC mismatch is not an error at
// this layer because the SCADA monitor must still record the corrupt frame
// (it feeds the crc_rate feature).
func DecodeRTU(raw []byte) (*RTUFrame, bool, error) {
	if len(raw) < 4 {
		return nil, false, ErrShortPDU
	}
	if len(raw) > maxRTUSize {
		return nil, false, ErrFrameTooBig
	}
	body := raw[:len(raw)-2]
	wire := binary.LittleEndian.Uint16(raw[len(raw)-2:])
	pdu, err := DecodePDU(body[1:])
	if err != nil {
		return nil, false, err
	}
	f := &RTUFrame{Address: body[0], PDU: pdu, CRC: wire}
	return f, CRC16(body) == wire, nil
}

// MBAPHeader is the Modbus/TCP application protocol header.
type MBAPHeader struct {
	TransactionID uint16
	ProtocolID    uint16 // always 0 for Modbus
	UnitID        uint8
}

// mbapLen is the fixed MBAP header size on the wire.
const mbapLen = 7

// TCPFrame is a Modbus TCP ADU: MBAP header plus PDU.
type TCPFrame struct {
	Header MBAPHeader
	PDU    *PDU
}

// EncodeTCP serializes the TCP frame.
func EncodeTCP(f *TCPFrame) ([]byte, error) {
	plen := f.PDU.Length()
	if plen+1 > 0xFFFF {
		return nil, ErrFrameTooBig
	}
	buf := make([]byte, 0, mbapLen+plen)
	buf = binary.BigEndian.AppendUint16(buf, f.Header.TransactionID)
	buf = binary.BigEndian.AppendUint16(buf, f.Header.ProtocolID)
	buf = binary.BigEndian.AppendUint16(buf, uint16(plen+1)) // length = unit + PDU
	buf = append(buf, f.Header.UnitID)
	buf = f.PDU.Encode(buf)
	return buf, nil
}

// DecodeTCP parses one complete TCP frame from a byte slice. Unlike
// ReadTCPFrame it is strict about the MBAP length field: raw must contain
// exactly the header plus the advertised body, so that EncodeTCP∘DecodeTCP
// reproduces the input bytes (the round-trip property the trace replayer
// and the frame fuzzer rely on).
func DecodeTCP(raw []byte) (*TCPFrame, error) {
	if len(raw) < mbapLen+1 {
		return nil, ErrShortPDU
	}
	length := binary.BigEndian.Uint16(raw[4:6])
	if length < 2 || len(raw) != mbapLen+int(length)-1 {
		return nil, fmt.Errorf("%w: MBAP length %d for %d raw bytes", ErrBadLength, length, len(raw))
	}
	pdu, err := DecodePDU(raw[mbapLen:])
	if err != nil {
		return nil, err
	}
	return &TCPFrame{
		Header: MBAPHeader{
			TransactionID: binary.BigEndian.Uint16(raw[0:2]),
			ProtocolID:    binary.BigEndian.Uint16(raw[2:4]),
			UnitID:        raw[6],
		},
		PDU: pdu,
	}, nil
}

// ReadTCPFrame reads one complete TCP frame from r, blocking until the full
// length-prefixed payload arrives. The frame is the caller's to keep.
func ReadTCPFrame(r io.Reader) (*TCPFrame, error) {
	return NewFrameReader(r).Next()
}

// FrameReader reads MBAP-framed Modbus/TCP frames from a stream into one
// reused frame and payload buffer, so a long-lived connection decodes its
// frames without allocating.
type FrameReader struct {
	r     io.Reader
	hdr   [mbapLen]byte
	body  []byte
	pdu   PDU
	frame TCPFrame
}

// NewFrameReader returns a reader of the frames on r.
func NewFrameReader(r io.Reader) *FrameReader {
	return &FrameReader{r: r}
}

// Next reads the next complete frame, blocking until its full
// length-prefixed payload arrives. The frame and its PDU are valid only
// until the next call.
func (fr *FrameReader) Next() (*TCPFrame, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return nil, err
	}
	length := int(binary.BigEndian.Uint16(fr.hdr[4:6]))
	if length < 2 {
		return nil, fmt.Errorf("%w: MBAP length %d", ErrBadLength, length)
	}
	// The unit ID, counted by length, is already in the header.
	if cap(fr.body) < length-1 {
		fr.body = make([]byte, length-1)
	}
	body := fr.body[:length-1]
	if _, err := io.ReadFull(fr.r, body); err != nil {
		return nil, err
	}
	fr.pdu = PDU{Function: FunctionCode(body[0]), Data: body[1:]}
	fr.frame = TCPFrame{
		Header: MBAPHeader{
			TransactionID: binary.BigEndian.Uint16(fr.hdr[0:2]),
			ProtocolID:    binary.BigEndian.Uint16(fr.hdr[2:4]),
			UnitID:        fr.hdr[6],
		},
		PDU: &fr.pdu,
	}
	return &fr.frame, nil
}

// WriteTCPFrame serializes f and writes it to w.
func WriteTCPFrame(w io.Writer, f *TCPFrame) error {
	buf, err := EncodeTCP(f)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}
