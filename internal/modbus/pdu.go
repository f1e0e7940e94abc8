// Package modbus implements the Modbus application protocol used by the gas
// pipeline SCADA system (paper §VII): PDU encoding/decoding for the common
// public function codes plus the vendor-specific read-state code the
// testbed uses, RTU CRC-16 checksums, MBAP/TCP framing, a thread-safe
// register model, and TCP master/slave endpoints built on net.
package modbus

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// FunctionCode identifies a Modbus function.
type FunctionCode uint8

// Public function codes supported by this implementation. ReadState is the
// vendor-specific code (user-defined range 65-72) the gas pipeline testbed
// uses to read the full controller state block in one transaction.
const (
	FuncReadCoils            FunctionCode = 0x01
	FuncReadDiscreteInputs   FunctionCode = 0x02
	FuncReadHoldingRegisters FunctionCode = 0x03
	FuncReadInputRegisters   FunctionCode = 0x04
	FuncWriteSingleCoil      FunctionCode = 0x05
	FuncWriteSingleRegister  FunctionCode = 0x06
	FuncDiagnostics          FunctionCode = 0x08
	FuncWriteMultipleRegs    FunctionCode = 0x10
	FuncReadState            FunctionCode = 0x41 // vendor-specific state block read
)

// exceptionFlag marks a response PDU as an exception.
const exceptionFlag = 0x80

// ExceptionCode enumerates Modbus exception responses.
type ExceptionCode uint8

// Standard Modbus exception codes.
const (
	ExcIllegalFunction ExceptionCode = 0x01
	ExcIllegalAddress  ExceptionCode = 0x02
	ExcIllegalValue    ExceptionCode = 0x03
	ExcDeviceFailure   ExceptionCode = 0x04
)

// Errors shared across the codec.
var (
	ErrShortPDU    = errors.New("modbus: PDU too short")
	ErrBadLength   = errors.New("modbus: inconsistent length field")
	ErrBadCRC      = errors.New("modbus: CRC mismatch")
	ErrFrameTooBig = errors.New("modbus: frame exceeds 256 bytes")
)

// ExceptionError is returned by the client when the slave responds with an
// exception PDU.
type ExceptionError struct {
	Function FunctionCode
	Code     ExceptionCode
}

func (e *ExceptionError) Error() string {
	return fmt.Sprintf("modbus: exception 0x%02x for function 0x%02x", uint8(e.Code), uint8(e.Function))
}

// PDU is a decoded protocol data unit: function code plus payload.
type PDU struct {
	Function FunctionCode
	Data     []byte
}

// IsException reports whether the PDU is an exception response.
func (p *PDU) IsException() bool { return uint8(p.Function)&exceptionFlag != 0 }

// ExceptionCode returns the exception code of an exception PDU (0 otherwise).
func (p *PDU) ExceptionCode() ExceptionCode {
	if !p.IsException() || len(p.Data) == 0 {
		return 0
	}
	return ExceptionCode(p.Data[0])
}

// Length returns the encoded PDU length in bytes.
func (p *PDU) Length() int { return 1 + len(p.Data) }

// Encode appends the wire form of the PDU to dst.
func (p *PDU) Encode(dst []byte) []byte {
	dst = append(dst, byte(p.Function))
	return append(dst, p.Data...)
}

// DecodePDU parses a raw PDU.
func DecodePDU(raw []byte) (*PDU, error) {
	if len(raw) < 1 {
		return nil, ErrShortPDU
	}
	data := make([]byte, len(raw)-1)
	copy(data, raw[1:])
	return &PDU{Function: FunctionCode(raw[0]), Data: data}, nil
}

// NewException builds an exception response PDU for the given request
// function.
func NewException(fn FunctionCode, code ExceptionCode) *PDU {
	return &PDU{Function: FunctionCode(uint8(fn) | exceptionFlag), Data: []byte{byte(code)}}
}

// ReadRequest builds a read request (coils/discrete/holding/input) for
// quantity items starting at addr.
func ReadRequest(fn FunctionCode, addr, quantity uint16) *PDU {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:], addr)
	binary.BigEndian.PutUint16(data[2:], quantity)
	return &PDU{Function: fn, Data: data}
}

// ParseReadRequest extracts (addr, quantity) from a read request.
func ParseReadRequest(p *PDU) (addr, quantity uint16, err error) {
	if len(p.Data) != 4 {
		return 0, 0, fmt.Errorf("%w: read request has %d payload bytes", ErrBadLength, len(p.Data))
	}
	return binary.BigEndian.Uint16(p.Data[0:]), binary.BigEndian.Uint16(p.Data[2:]), nil
}

// ReadRegistersResponse builds the response to a register read: byte count
// followed by big-endian register values.
func ReadRegistersResponse(fn FunctionCode, values []uint16) *PDU {
	data := make([]byte, 1+2*len(values))
	data[0] = byte(2 * len(values))
	for i, v := range values {
		binary.BigEndian.PutUint16(data[1+2*i:], v)
	}
	return &PDU{Function: fn, Data: data}
}

// ParseReadRegistersResponse extracts register values from a read response.
func ParseReadRegistersResponse(p *PDU) ([]uint16, error) {
	regs, err := ReadRegistersData(p)
	if err != nil {
		return nil, err
	}
	return registerValues(regs), nil
}

// ReadRegistersData validates a register read response exactly as
// ParseReadRegistersResponse does and returns its register values as the
// big-endian bytes on the wire, a view of p.Data rather than a copy.
func ReadRegistersData(p *PDU) ([]byte, error) {
	if len(p.Data) < 1 {
		return nil, ErrShortPDU
	}
	count := int(p.Data[0])
	if count%2 != 0 || len(p.Data) != 1+count {
		return nil, fmt.Errorf("%w: byte count %d vs payload %d", ErrBadLength, count, len(p.Data)-1)
	}
	return p.Data[1:], nil
}

// registerValues decodes big-endian register bytes.
func registerValues(regs []byte) []uint16 {
	values := make([]uint16, len(regs)/2)
	for i := range values {
		values[i] = binary.BigEndian.Uint16(regs[2*i:])
	}
	return values
}

// ReadBitsResponse builds the response to a coil/discrete-input read: byte
// count followed by the bit-packed states, LSB first.
func ReadBitsResponse(fn FunctionCode, bits []bool) *PDU {
	byteCount := (len(bits) + 7) / 8
	data := make([]byte, 1+byteCount)
	data[0] = byte(byteCount)
	for i, on := range bits {
		if on {
			data[1+i/8] |= 1 << (i % 8)
		}
	}
	return &PDU{Function: fn, Data: data}
}

// ParseReadBitsResponse extracts up to quantity bit states from a coil read
// response.
func ParseReadBitsResponse(p *PDU, quantity int) ([]bool, error) {
	if len(p.Data) < 1 {
		return nil, ErrShortPDU
	}
	byteCount := int(p.Data[0])
	if len(p.Data) != 1+byteCount || quantity > byteCount*8 {
		return nil, fmt.Errorf("%w: bits response count %d for quantity %d",
			ErrBadLength, byteCount, quantity)
	}
	bits := make([]bool, quantity)
	for i := range bits {
		bits[i] = p.Data[1+i/8]&(1<<(i%8)) != 0
	}
	return bits, nil
}

// WriteSingleRequest builds a write-single-coil or write-single-register
// request. For coils, value must be 0x0000 or 0xFF00.
func WriteSingleRequest(fn FunctionCode, addr, value uint16) *PDU {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:], addr)
	binary.BigEndian.PutUint16(data[2:], value)
	return &PDU{Function: fn, Data: data}
}

// ParseWriteSingleRequest extracts (addr, value) from a write-single request
// or its echo response.
func ParseWriteSingleRequest(p *PDU) (addr, value uint16, err error) {
	if len(p.Data) != 4 {
		return 0, 0, fmt.Errorf("%w: write-single has %d payload bytes", ErrBadLength, len(p.Data))
	}
	return binary.BigEndian.Uint16(p.Data[0:]), binary.BigEndian.Uint16(p.Data[2:]), nil
}

// WriteMultipleRequest builds a write-multiple-registers request.
func WriteMultipleRequest(addr uint16, values []uint16) *PDU {
	data := make([]byte, 5+2*len(values))
	binary.BigEndian.PutUint16(data[0:], addr)
	binary.BigEndian.PutUint16(data[2:], uint16(len(values)))
	data[4] = byte(2 * len(values))
	for i, v := range values {
		binary.BigEndian.PutUint16(data[5+2*i:], v)
	}
	return &PDU{Function: FuncWriteMultipleRegs, Data: data}
}

// ParseWriteMultipleRequest extracts (addr, values).
func ParseWriteMultipleRequest(p *PDU) (addr uint16, values []uint16, err error) {
	addr, regs, err := WriteMultipleData(p)
	if err != nil {
		return 0, nil, err
	}
	return addr, registerValues(regs), nil
}

// WriteMultipleData validates a write-multiple-registers request exactly
// as ParseWriteMultipleRequest does and returns its start address and its
// register values as the big-endian bytes on the wire, a view of p.Data
// rather than a copy.
func WriteMultipleData(p *PDU) (addr uint16, regs []byte, err error) {
	if len(p.Data) < 5 {
		return 0, nil, ErrShortPDU
	}
	addr = binary.BigEndian.Uint16(p.Data[0:])
	quantity := int(binary.BigEndian.Uint16(p.Data[2:]))
	byteCount := int(p.Data[4])
	if byteCount != 2*quantity || len(p.Data) != 5+byteCount {
		return 0, nil, fmt.Errorf("%w: write-multiple count %d bytes %d payload %d",
			ErrBadLength, quantity, byteCount, len(p.Data)-5)
	}
	return addr, p.Data[5:], nil
}

// WriteMultipleResponse builds the echo response for write-multiple.
func WriteMultipleResponse(addr, quantity uint16) *PDU {
	data := make([]byte, 4)
	binary.BigEndian.PutUint16(data[0:], addr)
	binary.BigEndian.PutUint16(data[2:], quantity)
	return &PDU{Function: FuncWriteMultipleRegs, Data: data}
}
