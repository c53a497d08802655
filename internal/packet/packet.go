// Package packet defines the wire formats used by every layer of the stack:
// the 802.15.4-style MAC frame, the link-estimation (layer 2.5) header and
// footer, CTP's data and routing frames, and MultiHopLQI's beacon and data
// frames. All frames have explicit binary encodings (big endian) with a
// CRC-16/CCITT trailer, and every format round-trips through
// Encode/Decode — the frames really do cross the simulated air as bytes.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Addr is a link-layer node address.
type Addr uint16

// Broadcast is the all-nodes destination address.
const Broadcast Addr = 0xFFFF

// None is the distinguished "no address" value (e.g. no parent selected).
const None Addr = 0xFFFE

// String formats an address, with the two sentinels named.
func (a Addr) String() string {
	switch a {
	case Broadcast:
		return "bcast"
	case None:
		return "none"
	default:
		return fmt.Sprintf("%d", uint16(a))
	}
}

// FrameType discriminates MAC frames.
type FrameType uint8

// Frame types.
const (
	TypeData   FrameType = 1 // unicast network-layer data
	TypeAck    FrameType = 2 // link-layer acknowledgment
	TypeBeacon FrameType = 3 // broadcast routing/estimation beacon
)

func (t FrameType) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeAck:
		return "ack"
	case TypeBeacon:
		return "beacon"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Frame header flag bits.
const (
	flagAckRequest = 1 << 0
)

// Frame is the MAC-layer frame.
type Frame struct {
	Type       FrameType
	AckRequest bool
	Seq        uint8 // link-layer sequence number, matches acks to data
	Src, Dst   Addr
	Payload    []byte
}

// Frame layout: Type(1) Flags(1) Seq(1) Src(2) Dst(2) PayloadLen(2) | payload | CRC(2).
const (
	FrameHeaderLen  = 9
	FrameTrailerLen = 2
	// MaxPayload keeps frames within the 127-byte 802.15.4 PSDU.
	MaxPayload = 116
	// AckFrameLen is the encoded size of an acknowledgment frame.
	AckFrameLen = FrameHeaderLen + FrameTrailerLen
)

// Errors returned by decoders.
var (
	ErrShortFrame  = errors.New("packet: frame too short")
	ErrBadCRC      = errors.New("packet: CRC mismatch")
	ErrBadLength   = errors.New("packet: length field inconsistent")
	ErrBadType     = errors.New("packet: unknown frame type")
	ErrTooLong     = errors.New("packet: payload exceeds maximum")
	ErrShortHeader = errors.New("packet: payload header truncated")
)

// EncodedLen returns the on-air byte count of the frame.
func (f *Frame) EncodedLen() int { return FrameHeaderLen + len(f.Payload) + FrameTrailerLen }

// Encode serializes the frame, appending a CRC-16 over header and payload.
func (f *Frame) Encode() ([]byte, error) {
	buf := make([]byte, f.EncodedLen())
	if err := f.EncodeTo(buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// AppendTo serializes the frame onto dst and returns the extended slice —
// the steady-state encoder: a caller that keeps the returned slice as its
// scratch buffer (f.AppendTo(buf[:0])) encodes without allocating once
// the buffer has grown to its working size.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	n := len(dst)
	dst = appendZeros(dst, f.EncodedLen())
	if err := f.EncodeTo(dst[n:]); err != nil {
		return dst[:n], err
	}
	return dst, nil
}

// appendZeros extends dst by n writable bytes, reusing capacity.
func appendZeros(dst []byte, n int) []byte {
	if cap(dst)-len(dst) >= n {
		return dst[:len(dst)+n]
	}
	return append(dst, make([]byte, n)...)
}

// EncodeTo serializes the frame into buf, which must be exactly
// EncodedLen() bytes. It writes the same bytes Encode returns; callers
// with a reusable buffer (the MAC's pooled acks) use it to serialize
// without allocating.
func (f *Frame) EncodeTo(buf []byte) error {
	if len(f.Payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrTooLong, len(f.Payload))
	}
	if len(buf) != f.EncodedLen() {
		return fmt.Errorf("packet: EncodeTo buffer is %d bytes, frame needs %d", len(buf), f.EncodedLen())
	}
	buf[0] = byte(f.Type)
	buf[1] = 0 // buf may be reused; every byte must be written, not OR'd
	if f.AckRequest {
		buf[1] = flagAckRequest
	}
	buf[2] = f.Seq
	binary.BigEndian.PutUint16(buf[3:], uint16(f.Src))
	binary.BigEndian.PutUint16(buf[5:], uint16(f.Dst))
	binary.BigEndian.PutUint16(buf[7:], uint16(len(f.Payload)))
	copy(buf[FrameHeaderLen:], f.Payload)
	crc := CRC16(buf[:len(buf)-FrameTrailerLen])
	binary.BigEndian.PutUint16(buf[len(buf)-FrameTrailerLen:], crc)
	return nil
}

// DecodeFrame parses and validates an encoded frame. The payload is copied;
// the result does not alias data.
func DecodeFrame(data []byte) (*Frame, error) {
	f := &Frame{}
	if err := DecodeFrameInto(f, data); err != nil {
		return nil, err
	}
	if len(f.Payload) > 0 {
		p := make([]byte, len(f.Payload))
		copy(p, f.Payload)
		f.Payload = p
	}
	return f, nil
}

// DecodeFrameInto parses and validates an encoded frame into f without
// allocating: f.Payload aliases data, so the caller must treat it as
// immutable and must not retain it past data's lifetime. This is the MAC
// receive path's decoder — radios decode every frame they hear.
func DecodeFrameInto(f *Frame, data []byte) error {
	if len(data) < FrameHeaderLen+FrameTrailerLen {
		return ErrShortFrame
	}
	wantCRC := binary.BigEndian.Uint16(data[len(data)-FrameTrailerLen:])
	if CRC16(data[:len(data)-FrameTrailerLen]) != wantCRC {
		return ErrBadCRC
	}
	*f = Frame{
		Type:       FrameType(data[0]),
		AckRequest: data[1]&flagAckRequest != 0,
		Seq:        data[2],
		Src:        Addr(binary.BigEndian.Uint16(data[3:])),
		Dst:        Addr(binary.BigEndian.Uint16(data[5:])),
	}
	switch f.Type {
	case TypeData, TypeAck, TypeBeacon:
	default:
		return fmt.Errorf("%w: %d", ErrBadType, data[0])
	}
	plen := int(binary.BigEndian.Uint16(data[7:]))
	if FrameHeaderLen+plen+FrameTrailerLen != len(data) {
		return fmt.Errorf("%w: header says %d, frame holds %d",
			ErrBadLength, plen, len(data)-FrameHeaderLen-FrameTrailerLen)
	}
	if plen > 0 {
		f.Payload = data[FrameHeaderLen : FrameHeaderLen+plen]
	}
	return nil
}

// FrameDst peeks the destination address of an encoded frame without
// validating it. ok is false when data is too short to be any frame.
// The medium reads it once per transmission, so that radios with an
// address filter skip overheard traffic addressed elsewhere before any
// CRC validation, decode or upcall.
func FrameDst(data []byte) (dst Addr, ok bool) {
	if len(data) < FrameHeaderLen+FrameTrailerLen {
		return 0, false
	}
	return Addr(binary.BigEndian.Uint16(data[5:])), true
}

// NewAck builds the acknowledgment frame for a received frame.
func NewAck(of *Frame, acker Addr) *Frame {
	return &Frame{Type: TypeAck, Seq: of.Seq, Src: acker, Dst: of.Src}
}

// crc16Table is the byte-at-a-time lookup table for CRC-16/CCITT
// (polynomial 0x1021). Entry i is the CRC state transition for input byte i.
var crc16Table = func() (t [256]uint16) {
	for i := 0; i < 256; i++ {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// crc16Slices extends crc16Table for slicing-by-8: crc16Slices[k][b] is the
// CRC state transition for byte b followed by k zero bytes, so eight input
// bytes resolve through eight independent table lookups per iteration.
// Algebraically identical to the byte-at-a-time loop (CRC is linear over
// GF(2)), hence bit-identical output — certified by TestCRC16SlicingMatchesBitwise.
var crc16Slices = func() (t [8][256]uint16) {
	t[0] = crc16Table
	for k := 1; k < 8; k++ {
		for b := 0; b < 256; b++ {
			c := t[k-1][b]
			t[k][b] = c<<8 ^ crc16Table[byte(c>>8)]
		}
	}
	return t
}()

// CRC16 computes CRC-16/CCITT (polynomial 0x1021, init 0xFFFF) over data,
// eight bytes per step (slicing-by-8) with a byte-at-a-time tail.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for len(data) >= 8 {
		crc = crc16Slices[7][byte(crc>>8)^data[0]] ^
			crc16Slices[6][byte(crc)^data[1]] ^
			crc16Slices[5][data[2]] ^
			crc16Slices[4][data[3]] ^
			crc16Slices[3][data[4]] ^
			crc16Slices[2][data[5]] ^
			crc16Slices[1][data[6]] ^
			crc16Slices[0][data[7]]
		data = data[8:]
	}
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}
