package packet

import "encoding/binary"

// LQIBeacon is the MultiHopLQI routing beacon: the sender advertises its
// accumulated LQI-derived path cost and hop count. Unlike CTP beacons it
// does not travel inside an LE envelope — MultiHopLQI has no link
// estimation layer; receivers judge the link purely from the LQI of the
// beacon itself.
type LQIBeacon struct {
	Parent   Addr
	Cost     uint16 // accumulated LQI-derived cost
	HopCount uint8
	Seq      uint16
}

const lqiBeaconLen = 7

// Encode serializes the beacon.
func (b *LQIBeacon) Encode() ([]byte, error) {
	buf := make([]byte, lqiBeaconLen)
	binary.BigEndian.PutUint16(buf[0:], uint16(b.Parent))
	binary.BigEndian.PutUint16(buf[2:], b.Cost)
	buf[4] = b.HopCount
	binary.BigEndian.PutUint16(buf[5:], b.Seq)
	return buf, nil
}

// DecodeLQIBeacon parses a beacon.
func DecodeLQIBeacon(data []byte) (*LQIBeacon, error) {
	if len(data) < lqiBeaconLen {
		return nil, ErrShortHeader
	}
	return &LQIBeacon{
		Parent:   Addr(binary.BigEndian.Uint16(data[0:])),
		Cost:     binary.BigEndian.Uint16(data[2:]),
		HopCount: data[4],
		Seq:      binary.BigEndian.Uint16(data[5:]),
	}, nil
}

// LQIData is MultiHopLQI's data frame header plus application payload.
type LQIData struct {
	Origin    Addr
	OriginSeq uint16
	HopCount  uint8
	Data      []byte
}

const lqiDataHeaderLen = 5

// EncodedLen returns the serialized size.
func (d *LQIData) EncodedLen() int { return lqiDataHeaderLen + len(d.Data) }

// Encode serializes the data header and payload.
func (d *LQIData) Encode() ([]byte, error) {
	return d.AppendTo(nil)
}

// AppendTo serializes the data header and payload onto dst and returns the
// extended slice; a reused scratch buffer (d.AppendTo(buf[:0])) encodes
// without allocating once it has grown.
func (d *LQIData) AppendTo(dst []byte) ([]byte, error) {
	if d.EncodedLen() > MaxPayload {
		return dst, ErrTooLong
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(d.Origin))
	dst = binary.BigEndian.AppendUint16(dst, d.OriginSeq)
	dst = append(dst, d.HopCount)
	return append(dst, d.Data...), nil
}

// DecodeLQIData parses a data frame payload.
func DecodeLQIData(data []byte) (*LQIData, error) {
	if len(data) < lqiDataHeaderLen {
		return nil, ErrShortHeader
	}
	d := &LQIData{
		Origin:    Addr(binary.BigEndian.Uint16(data[0:])),
		OriginSeq: binary.BigEndian.Uint16(data[2:]),
		HopCount:  data[4],
	}
	if rest := data[lqiDataHeaderLen:]; len(rest) > 0 {
		d.Data = make([]byte, len(rest))
		copy(d.Data, rest)
	}
	return d, nil
}
