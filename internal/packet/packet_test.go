package packet

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{
		Type:       TypeData,
		AckRequest: true,
		Seq:        42,
		Src:        7,
		Dst:        12,
		Payload:    []byte("hello collection"),
	}
	enc, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != f.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(enc), f.EncodedLen())
	}
	got, err := DecodeFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f, got) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", f, got)
	}
}

func TestFrameRoundTripProperty(t *testing.T) {
	f := func(typ uint8, ack bool, seq uint8, src, dst uint16, payload []byte) bool {
		ft := FrameType(typ%3) + 1
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		in := &Frame{Type: ft, AckRequest: ack, Seq: seq, Src: Addr(src), Dst: Addr(dst), Payload: payload}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeFrame(enc)
		if err != nil {
			return false
		}
		if len(in.Payload) == 0 {
			return out.Payload == nil && in.Type == out.Type && in.Seq == out.Seq &&
				in.Src == out.Src && in.Dst == out.Dst && in.AckRequest == out.AckRequest
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	f := &Frame{Type: TypeData, Seq: 1, Src: 1, Dst: 2, Payload: []byte("payload")}
	enc, _ := f.Encode()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		bad := bytes.Clone(enc)
		i := rng.Intn(len(bad))
		bit := byte(1) << rng.Intn(8)
		bad[i] ^= bit
		if _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("single-bit corruption at byte %d bit %d not detected", i, bit)
		}
	}
}

func TestFrameTooLongRejected(t *testing.T) {
	f := &Frame{Type: TypeData, Payload: make([]byte, MaxPayload+1)}
	if _, err := f.Encode(); !errors.Is(err, ErrTooLong) {
		t.Fatalf("err = %v, want ErrTooLong", err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := DecodeFrame(nil); !errors.Is(err, ErrShortFrame) {
		t.Errorf("nil: %v, want ErrShortFrame", err)
	}
	if _, err := DecodeFrame(make([]byte, 5)); !errors.Is(err, ErrShortFrame) {
		t.Errorf("short: %v, want ErrShortFrame", err)
	}
	// Valid CRC but inconsistent length field.
	f := &Frame{Type: TypeData, Payload: []byte("abc")}
	enc, _ := f.Encode()
	enc[8] = 200 // length low byte
	crc := CRC16(enc[:len(enc)-2])
	enc[len(enc)-2] = byte(crc >> 8)
	enc[len(enc)-1] = byte(crc)
	if _, err := DecodeFrame(enc); !errors.Is(err, ErrBadLength) {
		t.Errorf("bad length: %v, want ErrBadLength", err)
	}
	// Valid CRC but unknown type.
	f2 := &Frame{Type: TypeData}
	enc2, _ := f2.Encode()
	enc2[0] = 99
	crc2 := CRC16(enc2[:len(enc2)-2])
	enc2[len(enc2)-2] = byte(crc2 >> 8)
	enc2[len(enc2)-1] = byte(crc2)
	if _, err := DecodeFrame(enc2); !errors.Is(err, ErrBadType) {
		t.Errorf("bad type: %v, want ErrBadType", err)
	}
}

func TestNewAckMatchesFrame(t *testing.T) {
	f := &Frame{Type: TypeData, AckRequest: true, Seq: 77, Src: 3, Dst: 9}
	ack := NewAck(f, 9)
	if ack.Type != TypeAck || ack.Seq != 77 || ack.Src != 9 || ack.Dst != 3 {
		t.Fatalf("bad ack: %+v", ack)
	}
	enc, err := ack.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != AckFrameLen {
		t.Fatalf("ack frame length %d, want %d", len(enc), AckFrameLen)
	}
}

func TestCRC16KnownVector(t *testing.T) {
	// CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16 = %#x, want 0x29B1", got)
	}
}

// crc16Bitwise is the definitional CRC-16/CCITT: one bit at a time, no
// tables — the reference the slicing-by-8 production path is certified
// against.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

func TestCRC16SlicingMatchesBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// Every length 0..64 crosses all slicing tail sizes; contents random.
	for size := 0; size <= 64; size++ {
		for trial := 0; trial < 8; trial++ {
			data := make([]byte, size)
			rng.Read(data)
			if got, want := CRC16(data), crc16Bitwise(data); got != want {
				t.Fatalf("CRC16(len=%d) = %#x, bitwise reference %#x", size, got, want)
			}
		}
	}
}

func TestAddrString(t *testing.T) {
	if Broadcast.String() != "bcast" || None.String() != "none" || Addr(5).String() != "5" {
		t.Fatal("Addr.String formatting wrong")
	}
}

func TestLEFrameRoundTrip(t *testing.T) {
	l := &LEFrame{
		Seq:        1234,
		Entries:    []LinkEntry{{Addr: 3, InQuality: 200}, {Addr: 9, InQuality: 255}},
		NetPayload: []byte{1, 2, 3, 4, 5},
	}
	enc, err := l.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeLEFrame(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", l, got)
	}
}

func TestLEFrameRoundTripProperty(t *testing.T) {
	f := func(seq uint16, entries []uint16, quals []uint8, payload []byte) bool {
		if len(entries) > MaxLinkEntries {
			entries = entries[:MaxLinkEntries]
		}
		if len(payload) > 100 {
			payload = payload[:100]
		}
		in := &LEFrame{Seq: seq}
		for i, a := range entries {
			q := uint8(0)
			if i < len(quals) {
				q = quals[i]
			}
			in.Entries = append(in.Entries, LinkEntry{Addr: Addr(a), InQuality: q})
		}
		if len(payload) > 0 {
			in.NetPayload = bytes.Clone(payload)
		}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeLEFrame(enc)
		if err != nil {
			return false
		}
		return out.Seq == in.Seq &&
			reflect.DeepEqual(out.Entries, in.Entries) &&
			bytes.Equal(out.NetPayload, in.NetPayload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLEFrameLimits(t *testing.T) {
	l := &LEFrame{Entries: make([]LinkEntry, MaxLinkEntries+1)}
	if _, err := l.Encode(); !errors.Is(err, ErrTooLong) {
		t.Fatal("oversized footer accepted")
	}
	if _, err := DecodeLEFrame([]byte{0, 0}); !errors.Is(err, ErrShortHeader) {
		t.Fatal("short LE header accepted")
	}
	if _, err := DecodeLEFrame([]byte{0, 0, 5, 0}); !errors.Is(err, ErrBadLength) {
		t.Fatal("truncated footer accepted")
	}
}

func TestCTPDataRoundTrip(t *testing.T) {
	d := &CTPData{
		Options:   CTPOptPull | CTPOptCongested,
		THL:       3,
		ETX:       57,
		Origin:    21,
		OriginSeq: 250,
		CollectID: 1,
		Data:      []byte("reading=42"),
	}
	enc, err := d.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCTPData(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d, got) {
		t.Fatalf("round trip mismatch: %+v vs %+v", d, got)
	}
}

func TestCTPDataProperty(t *testing.T) {
	f := func(opt, thl uint8, etx uint16, origin uint16, seq, cid uint8, data []byte) bool {
		if len(data) > MaxPayload-8 {
			data = data[:MaxPayload-8]
		}
		in := &CTPData{Options: opt, THL: thl, ETX: etx, Origin: Addr(origin), OriginSeq: seq, CollectID: cid}
		if len(data) > 0 {
			in.Data = bytes.Clone(data)
		}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeCTPData(enc)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestCTPBeaconRoundTrip(t *testing.T) {
	f := func(opt uint8, parent, etx uint16) bool {
		in := &CTPBeacon{Options: opt, Parent: Addr(parent), ETX: etx}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeCTPBeacon(enc)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLQIBeaconRoundTrip(t *testing.T) {
	f := func(parent, cost uint16, hops uint8, seq uint16) bool {
		in := &LQIBeacon{Parent: Addr(parent), Cost: cost, HopCount: hops, Seq: seq}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		out, err := DecodeLQIBeacon(enc)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestLQIDataRoundTrip(t *testing.T) {
	f := func(origin, seq uint16, hops uint8, data []byte) bool {
		if len(data) > MaxPayload-5 {
			data = data[:MaxPayload-5]
		}
		in := &LQIData{Origin: Addr(origin), OriginSeq: seq, HopCount: hops}
		if len(data) > 0 {
			in.Data = bytes.Clone(data)
		}
		enc, err := in.Encode()
		if err != nil {
			return false
		}
		// AppendTo onto a used buffer writes the same bytes after its
		// prefix.
		scratch, err := in.AppendTo([]byte{0xAA, 0xBB})
		if err != nil || !bytes.Equal(scratch[:2], []byte{0xAA, 0xBB}) || !bytes.Equal(scratch[2:], enc) {
			return false
		}
		out, err := DecodeLQIData(enc)
		return err == nil && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	long := &LQIData{Data: make([]byte, MaxPayload-4)}
	if _, err := long.Encode(); err != ErrTooLong {
		t.Fatalf("Encode of an oversized payload: err %v, want ErrTooLong", err)
	}
	if got, err := long.AppendTo([]byte{1}); err != ErrTooLong || len(got) != 1 {
		t.Fatalf("AppendTo of an oversized payload: %d bytes, err %v; want the buffer back and ErrTooLong", len(got), err)
	}
}

func TestNestedEncodingCTPBeaconInsideLEInsideFrame(t *testing.T) {
	// Full beacon path: CTP beacon -> LE envelope -> MAC frame -> air bytes.
	cb := &CTPBeacon{Options: CTPOptPull, Parent: 4, ETX: 23}
	cbBytes, err := cb.Encode()
	if err != nil {
		t.Fatal(err)
	}
	le := &LEFrame{Seq: 99, NetPayload: cbBytes, Entries: []LinkEntry{{Addr: 4, InQuality: 230}}}
	leBytes, err := le.Encode()
	if err != nil {
		t.Fatal(err)
	}
	f := &Frame{Type: TypeBeacon, Seq: 5, Src: 2, Dst: Broadcast, Payload: leBytes}
	air, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}

	gotF, err := DecodeFrame(air)
	if err != nil {
		t.Fatal(err)
	}
	gotLE, err := DecodeLEFrame(gotF.Payload)
	if err != nil {
		t.Fatal(err)
	}
	gotCB, err := DecodeCTPBeacon(gotLE.NetPayload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cb, gotCB) {
		t.Fatalf("nested round trip mismatch: %+v vs %+v", cb, gotCB)
	}
}

func BenchmarkFrameEncode(b *testing.B) {
	f := &Frame{Type: TypeData, AckRequest: true, Seq: 1, Src: 2, Dst: 3, Payload: make([]byte, 40)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := f.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	f := &Frame{Type: TypeData, AckRequest: true, Seq: 1, Src: 2, Dst: 3, Payload: make([]byte, 40)}
	enc, _ := f.Encode()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeFrame(enc); err != nil {
			b.Fatal(err)
		}
	}
}
