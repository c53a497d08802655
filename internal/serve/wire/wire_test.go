package wire

import (
	"bytes"
	"errors"
	"io"
	"math"
	"strings"
	"testing"

	"fourbit/internal/packet"
)

// sampleEvents covers every kind and every optional field combination.
func sampleEvents() []Event {
	return []Event{
		{Ev: EvBeacon, At: 10, Src: 2, Seq: 65535, LQI: 99, White: true, SNR: 7.5,
			Links: []packet.LinkEntry{{Addr: 0, InQuality: 200}, {Addr: 65533, InQuality: 0}}},
		{Ev: EvBeacon, At: 11, Src: 3, Seq: 0, LQI: 0},
		{Ev: EvTx, At: 20, Src: 3, Acked: true},
		{Ev: EvTx, At: 21, Src: 0, Acked: false},
		{Ev: EvRx, At: 30, Src: 4, LQI: 80, White: false, SNR: -2.25},
		{Ev: EvRx, At: 31, Src: 5, LQI: 1, White: true},
		{Ev: EvAge, At: 40, Silence: 1_000_000},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	evs := sampleEvents()
	frame, err := AppendBatch(nil, evs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	var dec BatchDecoder
	got, n, err := dec.DecodeFrame(frame)
	if err != nil {
		t.Fatalf("DecodeFrame: %v", err)
	}
	if n != len(frame) {
		t.Fatalf("consumed %d of %d frame bytes", n, len(frame))
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if !sameEvent(&evs[i], &got[i]) {
			t.Errorf("event %d: got %+v want %+v", i, got[i], evs[i])
		}
	}
}

func TestBinaryRoundTripPreservesSNRBits(t *testing.T) {
	for _, snr := range []float64{0, math.Copysign(0, -1), 1e-300, -1e300, 3.141592653589793} {
		ev := Event{Ev: EvRx, At: 1, Src: 1, SNR: snr}
		frame, err := AppendBatch(nil, []Event{ev})
		if err != nil {
			t.Fatalf("snr %v: %v", snr, err)
		}
		var dec BatchDecoder
		got, _, err := dec.DecodeFrame(frame)
		if err != nil {
			t.Fatalf("snr %v: %v", snr, err)
		}
		if math.Float64bits(got[0].SNR) != math.Float64bits(snr) {
			t.Errorf("snr bits changed: %x -> %x", math.Float64bits(snr), math.Float64bits(got[0].SNR))
		}
	}
}

func TestAppendEventRejectsInvalid(t *testing.T) {
	tooManyLinks := make([]packet.LinkEntry, packet.MaxLinkEntries+1)
	cases := []struct {
		name string
		ev   Event
	}{
		{"unknown kind", Event{Ev: "nope", At: 1}},
		{"negative at", Event{Ev: EvAge, At: -1, Silence: 5}},
		{"beacon broadcast src", Event{Ev: EvBeacon, At: 1, Src: packet.None}},
		{"tx broadcast dest", Event{Ev: EvTx, At: 1, Src: packet.Broadcast}},
		{"rx NaN snr", Event{Ev: EvRx, At: 1, Src: 1, SNR: math.NaN()}},
		{"beacon Inf snr", Event{Ev: EvBeacon, At: 1, Src: 1, SNR: math.Inf(1)}},
		{"age zero silence", Event{Ev: EvAge, At: 1}},
		{"beacon footer overflow", Event{Ev: EvBeacon, At: 1, Src: 1, Links: tooManyLinks}},
	}
	for _, c := range cases {
		if _, err := AppendEvent(nil, &c.ev); !errors.Is(err, ErrRecord) {
			t.Errorf("%s: err = %v, want ErrRecord", c.name, err)
		}
	}
}

// mutate returns a copy of body with one byte changed.
func mutate(body []byte, off int, b byte) []byte {
	out := append([]byte(nil), body...)
	out[off] = b
	return out
}

func TestDecodeBodyErrorTaxonomy(t *testing.T) {
	good := frameBody(t, sampleEvents())
	// Body layout: version(1) count-varint(1, =7) then records; the first
	// record is the full beacon starting at offset 2.
	cases := []struct {
		name string
		body []byte
		want error
	}{
		{"empty", nil, ErrFrame},
		{"version only", []byte{BatchVersion}, ErrFrame},
		{"future version", mutate(good, 0, BatchVersion+1), ErrFrameVersion},
		{"torn count varint", []byte{BatchVersion, 0x80}, ErrFrame},
		{"count over record bytes", []byte{BatchVersion, 0x05}, ErrFrame},
		{"trailing record bytes", append(append([]byte(nil), good...), 0), ErrFrame},
		{"unknown record kind", mutate(good, 2, 200), ErrRecord},
		{"poison without permit", frameBody(t, []Event{{Ev: EvPoison, At: 1}}), ErrRecord},
		{"reserved flag bits", mutate(good, 3, 0x80), ErrRecord},
	}
	for _, c := range cases {
		var dec BatchDecoder
		evs, err := dec.DecodeBody(c.body)
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if evs != nil {
			t.Errorf("%s: returned %d events alongside the error", c.name, len(evs))
		}
	}

	// AllowPoison flips exactly the poison case.
	dec := BatchDecoder{AllowPoison: true}
	if _, err := dec.DecodeBody(frameBody(t, []Event{{Ev: EvPoison, At: 1}})); err != nil {
		t.Errorf("poison with permit: %v", err)
	}
}

func TestDecodeBodyRejectsNonCanonicalZeros(t *testing.T) {
	// Fields a kind does not use must be zero on the wire; a record that
	// smuggles bits through them is rejected, which is what keeps binary
	// streams expressible as JSONL streams.
	age := frameBody(t, []Event{{Ev: EvAge, At: 1, Silence: 5}})
	tx := frameBody(t, []Event{{Ev: EvTx, At: 1, Src: 1}})
	// nlinks participates in framing, so a bare nlinks mutation is a size
	// mismatch (ErrFrame, covered above); smuggling footer entries onto a
	// non-beacon needs the matching bytes present to reach the record check.
	ageWithFooter := append(mutate(age, 2+2, 1), 0, 0, 0)
	cases := []struct {
		name string
		body []byte
	}{
		{"age with footer entries", ageWithFooter},
		{"age with lqi", mutate(age, 2+3, 1)},
		{"age with src", mutate(age, 2+4, 1)},
		{"age with seq", mutate(age, 2+6, 1)},
		{"tx with seq", mutate(tx, 2+6, 1)},
		{"tx with aux bits", mutate(tx, 2+16, 1)},
		{"tx with white flag", mutate(tx, 2+1, flagWhite)},
	}
	for _, c := range cases {
		var dec BatchDecoder
		if _, err := dec.DecodeBody(c.body); !errors.Is(err, ErrRecord) {
			t.Errorf("%s: err = %v, want ErrRecord", c.name, err)
		}
	}
}

func TestFrameReaderStream(t *testing.T) {
	evs := sampleEvents()
	var stream []byte
	var err error
	for i := range evs { // one frame per event, mixed with a batched frame
		if stream, err = AppendBatch(stream, evs[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if stream, err = AppendBatch(stream, evs); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(bytes.NewReader(stream), 0, false)
	var got []Event
	for {
		batch, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		for i := range batch {
			ev := batch[i]
			ev.Links = append([]packet.LinkEntry(nil), ev.Links...)
			got = append(got, ev)
		}
	}
	want := append(append([]Event(nil), evs...), evs...)
	if len(got) != len(want) {
		t.Fatalf("streamed %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEvent(&want[i], &got[i]) {
			t.Errorf("event %d: got %+v want %+v", i, got[i], want[i])
		}
	}
}

func TestFrameReaderTornAndOversize(t *testing.T) {
	frame, err := AppendBatch(nil, sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	// Torn mid-body.
	fr := NewFrameReader(bytes.NewReader(frame[:len(frame)-3]), 0, false)
	if _, err := fr.Next(); !errors.Is(err, ErrFrame) {
		t.Errorf("torn body: err = %v, want ErrFrame", err)
	}
	// Torn inside the length prefix.
	fr = NewFrameReader(bytes.NewReader([]byte{0xFF}), 0, false)
	if _, err := fr.Next(); !errors.Is(err, ErrFrame) {
		t.Errorf("torn prefix: err = %v, want ErrFrame", err)
	}
	// Over the batch budget: rejected by the declared length alone, without
	// reading (or buffering) the oversized body.
	fr = NewFrameReader(bytes.NewReader(frame), 8, false)
	if _, err := fr.Next(); !errors.Is(err, ErrFrame) {
		t.Errorf("over budget: err = %v, want ErrFrame", err)
	}
	// A clean empty stream is io.EOF, not an error.
	fr = NewFrameReader(bytes.NewReader(nil), 0, false)
	if _, err := fr.Next(); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestWireDecodeBatchZeroAlloc(t *testing.T) {
	frame, err := AppendBatch(nil, sampleEvents())
	if err != nil {
		t.Fatal(err)
	}
	var dec BatchDecoder
	if _, _, err := dec.DecodeFrame(frame); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := dec.DecodeFrame(frame); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state DecodeFrame allocates %.1f times per batch, want 0", allocs)
	}
}

func TestAppendJSONLEventMatchesDecoders(t *testing.T) {
	// Every encodable event must round-trip through its JSONL line.
	for _, ev := range append(sampleEvents(), Event{Ev: EvPoison, At: 7}) {
		line := AppendJSONLEvent(nil, &ev)
		dec := EventDecoder{AllowPoison: true}
		var got Event
		if err := dec.Decode(line, &got); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if !sameEvent(&ev, &got) {
			t.Errorf("%s: got %+v want %+v", line, got, ev)
		}
	}
}

func TestConvertRoundTrip(t *testing.T) {
	// JSONL → binary → JSONL must reproduce the canonical serialization of
	// every line. Input deliberately includes non-canonical-but-valid JSONL
	// (spacing, snr:0 spelled out) to show conversion canonicalizes.
	in := strings.Join([]string{
		`{"ev":"beacon","at":10,"src":2,"seq":3,"lqi":99,"white":true,"snr":7.5,"links":[{"addr":0,"q":200},{"addr":9,"q":0}]}`,
		`{"ev":"beacon","at":11,"src":3,"seq":0,"lqi":0,"white":false}`,
		``,
		`{"ev":"tx","at":20,"dest":3,"acked":true}`,
		`{ "ev":"rx", "at":30, "src":4, "lqi":80, "snr":0 }`,
		`{"ev":"rx","at":31,"src":5,"lqi":1,"white":true,"snr":-2.25}`,
		`{"ev":"age","at":40,"silence":1000000}`,
	}, "\n") + "\n"

	var bin bytes.Buffer
	n, err := ConvertJSONLToBinary(&bin, strings.NewReader(in), 3)
	if err != nil {
		t.Fatalf("ConvertJSONLToBinary: %v", err)
	}
	if n != 6 {
		t.Fatalf("converted %d events, want 6", n)
	}

	var out bytes.Buffer
	if n, err = ConvertBinaryToJSONL(&out, &bin); err != nil {
		t.Fatalf("ConvertBinaryToJSONL: %v", err)
	}
	if n != 6 {
		t.Fatalf("converted back %d events, want 6", n)
	}

	// The round trip equals re-encoding the decoded input canonically.
	var want bytes.Buffer
	var dec EventDecoder
	var ev Event
	for _, line := range strings.Split(strings.TrimSuffix(in, "\n"), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		if err := dec.Decode([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		want.Write(AppendJSONLEvent(nil, &ev))
		want.WriteByte('\n')
	}
	if out.String() != want.String() {
		t.Errorf("round trip diverged:\n got:\n%s want:\n%s", out.String(), want.String())
	}
}

func TestConvertRejectsMalformedLine(t *testing.T) {
	in := "{\"ev\":\"age\",\"at\":1,\"silence\":5}\n{\"ev\":\"warp\"}\n"
	var bin bytes.Buffer
	_, err := ConvertJSONLToBinary(&bin, strings.NewReader(in), 0)
	if !errors.Is(err, ErrEventKind) {
		t.Fatalf("err = %v, want ErrEventKind", err)
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error does not name the line: %v", err)
	}
}
