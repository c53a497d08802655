package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// sameEvent compares two decoded events bit for bit (SNR by Float64bits, so
// NaN payloads and signed zeros count).
func sameEvent(a, b *Event) bool {
	if a.Ev != b.Ev || a.At != b.At || a.Src != b.Src || a.Seq != b.Seq ||
		a.LQI != b.LQI || a.White != b.White ||
		math.Float64bits(a.SNR) != math.Float64bits(b.SNR) ||
		a.Acked != b.Acked || a.Silence != b.Silence || len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// FuzzDecodeEvent drives arbitrary lines through the JSONL decoder. Its
// properties, one per robustness promise: it never panics (malformed input
// must not kill a stream); every rejection maps onto exactly one typed
// error (callers branch on them); a reused decoder behaves exactly like a
// fresh one (scratch reuse must never change outcomes — the property the
// chaostest harness caught a queue-slot aliasing bug against); and
// encoding/json is the reference both ways — every accepted line is free
// of the leniencies the wire refuses and decodes the same under a strict
// encoding/json pass, and every such line that pass accepts is accepted.
func FuzzDecodeEvent(f *testing.F) {
	f.Add([]byte(`{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":99,"white":true,"snr":7.5,"links":[{"addr":0,"q":200}]}`))
	f.Add([]byte(`{"ev":"tx","at":5,"dest":3,"acked":true}`))
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":80}`))
	f.Add([]byte(`{"ev":"age","at":5,"silence":1000}`))
	f.Add([]byte(`{"ev":"poison","at":5}`))
	f.Add([]byte(`{"ev":"beacon","at":-1}`))
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":80,"white":false,"snr":-0}`))
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":80,"snr":1e300}`))
	f.Add([]byte(`{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":9,"links":[{"addr":1,"q":2},{"addr":1,"q":3}]}`))
	f.Add([]byte(" {\t\"ev\" : \"age\" ,\"at\":5,\r\n\"silence\":1000 }\r"))
	f.Add([]byte(`{"ev":"beacon","at":9223372036854775807,"src":65533,"seq":65535,"lqi":255,"links":[{"addr":65533,"q":255}]}`))
	f.Add([]byte(`{"ev":"rx","at":0,"src":65534,"lqi":0}`))
	f.Add([]byte(`{"ev":"rx","at":0,"src":1,"lqi":256}`))
	f.Add([]byte(`{"ev":`))
	f.Add([]byte(``))
	f.Add([]byte(`[{"ev":"tx"}]`))
	// One seed per refusal class.
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":80,"whte":true}`))                                 // unknown key
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":80,"WHITE":true}`))                                // case variant
	f.Add([]byte(`{"EV":"age","at":5,"silence":1000}`))                                              // case-variant kind key
	f.Add([]byte(`{"ev":"tx","at":5,"dest":3,"acked":true,"acked":false}`))                          // duplicate key
	f.Add([]byte(`{"ev":"tx","at":5,"dest":3,"acked":true,"src":7}`))                                // foreign key
	f.Add([]byte(`{"ev":"age","at":5,"silence":1000,"links":[]}`))                                   // foreign key
	f.Add([]byte(`{"ev":"rx","at":5,"src":null,"lqi":80}`))                                          // null
	f.Add([]byte(`{"ev":"rx","at":5,"src":3,"lqi":null}`))                                           // null
	f.Add([]byte(`{"\u0065v":"age","at":5,"silence":1000}`))                                         // escaped key
	f.Add([]byte(`{"ev":"\u0061ge","at":5,"silence":1000}`))                                         // escaped kind
	f.Add([]byte(`{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":9,"links":[{"addr":1,"q":2,"x":0}]}`)) // extra link key
	f.Add([]byte(`{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":9,"links":[{"addr":1,"addr":2,"q":2}]}`))
	f.Add([]byte(`{"ev":"age","at":5,"silence":1000}{}`)) // trailing bytes

	f.Fuzz(func(t *testing.T, line []byte) {
		var fresh Event
		freshDec := EventDecoder{AllowPoison: true}
		freshErr := freshDec.Decode(line, &fresh)

		// A decoder that has chewed through other lines first must agree.
		var reused Event
		reusedDec := EventDecoder{AllowPoison: true}
		_ = reusedDec.Decode([]byte(`{"ev":"beacon","at":9,"src":8,"seq":7,"lqi":6,"links":[{"addr":1,"q":2},{"addr":3,"q":4}]}`), &reused)
		reusedErr := reusedDec.Decode(line, &reused)

		if (freshErr == nil) != (reusedErr == nil) {
			t.Fatalf("fresh err %v vs reused err %v", freshErr, reusedErr)
		}
		ref, refOK := strictReference(line)
		if freshErr != nil {
			if freshErr.Error() != reusedErr.Error() {
				t.Fatalf("reused decoder changed the error:\n fresh  %v\n reused %v", freshErr, reusedErr)
			}
			n := 0
			for _, sentinel := range []error{ErrEventSyntax, ErrEventKind, ErrEventField} {
				if errors.Is(freshErr, sentinel) {
					n++
				}
			}
			if n != 1 {
				t.Fatalf("error maps onto %d sentinels, want exactly 1: %v", n, freshErr)
			}
			if refOK && plainJSON(line) {
				t.Fatalf("refused a line strict encoding/json accepts: %v\n reference %+v", freshErr, ref)
			}
			return
		}

		// Accepted events carry only in-range, fully-reset fields.
		if len(fresh.Links) > packet.MaxLinkEntries {
			t.Fatalf("accepted %d footer entries", len(fresh.Links))
		}
		if fresh.Ev != EvBeacon && len(fresh.Links) != 0 {
			t.Fatalf("%s event leaked %d footer entries from scratch", fresh.Ev, len(fresh.Links))
		}
		if !refOK || !plainJSON(line) {
			t.Fatalf("accepted a line strict encoding/json refuses: %+v", fresh)
		}
		if !sameEvent(&fresh, &ref) {
			t.Fatalf("decoder diverged from encoding/json:\n decoder   %+v\n reference %+v", fresh, ref)
		}
		if !sameEvent(&fresh, &reused) {
			t.Fatalf("reused decoder diverged:\n fresh  %+v\n reused %+v", fresh, reused)
		}
	})
}

// The reference grammar: one struct per event kind, decoded by
// encoding/json with DisallowUnknownFields. Pointers mark required fields.
type (
	refLink struct {
		Addr *int64 `json:"addr"`
		Q    *int64 `json:"q"`
	}
	refBeacon struct {
		Ev    string    `json:"ev"`
		At    *int64    `json:"at"`
		Src   *int64    `json:"src"`
		Seq   *int64    `json:"seq"`
		LQI   *int64    `json:"lqi"`
		White bool      `json:"white"`
		SNR   float64   `json:"snr"`
		Links []refLink `json:"links"`
	}
	refTx struct {
		Ev    string `json:"ev"`
		At    *int64 `json:"at"`
		Dest  *int64 `json:"dest"`
		Acked *bool  `json:"acked"`
	}
	refRx struct {
		Ev    string  `json:"ev"`
		At    *int64  `json:"at"`
		Src   *int64  `json:"src"`
		LQI   *int64  `json:"lqi"`
		White bool    `json:"white"`
		SNR   float64 `json:"snr"`
	}
	refAge struct {
		Ev      string `json:"ev"`
		At      *int64 `json:"at"`
		Silence *int64 `json:"silence"`
	}
	refPoison struct {
		Ev string `json:"ev"`
		At *int64 `json:"at"`
	}
)

// strictReference decodes line with encoding/json into the struct its "ev"
// names, refusing unknown fields and trailing values, and applies the wire's
// presence and range rules. It reports false for any line the wire grammar
// does not describe, modulo the leniencies plainJSON screens out.
func strictReference(line []byte) (Event, bool) {
	var head struct {
		Ev string `json:"ev"`
	}
	if json.Unmarshal(line, &head) != nil {
		return Event{}, false
	}
	var dst any
	switch head.Ev {
	case EvBeacon:
		dst = new(refBeacon)
	case EvTx:
		dst = new(refTx)
	case EvRx:
		dst = new(refRx)
	case EvAge:
		dst = new(refAge)
	case EvPoison:
		dst = new(refPoison)
	default:
		return Event{}, false
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if dec.Decode(dst) != nil || dec.Decode(new(any)) != io.EOF {
		return Event{}, false
	}
	// in reports whether a required integer is present and in 0..max.
	in := func(v *int64, max int64) bool { return v != nil && *v >= 0 && *v <= max }
	const addrMax = int64(packet.None) - 1
	ev := Event{Ev: head.Ev}
	switch v := dst.(type) {
	case *refBeacon:
		if !in(v.At, math.MaxInt64) || !in(v.Src, addrMax) || !in(v.Seq, 0xFFFF) || !in(v.LQI, 0xFF) ||
			len(v.Links) > packet.MaxLinkEntries {
			return Event{}, false
		}
		for _, l := range v.Links {
			if !in(l.Addr, addrMax) || !in(l.Q, 0xFF) {
				return Event{}, false
			}
			ev.Links = append(ev.Links, packet.LinkEntry{Addr: packet.Addr(*l.Addr), InQuality: uint8(*l.Q)})
		}
		ev.At, ev.Src, ev.Seq, ev.LQI = sim.Time(*v.At), packet.Addr(*v.Src), uint16(*v.Seq), uint8(*v.LQI)
		ev.White, ev.SNR = v.White, v.SNR
	case *refTx:
		if !in(v.At, math.MaxInt64) || !in(v.Dest, addrMax) || v.Acked == nil {
			return Event{}, false
		}
		ev.At, ev.Src, ev.Acked = sim.Time(*v.At), packet.Addr(*v.Dest), *v.Acked
	case *refRx:
		if !in(v.At, math.MaxInt64) || !in(v.Src, addrMax) || !in(v.LQI, 0xFF) {
			return Event{}, false
		}
		ev.At, ev.Src, ev.LQI, ev.White, ev.SNR = sim.Time(*v.At), packet.Addr(*v.Src), uint8(*v.LQI), v.White, v.SNR
	case *refAge:
		if !in(v.At, math.MaxInt64) || !in(v.Silence, math.MaxInt64) || *v.Silence == 0 {
			return Event{}, false
		}
		ev.At, ev.Silence = sim.Time(*v.At), sim.Time(*v.Silence)
	case *refPoison:
		if !in(v.At, math.MaxInt64) {
			return Event{}, false
		}
		ev.At = sim.Time(*v.At)
	}
	return ev, true
}

// plainJSON reports whether line is free of the leniencies encoding/json
// has and the wire grammar refuses: string escapes, null, and object keys
// that are repeated or not spelled byte for byte as a wire key (encoding/json
// matches keys case-insensitively, and the last repeat wins).
func plainJSON(line []byte) bool {
	if bytes.IndexByte(line, '\\') >= 0 {
		return false
	}
	wireKeys := map[string]bool{}
	for _, k := range keyNames {
		wireKeys[k] = true
	}
	// One frame per open container; keys is nil for an array.
	type frame struct {
		keys    map[string]bool
		wantKey bool
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(line))
	for {
		tok, err := dec.Token()
		if err != nil {
			return err == io.EOF
		}
		if n := len(stack); n > 0 && stack[n-1].wantKey {
			if k, ok := tok.(string); ok {
				if !wireKeys[k] || stack[n-1].keys[k] {
					return false
				}
				stack[n-1].keys[k], stack[n-1].wantKey = true, false
				continue
			}
		}
		switch tok {
		case nil:
			return false
		case json.Delim('{'):
			stack = append(stack, frame{keys: map[string]bool{}, wantKey: true})
			continue
		case json.Delim('['):
			stack = append(stack, frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value ended: an enclosing object wants its next key.
		if n := len(stack); n > 0 && stack[n-1].keys != nil {
			stack[n-1].wantKey = true
		}
	}
}

// frameBody strips the length prefix off an AppendBatch frame, yielding the
// body bytes DecodeBody consumes.
func frameBody(t testing.TB, evs []Event) []byte {
	frame, err := AppendBatch(nil, evs)
	if err != nil {
		t.Fatalf("AppendBatch: %v", err)
	}
	_, n := binary.Uvarint(frame)
	return frame[n:]
}

// FuzzDecodeWireBatch drives arbitrary frame bodies through the binary
// batch decoder. Properties mirror FuzzDecodeEvent's: no panic, exactly one
// typed error per rejection, scratch reuse never changes outcomes, and
// decode∘encode is the identity — every accepted body's events re-encode
// without error and decode back bit-identical.
func FuzzDecodeWireBatch(f *testing.F) {
	links := []packet.LinkEntry{{Addr: 1, InQuality: 200}, {Addr: 9, InQuality: 0}}
	f.Add(frameBody(f, nil))
	f.Add(frameBody(f, []Event{
		{Ev: EvBeacon, At: 10, Src: 2, Seq: 3, LQI: 99, White: true, SNR: 7.5, Links: links},
		{Ev: EvTx, At: 20, Src: 3, Acked: true},
		{Ev: EvRx, At: 30, Src: 4, LQI: 80, SNR: -2.25},
		{Ev: EvAge, At: 40, Silence: 1_000_000},
		{Ev: EvPoison, At: 50},
	}))
	f.Add(frameBody(f, []Event{{Ev: EvRx, At: 1, Src: 0, SNR: math.Copysign(0, -1)}}))
	f.Add([]byte{BatchVersion, 0x01})       // 1 event declared, no records
	f.Add([]byte{BatchVersion + 1, 0x00})   // future version
	f.Add([]byte{BatchVersion, 0x80, 0x80}) // torn count varint
	f.Add([]byte{BatchVersion})             // count missing
	f.Add([]byte(nil))                      // empty body
	f.Add(append(frameBody(f, nil), 0x00))  // trailing record bytes

	f.Fuzz(func(t *testing.T, body []byte) {
		fresh := BatchDecoder{AllowPoison: true}
		evs, err := fresh.DecodeBody(body)

		// A decoder with warm scratch from a previous batch must agree.
		reusedDec := BatchDecoder{AllowPoison: true}
		_, _ = reusedDec.DecodeBody(frameBody(t, []Event{
			{Ev: EvBeacon, At: 1, Src: 1, Seq: 1, LQI: 1, Links: links},
			{Ev: EvAge, At: 2, Silence: 5},
		}))
		reusedEvs, reusedErr := reusedDec.DecodeBody(body)

		if (err == nil) != (reusedErr == nil) {
			t.Fatalf("fresh err %v vs reused err %v", err, reusedErr)
		}
		if err != nil {
			for name, e := range map[string]error{"fresh": err, "reused": reusedErr} {
				n := 0
				for _, sentinel := range []error{ErrFrame, ErrFrameVersion, ErrRecord} {
					if errors.Is(e, sentinel) {
						n++
					}
				}
				if n != 1 {
					t.Fatalf("%s error maps onto %d sentinels, want exactly 1: %v", name, n, e)
				}
			}
			return
		}
		if len(evs) != len(reusedEvs) {
			t.Fatalf("reused decoder yielded %d events, fresh %d", len(reusedEvs), len(evs))
		}
		for i := range evs {
			if !sameEvent(&evs[i], &reusedEvs[i]) {
				t.Fatalf("event %d diverged across scratch reuse:\n fresh  %+v\n reused %+v", i, evs[i], reusedEvs[i])
			}
		}

		// decode∘encode identity: everything the strict decoder accepted
		// must re-encode cleanly and decode back bit-identical.
		reFrame, err := AppendBatch(nil, evs)
		if err != nil {
			t.Fatalf("decoded events failed to re-encode: %v", err)
		}
		roundDec := BatchDecoder{AllowPoison: true}
		roundEvs, n, err := roundDec.DecodeFrame(reFrame)
		if err != nil || n != len(reFrame) {
			t.Fatalf("re-encoded frame failed to decode (n=%d of %d): %v", n, len(reFrame), err)
		}
		if len(roundEvs) != len(evs) {
			t.Fatalf("round trip yielded %d events, want %d", len(roundEvs), len(evs))
		}
		for i := range evs {
			if !sameEvent(&evs[i], &roundEvs[i]) {
				t.Fatalf("event %d changed across encode∘decode:\n before %+v\n after  %+v", i, evs[i], roundEvs[i])
			}
		}
	})
}
