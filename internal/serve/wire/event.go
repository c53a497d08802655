// Package wire owns the estimation service's two ingest wire formats and
// nothing else: the line-oriented JSONL event encoding (one JSON object
// per line, strict decode with typed per-line errors) and the batched
// binary encoding (fixed little-endian event records under varint batch
// framing, negotiated via Content-Type: application/x-fourbit-batch).
// The JSONL decoder is one hand-rolled parser for a strict grammar: each
// event kind carries exactly its own keys, spelled exactly, each at most
// once, with no nulls and no string escapes. Both decoders reuse their
// scratch between calls, so long streams decode with zero steady-state
// allocations, and both certify the same contract: a stream ingested
// through either format drives an estimator through the identical call
// sequence, bit for bit.
package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Event kinds on the ingest wire. In JSONL form, one JSON object per line:
//
//	{"ev":"beacon","at":N,"src":N,"seq":N,"lqi":N,"white":B,"snr":F,"links":[{"addr":N,"q":N}]}
//	{"ev":"tx","at":N,"dest":N,"acked":B}
//	{"ev":"rx","at":N,"src":N,"lqi":N,"white":B,"snr":F}
//	{"ev":"age","at":N,"silence":N}
//
// at and silence are simulated-time nanoseconds. beacon carries the LE
// envelope fields the estimator's OnBeacon consumes; rx is an overheard
// non-beacon frame (OnOverhear); tx is the link layer's ack bit for one
// unicast (TxResult); age injects silence at the caller's cadence (Age).
// white, snr and links are optional; every other key of a kind is
// required. Keys may come in any order, with JSON whitespace between
// tokens.
const (
	EvBeacon = "beacon"
	EvTx     = "tx"
	EvRx     = "rx"
	EvAge    = "age"
	// EvPoison deliberately panics the instance worker. It decodes only
	// when the decoder's AllowPoison is set (the chaos harness); production
	// servers reject it as an unknown kind.
	EvPoison = "poison"
)

// Typed decode errors. Every malformed line maps onto exactly one of these;
// callers branch with errors.Is and per-line context rides in the wrapper.
var (
	// ErrEventSyntax: the line is not a JSON object of the wire shape — a
	// value of the wrong type (null included), a string escape, or
	// trailing bytes.
	ErrEventSyntax = errors.New("serve: malformed event line")
	// ErrEventKind: the "ev" field is missing or names no known event.
	ErrEventKind = errors.New("serve: unknown event kind")
	// ErrEventField: a key is unknown, repeated, or foreign to the event's
	// kind, or a required field is missing or out of range.
	ErrEventField = errors.New("serve: invalid event field")
)

// Event is one decoded ingest event.
type Event struct {
	Ev      string
	At      sim.Time
	Src     packet.Addr // beacon/rx source, tx destination
	Seq     uint16
	LQI     uint8
	White   bool
	SNR     float64
	Acked   bool
	Silence sim.Time
	Links   []packet.LinkEntry // aliases decoder scratch; valid until next Decode
}

// key is one wire key's bit in a seen mask: a line keeps one for its own
// keys, and each footer entry one for addr and q.
type key uint16

const (
	keyEv key = 1 << iota
	keyAt
	keySrc
	keyDest
	keySeq
	keyLQI
	keyWhite
	keySNR
	keyAcked
	keySilence
	keyLinks
	keyAddr // footer entries only
	keyQ    // footer entries only
)

// keyNames spells each key, indexed by its bit position.
var keyNames = [...]string{"ev", "at", "src", "dest", "seq", "lqi", "white", "snr", "acked", "silence", "links", "addr", "q"}

// name spells the lowest key set in k.
func (k key) name() string { return keyNames[bits.TrailingZeros16(uint16(k))] }

// kinds lists each event kind with the keys its lines may and must carry.
var kinds = [...]struct {
	name              string
	allowed, required key
}{
	{EvBeacon, keyEv | keyAt | keySrc | keySeq | keyLQI | keyWhite | keySNR | keyLinks, keyEv | keyAt | keySrc | keySeq | keyLQI},
	{EvTx, keyEv | keyAt | keyDest | keyAcked, keyEv | keyAt | keyDest | keyAcked},
	{EvRx, keyEv | keyAt | keySrc | keyLQI | keyWhite | keySNR, keyEv | keyAt | keySrc | keyLQI},
	{EvAge, keyEv | keyAt | keySilence, keyEv | keyAt | keySilence},
	{EvPoison, keyEv | keyAt, keyEv | keyAt},
}

// linkKeys are a footer entry's keys, all required.
const linkKeys = keyAddr | keyQ

// maxAddr is the largest unicast address: the broadcast and none sentinels
// never source or sink estimator feedback.
const maxAddr = int64(packet.None) - 1

// fields is one line's values before validation; seen marks the keys the
// line carried, so an absent field needs no sentinel value.
type fields struct {
	seen                             key
	kind                             []byte // aliases the line
	at, src, dest, seq, lqi, silence int64
	white, acked                     bool
	snr                              float64
}

// EventDecoder decodes JSONL ingest lines into Events, reusing its scratch
// between calls: a long stream decodes with zero steady-state allocations.
// It is the only JSONL decoder; FuzzDecodeEvent holds it to encoding/json
// on every line both can read. Not safe for concurrent use; the server
// keeps one per ingest request.
type EventDecoder struct {
	// AllowPoison admits the chaos-only poison event. Leave unset outside
	// fault-injection tests.
	AllowPoison bool

	links []packet.LinkEntry
}

// Decode parses one ingest line into ev. The returned error is nil or wraps
// exactly one of ErrEventSyntax, ErrEventKind, ErrEventField. ev.Links
// aliases decoder scratch and is consumed before the next Decode.
func (d *EventDecoder) Decode(line []byte, ev *Event) error {
	var f fields
	if err := d.parse(line, &f); err != nil {
		return err
	}
	return d.validate(&f, ev)
}

// parse reads the line's object into f and its footer into d.links. It
// refuses malformed JSON, the keys no line may carry — unknown ones (case
// variants included) and repeats — and malformed footer entries; validate
// judges the rest.
func (d *EventDecoder) parse(line []byte, f *fields) error {
	p := parser{in: line}
	d.links = d.links[:0]
	if !p.lit('{') {
		return p.fail("want an object")
	}
	for more := !p.lit('}'); more; {
		name, err := p.key()
		if err != nil {
			return err
		}
		var k key
		ok := true
		switch string(name) {
		case "ev":
			k = keyEv
			f.kind, err = p.str()
		case "at":
			k = keyAt
			f.at, ok = p.integer()
		case "src":
			k = keySrc
			f.src, ok = p.integer()
		case "dest":
			k = keyDest
			f.dest, ok = p.integer()
		case "seq":
			k = keySeq
			f.seq, ok = p.integer()
		case "lqi":
			k = keyLQI
			f.lqi, ok = p.integer()
		case "silence":
			k = keySilence
			f.silence, ok = p.integer()
		case "white":
			k = keyWhite
			f.white, ok = p.boolean()
		case "acked":
			k = keyAcked
			f.acked, ok = p.boolean()
		case "snr":
			k = keySNR
			f.snr, ok = p.float()
		case "links":
			k = keyLinks
			err = d.parseLinks(&p)
		default:
			return fmt.Errorf("%w: unknown key %q", ErrEventField, name)
		}
		if err != nil {
			return err
		}
		if !ok {
			return p.fail(fmt.Sprintf("%q has a value of the wrong type", name))
		}
		if f.seen&k != 0 {
			return fmt.Errorf("%w: duplicate key %q", ErrEventField, name)
		}
		f.seen |= k
		if more, err = p.next('}'); err != nil {
			return err
		}
	}
	p.ws()
	if p.i != len(line) {
		return p.fail("trailing bytes after the object")
	}
	return nil
}

// parseLinks reads the beacon footer array into d.links.
func (d *EventDecoder) parseLinks(p *parser) error {
	if !p.lit('[') {
		return p.fail(`"links" wants an array`)
	}
	for more := !p.lit(']'); more; {
		i := len(d.links)
		if !p.lit('{') {
			return p.fail(`"links" entries want objects`)
		}
		var seen key
		var addr, q int64
		for entry := !p.lit('}'); entry; {
			name, err := p.key()
			if err != nil {
				return err
			}
			var k key
			var v *int64
			switch string(name) {
			case "addr":
				k, v = keyAddr, &addr
			case "q":
				k, v = keyQ, &q
			}
			if k == 0 || seen&k != 0 {
				return fmt.Errorf("%w: unknown or repeated key %q in links[%d]", ErrEventField, name, i)
			}
			seen |= k
			var ok bool
			if *v, ok = p.integer(); !ok {
				return p.fail(fmt.Sprintf("links[%d].%s wants an integer", i, name))
			}
			if entry, err = p.next('}'); err != nil {
				return err
			}
		}
		switch {
		case seen != linkKeys:
			return fmt.Errorf("%w: links[%d].%s missing", ErrEventField, i, (linkKeys &^ seen).name())
		case addr < 0 || addr > maxAddr:
			return fmt.Errorf("%w: links[%d].addr = %d, want 0..%d", ErrEventField, i, addr, maxAddr)
		case q < 0 || q > math.MaxUint8:
			return fmt.Errorf("%w: links[%d].q = %d, want 0..255", ErrEventField, i, q)
		}
		d.links = append(d.links, packet.LinkEntry{Addr: packet.Addr(addr), InQuality: uint8(q)})
		var err error
		if more, err = p.next(']'); err != nil {
			return err
		}
	}
	return nil
}

// validate checks f against its kind's keys and each field's range, then
// fills ev. Fields a kind does not carry are zero in f, so the range checks
// need not ask which kind they serve.
func (d *EventDecoder) validate(f *fields, ev *Event) error {
	if f.seen&keyEv == 0 {
		return fmt.Errorf("%w: no \"ev\" field", ErrEventKind)
	}
	k := -1
	for i := range kinds {
		if string(f.kind) == kinds[i].name && (kinds[i].name != EvPoison || d.AllowPoison) {
			k = i
		}
	}
	if k < 0 {
		return fmt.Errorf("%w: %q", ErrEventKind, f.kind)
	}
	name := kinds[k].name
	if extra := f.seen &^ kinds[k].allowed; extra != 0 {
		return fieldErr(name, extra.name(), "is not a %s field", name)
	}
	if missing := kinds[k].required &^ f.seen; missing != 0 {
		return fieldErr(name, missing.name(), "missing")
	}
	for _, c := range [...]struct {
		field  key
		v, max int64
	}{
		{keyAt, f.at, math.MaxInt64},
		{keySrc, f.src, maxAddr},
		{keyDest, f.dest, maxAddr},
		{keySeq, f.seq, math.MaxUint16},
		{keyLQI, f.lqi, math.MaxUint8},
	} {
		if c.v < 0 || c.v > c.max {
			return fieldErr(name, c.field.name(), "= %d, want 0..%d", c.v, c.max)
		}
	}
	if f.seen&keySilence != 0 && f.silence <= 0 {
		return fieldErr(name, "silence", "= %d, want > 0", f.silence)
	}
	if len(d.links) > packet.MaxLinkEntries {
		return fieldErr(name, "links", "has %d entries, max %d", len(d.links), packet.MaxLinkEntries)
	}
	*ev = Event{
		Ev: name, At: sim.Time(f.at), Src: packet.Addr(f.src | f.dest), // a kind carries src or dest, never both
		Seq: uint16(f.seq), LQI: uint8(f.lqi), White: f.white, SNR: f.snr,
		Acked: f.acked, Silence: sim.Time(f.silence), Links: d.links,
	}
	return nil
}

// fieldErr builds an ErrEventField with context.
func fieldErr(ev, field string, format string, args ...any) error {
	return fmt.Errorf("%w: %s.%s %s", ErrEventField, ev, field, fmt.Sprintf(format, args...))
}

// parser is a cursor over one line.
type parser struct {
	in []byte
	i  int
}

// fail reports a syntax error at the cursor.
func (p *parser) fail(what string) error {
	return fmt.Errorf("%w: %s at byte %d", ErrEventSyntax, what, p.i)
}

// ws skips JSON whitespace.
func (p *parser) ws() {
	i := p.i
	for ; i < len(p.in) && p.in[i] <= ' '; i++ {
		if c := p.in[i]; c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			break
		}
	}
	p.i = i
}

// lit skips whitespace and consumes c if it is the next byte.
func (p *parser) lit(c byte) bool {
	p.ws()
	if p.i < len(p.in) && p.in[p.i] == c {
		p.i++
		return true
	}
	return false
}

// next ends one member or element: true after a comma, false after the
// container's closing byte.
func (p *parser) next(closing byte) (bool, error) {
	if p.lit(',') {
		return true, nil
	}
	if p.lit(closing) {
		return false, nil
	}
	return false, p.fail(fmt.Sprintf("want ',' or '%c'", closing))
}

// key consumes a member name and its colon.
func (p *parser) key() ([]byte, error) {
	name, err := p.str()
	if err == nil && !p.lit(':') {
		err = p.fail("want ':'")
	}
	return name, err
}

// str consumes a string. Escapes are refused, not decoded: every string on
// the wire is a key or a kind name, and none needs one.
func (p *parser) str() ([]byte, error) {
	if !p.lit('"') {
		return nil, p.fail("want a string")
	}
	for i := p.i; i < len(p.in); i++ {
		switch c := p.in[i]; {
		case c == '"':
			s := p.in[p.i:i]
			p.i = i + 1
			return s, nil
		case c == '\\':
			return nil, p.fail("string escapes are not accepted")
		case c < 0x20:
			return nil, p.fail("control byte in a string")
		}
	}
	return nil, p.fail("unterminated string")
}

// digits consumes a run of decimal digits and returns its length.
func (p *parser) digits() int {
	i := p.i
	for i < len(p.in) && p.in[i] >= '0' && p.in[i] <= '9' {
		i++
	}
	n := i - p.i
	p.i = i
	return n
}

// peek reports whether the next byte is c, without skipping whitespace.
func (p *parser) peek(c byte) bool { return p.i < len(p.in) && p.in[p.i] == c }

// number consumes one JSON number token.
func (p *parser) number() ([]byte, bool) {
	p.ws()
	start := p.i
	if p.peek('-') {
		p.i++
	}
	if n := p.digits(); n == 0 || n > 1 && p.in[p.i-n] == '0' {
		return nil, false // no digits, or a leading zero
	}
	if p.peek('.') {
		p.i++
		if p.digits() == 0 {
			return nil, false
		}
	}
	if p.peek('e') || p.peek('E') {
		p.i++
		if p.peek('+') || p.peek('-') {
			p.i++
		}
		if p.digits() == 0 {
			return nil, false
		}
	}
	return p.in[start:p.i], true
}

// integer consumes a JSON number that is an integer fitting int64.
func (p *parser) integer() (int64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	var v int64
	for _, c := range tok {
		if c < '0' || c > '9' || v > (1<<62)/5 {
			return 0, false // a fraction or exponent, or v*10 overflows
		}
		if v = v*10 + int64(c-'0'); v < 0 {
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	return v, true
}

// float consumes a JSON number and parses it with strconv.ParseFloat, the
// routine encoding/json uses. The token-to-string conversion is the
// decoder's one possible allocation, paid only by lines that carry snr.
func (p *parser) float() (float64, bool) {
	tok, ok := p.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}

// boolean consumes a true or false literal.
func (p *parser) boolean() (v, ok bool) {
	p.ws()
	for _, lit := range [...]string{"true", "false"} {
		if bytes.HasPrefix(p.in[p.i:], []byte(lit)) {
			p.i += len(lit)
			return lit == "true", true
		}
	}
	return false, false
}
