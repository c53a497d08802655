package scenario

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The scenario and sweep JSON forms are the CLI's file inputs. These fuzz
// targets hold both parsers to one property: every input either fails to
// parse, or parses to a value that validates and whose JSON encoding is a
// fixed point — parsing that encoding again and re-encoding it yields the
// same bytes, so a spec written back out means what was read in. The
// bodies stay parse-only: no topology is built and no sweep is expanded.

func FuzzParseSpec(f *testing.F) {
	for _, p := range Presets() {
		f.Add(mustJSON(f, p.Spec))
	}
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"Protocol":"MultiHopLQI","Estimator":"wmewma"}`))
	f.Add([]byte(`{"Topology":{"Kind":"grid","Rows":8,"Cols":8},"TxPowerDBm":-0,"Traffic":{"JitterFrac":0.5}}`))
	f.Add([]byte(`{"Dynamics":[{"Kind":"link-burst","AtMin":1,"UntilMin":2,"LinkA":1,"LinkB":2}]}`))
	f.Add([]byte(`{"Channel":{"PathLossExponent":0}}`))
	f.Add([]byte(`{"protocol":"CTP","Bogus":1}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ParseSpec(data)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("parsed spec fails Validate: %v\ninput: %q", err, data)
		}
		out := mustJSON(t, s)
		again, err := ParseSpec(out)
		if err != nil {
			t.Fatalf("re-parsing the encoding failed: %v\nencoding: %s", err, out)
		}
		if out2 := mustJSON(t, again); !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", out, out2)
		}
	})
}

func FuzzParseSweep(f *testing.F) {
	f.Add(mustJSON(f, DefaultSweep(1, 25, 3)))
	f.Add([]byte(`{"Base":{},"Axes":[]}`))
	f.Add([]byte(`{"Base":{"Topology":{"Kind":"uniform","N":30}},"Axes":[{"Param":"nodes","Values":[20,40]},{"Param":"estimator","Strings":["4bit","lqi"]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"txpower","Values":[0],"Strings":["x"]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"bogus","Values":[1]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"seed","Values":[-1,1.5,9007199254740992]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"seed","Values":[0,9007199254740994]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"nodes","Values":[10.7]},{"Param":"clusters","Values":[-0]}]}`))
	f.Add([]byte(`{"Axes":[{"Param":"tablesize","Values":[7.9,1e300]}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		sw, err := ParseSweep(data)
		if err != nil {
			return
		}
		if err := sw.Validate(); err != nil {
			t.Fatalf("parsed sweep fails Validate: %v\ninput: %q", err, data)
		}
		out := mustJSON(t, sw)
		again, err := ParseSweep(out)
		if err != nil {
			t.Fatalf("re-parsing the encoding failed: %v\nencoding: %s", err, out)
		}
		if out2 := mustJSON(t, again); !bytes.Equal(out, out2) {
			t.Fatalf("encoding is not a fixed point:\nfirst:  %s\nsecond: %s", out, out2)
		}
	})
}

func mustJSON(tb testing.TB, v any) []byte {
	tb.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		tb.Fatalf("marshal: %v", err)
	}
	return data
}
