package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
	"time"

	"fourbit/internal/core"
)

// serveReq runs one request through the server's handler in process and
// returns the status and body.
func serveReq(s *Server, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// drainServer stops every instance worker of a server the fuzz target
// built.
func drainServer(t testing.TB, s *Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// FuzzRestoreSnapshot feeds arbitrary bytes to the /restore route — the
// JSON decode in handleRestore, then Server.RestoreSnapshot — on a fresh
// server. The route takes untrusted snapshot bytes, so every input must
// either be refused with an error status or install an instance whose
// snapshot restores byte-identically: snapshot it, restore that on a
// second fresh server, and the second snapshot must equal the first.
// Neither step may panic. The corpus is seeded with one snapshot per
// estimator kind, each taken after a short mixed event stream.
func FuzzRestoreSnapshot(f *testing.F) {
	var lines strings.Builder
	for i := 1; i <= 12; i++ {
		at := int64(i) * 1_000_000
		lines.WriteString(beaconLine(at, 5, i, 100+i) + "\n")
		fmt.Fprintf(&lines, `{"ev":"rx","at":%d,"src":6,"lqi":%d}`+"\n", at+1, 60+i)
		fmt.Fprintf(&lines, `{"ev":"tx","at":%d,"dest":5,"acked":%v}`+"\n", at+2, i%3 != 0)
	}
	var seeds [][]byte
	for _, kind := range core.EstimatorKinds() {
		s := NewServer(Options{})
		body := fmt.Sprintf(`{"name":"seed","kind":%q,"self":0,"seed":7}`, kind)
		if code, out := serveReq(s, "POST", "/v1/instances", []byte(body)); code != http.StatusCreated {
			f.Fatalf("create %s: status %d: %s", kind, code, out)
		}
		if code, out := serveReq(s, "POST", "/v1/instances/seed/events", []byte(lines.String())); code != http.StatusOK {
			f.Fatalf("ingest %s: status %d: %s", kind, code, out)
		}
		code, snap := serveReq(s, "GET", "/v1/instances/seed/snapshot", nil)
		if code != http.StatusOK {
			f.Fatalf("snapshot %s: status %d: %s", kind, code, snap)
		}
		seeds = append(seeds, bytes.Clone(snap))
		f.Add(seeds[len(seeds)-1])
		drainServer(f, s)
	}
	// A snapshot counting events as enqueued but not applied: restore must
	// not leave a barrier waiting on them.
	var pending InstanceSnapshot
	if err := json.Unmarshal(seeds[0], &pending); err != nil {
		f.Fatal(err)
	}
	pending.Stats.Applied = 0
	blob, err := json.Marshal(&pending)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	// A misspelled key: strict decoding refuses it rather than restoring
	// an empty table.
	f.Add(bytes.Replace(seeds[0], []byte(`"entries"`), []byte(`"entrys"`), 1))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1,"kind":"4bit","estimator":null}`))
	f.Add([]byte(`not json`))

	f.Fuzz(func(t *testing.T, input []byte) {
		first := NewServer(Options{})
		defer drainServer(t, first)
		if code, _ := serveReq(first, "POST", "/v1/instances/fz/restore", input); code != http.StatusOK {
			if code != http.StatusBadRequest && code != http.StatusConflict {
				t.Fatalf("refused restore answered status %d, want 400 or 409", code)
			}
			return
		}
		code, snap := serveReq(first, "GET", "/v1/instances/fz/snapshot", nil)
		if code != http.StatusOK {
			t.Fatalf("snapshot of a restored instance: status %d: %s", code, snap)
		}

		second := NewServer(Options{})
		defer drainServer(t, second)
		if code, out := serveReq(second, "POST", "/v1/instances/fz/restore", snap); code != http.StatusOK {
			t.Fatalf("re-restoring its own snapshot: status %d: %s\nsnapshot: %s", code, out, snap)
		}
		code, again := serveReq(second, "GET", "/v1/instances/fz/snapshot", nil)
		if code != http.StatusOK {
			t.Fatalf("snapshot after re-restore: status %d: %s", code, again)
		}
		if !bytes.Equal(snap, again) {
			t.Fatalf("snapshot changed across a restore round trip:\nfirst  %s\nsecond %s", snap, again)
		}
	})
}

// FuzzCreateInstance feeds arbitrary bodies to POST /v1/instances — the
// JSON decode, the name and kind checks, and the estimator build from the
// body's config — on a fresh server. An accepted body must be exactly one
// JSON value and yield an instance that takes one beacon and answers
// /table; a refused one must
// get a 4xx status with a JSON error body. Neither may panic. Were the
// oversized-table seed accepted, its first beacon would end the process.
func FuzzCreateInstance(f *testing.F) {
	full, err := json.Marshal(core.DefaultConfig())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"name":"fz","kind":"4bit","self":0,"seed":7}`))
	f.Add([]byte(fmt.Sprintf(`{"name":"fz","kind":"wmewma","self":3,"seed":9,"config":%s}`, full)))
	f.Add([]byte(oversizedTableBody(f, "fz")))
	f.Add([]byte(`{"name":"fz","kind":"pdr","confg":{"TableSize":3}}`))
	f.Add([]byte(`{"name":"fz","kind":"4bit"} {"name":"fy"}`))

	beacon := []byte(beaconLine(1_000_000, 5, 1, 120) + "\n")
	f.Fuzz(func(t *testing.T, body []byte) {
		s := NewServer(Options{})
		defer drainServer(t, s)
		code, out := serveReq(s, "POST", "/v1/instances", body)
		if code != http.StatusCreated {
			var e apiError
			if code < 400 || code >= 500 || json.Unmarshal(out, &e) != nil || e.Error == "" {
				t.Fatalf("refused create answered status %d with body %q, want a 4xx JSON error", code, out)
			}
			return
		}
		if !json.Valid(body) {
			t.Fatalf("created an instance from a body that is not one JSON value: %q", body)
		}
		var created struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(out, &created); err != nil {
			t.Fatalf("create response %q: %v", out, err)
		}
		base := "/v1/instances/" + url.PathEscape(created.Name)
		if code, out := serveReq(s, "POST", base+"/events", beacon); code != http.StatusOK {
			t.Fatalf("beacon into a created instance: status %d: %s", code, out)
		}
		if code, out := serveReq(s, "GET", base+"/table", nil); code != http.StatusOK {
			t.Fatalf("table of a created instance: status %d: %s", code, out)
		}
	})
}
