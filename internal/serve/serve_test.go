package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/serve/wire"
)

// testServer wires a Server behind httptest with test-friendly options.
func testServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := NewServer(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// do issues a request and decodes the JSON response into out (if non-nil).
func do(t *testing.T, method, url, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

func mustStatus(t *testing.T, resp *http.Response, want int) {
	t.Helper()
	if resp.StatusCode != want {
		t.Fatalf("status = %d, want %d", resp.StatusCode, want)
	}
}

func createInstance(t *testing.T, base, name, kind string) {
	t.Helper()
	resp := do(t, "POST", base+"/v1/instances",
		fmt.Sprintf(`{"name":%q,"kind":%q,"self":0,"seed":7}`, name, kind), nil)
	mustStatus(t, resp, http.StatusCreated)
}

// beaconLine builds one wire beacon line.
func beaconLine(at int64, src, seq, lqi int) string {
	return fmt.Sprintf(`{"ev":"beacon","at":%d,"src":%d,"seq":%d,"lqi":%d,"white":true,"links":[{"addr":0,"q":200}]}`,
		at, src, seq, lqi)
}

// --- Decoder ----------------------------------------------------------

func TestDecodeEventTyped(t *testing.T) {
	cases := []struct {
		name string
		line string
		want error // nil = accepted
	}{
		{"beacon ok", beaconLine(1, 2, 3, 99), nil},
		{"tx ok", `{"ev":"tx","at":5,"dest":3,"acked":true}`, nil},
		{"rx ok", `{"ev":"rx","at":5,"src":3,"lqi":80}`, nil},
		{"age ok", `{"ev":"age","at":5,"silence":1000}`, nil},
		{"not json", `{"ev":`, wire.ErrEventSyntax},
		{"wrong field type", `{"ev":"tx","at":"soon","dest":3,"acked":true}`, wire.ErrEventSyntax},
		{"array not object", `[1,2,3]`, wire.ErrEventSyntax},
		{"no kind", `{"at":5}`, wire.ErrEventKind},
		{"unknown kind", `{"ev":"bogus","at":5}`, wire.ErrEventKind},
		{"poison rejected by default", `{"ev":"poison","at":5}`, wire.ErrEventKind},
		{"missing at", `{"ev":"tx","dest":3,"acked":true}`, wire.ErrEventField},
		{"negative at", `{"ev":"tx","at":-5,"dest":3,"acked":true}`, wire.ErrEventField},
		{"beacon missing src", `{"ev":"beacon","at":1,"seq":2,"lqi":3}`, wire.ErrEventField},
		{"beacon src broadcast", `{"ev":"beacon","at":1,"src":65535,"seq":2,"lqi":3}`, wire.ErrEventField},
		{"beacon seq range", `{"ev":"beacon","at":1,"src":2,"seq":70000,"lqi":3}`, wire.ErrEventField},
		{"beacon lqi range", `{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":300}`, wire.ErrEventField},
		{"beacon link q range", `{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":4,"links":[{"addr":1,"q":999}]}`, wire.ErrEventField},
		{"beacon link addr missing", `{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":4,"links":[{"q":9}]}`, wire.ErrEventField},
		{"tx missing acked", `{"ev":"tx","at":5,"dest":3}`, wire.ErrEventField},
		{"tx missing dest", `{"ev":"tx","at":5,"acked":true}`, wire.ErrEventField},
		{"rx lqi range", `{"ev":"rx","at":5,"src":3,"lqi":-1}`, wire.ErrEventField},
		{"age zero silence", `{"ev":"age","at":5,"silence":0}`, wire.ErrEventField},
		{"misspelled key", `{"ev":"rx","at":5,"src":3,"lqi":80,"whte":true}`, wire.ErrEventField},
		{"case-variant key", `{"ev":"rx","at":5,"src":3,"lqi":80,"WHITE":true}`, wire.ErrEventField},
		{"duplicate key", `{"ev":"rx","at":5,"src":3,"lqi":80,"white":true,"white":false}`, wire.ErrEventField},
		{"case-variant kind key", `{"EV":"beacon","at":1,"src":2,"seq":3,"lqi":4}`, wire.ErrEventField},
		{"rx null src", `{"ev":"rx","at":5,"src":null,"lqi":80}`, wire.ErrEventSyntax},
		{"rx null lqi", `{"ev":"rx","at":5,"src":3,"lqi":null}`, wire.ErrEventSyntax},
		{"tx carries src", `{"ev":"tx","at":5,"dest":3,"acked":true,"src":7}`, wire.ErrEventField},
		{"age carries links", `{"ev":"age","at":5,"silence":1000,"links":[{"addr":1,"q":2}]}`, wire.ErrEventField},
		{"escaped key", `{"\u0065v":"age","at":5,"silence":1000}`, wire.ErrEventSyntax},
		{"extra key in link entry", `{"ev":"beacon","at":1,"src":2,"seq":3,"lqi":4,"links":[{"addr":1,"q":9,"rssi":3}]}`, wire.ErrEventField},
		{"beacon spaced", " {\t\"ev\" :\t\"beacon\" , \"at\" : 1 ,\"src\":\t2, \"seq\" : 3 , \"lqi\" : 4 , \"white\" : true , \"snr\" : -1.5 , \"links\" : [ { \"addr\" : 1 , \"q\" : 9 } , {\t\"q\":8,\"addr\":0 } ] }\t", nil},
		{"tx spaced", "\t{ \"ev\" : \"tx\" ,\t\"at\" : 5 , \"dest\" : 3 , \"acked\" : false } ", nil},
		{"rx spaced", " { \"ev\" : \"rx\" , \"at\" : 5 , \"src\" : 3 , \"lqi\" : 80 , \"white\" : false , \"snr\" : 0 }\r", nil},
		{"age spaced", "{\t\"ev\"\t:\t\"age\"\t,\t\"at\"\t:\t5\t,\t\"silence\"\t:\t1000\t}", nil},
	}
	var dec wire.EventDecoder
	var ev wire.Event
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := dec.Decode([]byte(tc.line), &ev)
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Decode(%s) = %v, want ok", tc.line, err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Decode(%s) = %v, want %v", tc.line, err, tc.want)
			}
			if strings.Contains(err.Error(), "-1") && !strings.Contains(tc.line, "-1") {
				t.Fatalf("Decode(%s) = %v: the error names a value the line does not hold", tc.line, err)
			}
		})
	}
}

func TestDecodeEventFootersReused(t *testing.T) {
	var dec wire.EventDecoder
	var ev wire.Event
	if err := dec.Decode([]byte(beaconLine(1, 2, 3, 99)), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Links) != 1 || ev.Links[0].InQuality != 200 {
		t.Fatalf("links = %+v", ev.Links)
	}
	if err := dec.Decode([]byte(`{"ev":"beacon","at":2,"src":2,"seq":4,"lqi":9}`), &ev); err != nil {
		t.Fatal(err)
	}
	if len(ev.Links) != 0 {
		t.Fatalf("stale links survived: %+v", ev.Links)
	}
}

func TestDecodePoisonGated(t *testing.T) {
	dec := wire.EventDecoder{AllowPoison: true}
	var ev wire.Event
	if err := dec.Decode([]byte(`{"ev":"poison","at":5}`), &ev); err != nil {
		t.Fatalf("gated poison refused: %v", err)
	}
	if ev.Ev != wire.EvPoison {
		t.Fatalf("ev = %q", ev.Ev)
	}
}

// --- Lifecycle and ingest --------------------------------------------

func TestCreateIngestQuery(t *testing.T) {
	_, ts := testServer(t, Options{})
	createInstance(t, ts.URL, "n1", "4bit")

	var lines strings.Builder
	for i := 1; i <= 40; i++ {
		lines.WriteString(beaconLine(int64(i)*1_000_000, 7, i, 100) + "\n")
	}
	var rep ingestReport
	resp := do(t, "POST", ts.URL+"/v1/instances/n1/events", lines.String(), &rep)
	mustStatus(t, resp, http.StatusOK)
	if rep.Accepted != 40 || rep.Malformed != 0 {
		t.Fatalf("report = %+v", rep)
	}

	var table struct {
		Neighbors []neighborView `json:"neighbors"`
		Applied   uint64         `json:"applied"`
	}
	resp = do(t, "GET", ts.URL+"/v1/instances/n1/table", "", &table)
	mustStatus(t, resp, http.StatusOK)
	if table.Applied != 40 {
		t.Fatalf("applied = %d, want 40 (read-your-writes barrier)", table.Applied)
	}
	if len(table.Neighbors) != 1 || table.Neighbors[0].Addr != 7 || !table.Neighbors[0].HasETX {
		t.Fatalf("table = %+v", table.Neighbors)
	}

	var q struct {
		Known  bool    `json:"known"`
		ETX    float64 `json:"etx"`
		ETXHex string  `json:"etx_hex"`
	}
	resp = do(t, "GET", ts.URL+"/v1/instances/n1/quality?addr=7", "", &q)
	mustStatus(t, resp, http.StatusOK)
	if !q.Known || q.ETX <= 0 || q.ETXHex == "" {
		t.Fatalf("quality = %+v", q)
	}
	resp = do(t, "GET", ts.URL+"/v1/instances/n1/quality?addr=9", "", &q)
	mustStatus(t, resp, http.StatusOK)
	if q.Known {
		t.Fatal("unknown neighbor reported known")
	}
}

func TestMalformedLinesCountedNotFatal(t *testing.T) {
	_, ts := testServer(t, Options{})
	createInstance(t, ts.URL, "n1", "wmewma")
	body := beaconLine(1, 2, 1, 90) + "\n" +
		"this is not json\n" +
		`{"ev":"warp","at":9}` + "\n" +
		beaconLine(2, 2, 2, 90) + "\n" +
		`{"ev":"beacon","at":3,"src":70000,"seq":3,"lqi":9}` + "\n" +
		beaconLine(3, 2, 3, 90) // truncated stream: no trailing newline
	var rep ingestReport
	resp := do(t, "POST", ts.URL+"/v1/instances/n1/events", body, &rep)
	mustStatus(t, resp, http.StatusOK)
	if rep.Accepted != 3 || rep.Malformed != 3 || rep.Lines != 6 {
		t.Fatalf("report = %+v", rep)
	}
	if !strings.Contains(rep.LastError, "line 2") {
		t.Fatalf("LastError = %q, want first bad line context", rep.LastError)
	}
	var st struct {
		Robust RobustStats `json:"robust"`
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/stats", "", &st)
	if st.Robust.Malformed != 3 || st.Robust.Enqueued != 3 {
		t.Fatalf("robust = %+v", st.Robust)
	}
}

func TestBackpressure429(t *testing.T) {
	_, ts := testServer(t, Options{QueueDepth: 4, RetryAfter: 2 * time.Second})
	createInstance(t, ts.URL, "n1", "4bit")
	// Pause the worker so the queue fills deterministically.
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/pause", "", nil), http.StatusOK)

	var lines strings.Builder
	for i := 1; i <= 10; i++ {
		lines.WriteString(beaconLine(int64(i), 3, i, 80) + "\n")
	}
	var rep ingestReport
	resp := do(t, "POST", ts.URL+"/v1/instances/n1/events", lines.String(), &rep)
	mustStatus(t, resp, http.StatusTooManyRequests)
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After = %q, want \"2\"", got)
	}
	if rep.Accepted != 4 {
		t.Fatalf("accepted = %d, want exactly the queue depth", rep.Accepted)
	}
	var st struct {
		Robust RobustStats `json:"robust"`
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/stats", "", &st)
	if st.Robust.Backpressured == 0 {
		t.Fatalf("robust = %+v, want backpressure counted", st.Robust)
	}

	// Resume: the queue drains and ingest works again.
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/resume", "", nil), http.StatusOK)
	resp = do(t, "POST", ts.URL+"/v1/instances/n1/events", beaconLine(99, 3, 99, 80), &rep)
	mustStatus(t, resp, http.StatusOK)
}

func TestDropOldestPolicy(t *testing.T) {
	_, ts := testServer(t, Options{QueueDepth: 4, Policy: DropOldest})
	createInstance(t, ts.URL, "n1", "pdr")
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/pause", "", nil), http.StatusOK)

	var lines strings.Builder
	for i := 1; i <= 10; i++ {
		lines.WriteString(beaconLine(int64(i), 3, i, 80) + "\n")
	}
	var rep ingestReport
	resp := do(t, "POST", ts.URL+"/v1/instances/n1/events", lines.String(), &rep)
	mustStatus(t, resp, http.StatusOK)
	if rep.Accepted != 10 {
		t.Fatalf("accepted = %d, want all 10 under drop-oldest", rep.Accepted)
	}
	var st struct {
		Robust RobustStats `json:"robust"`
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/stats", "", &st)
	if st.Robust.DroppedOldest != 6 {
		t.Fatalf("dropped = %d, want 6 (10 in, depth 4)", st.Robust.DroppedOldest)
	}
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/resume", "", nil), http.StatusOK)

	// The surviving events are the newest four: seqs 7..10.
	var table struct {
		Neighbors []neighborView `json:"neighbors"`
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/table", "", &table)
	if len(table.Neighbors) != 1 {
		t.Fatalf("table = %+v", table.Neighbors)
	}
}

func TestOutOfOrderClampAndDupCounters(t *testing.T) {
	_, ts := testServer(t, Options{})
	createInstance(t, ts.URL, "n1", "4bit")
	body := beaconLine(100, 3, 1, 80) + "\n" +
		beaconLine(50, 3, 2, 80) + "\n" + // time runs backward: clamped
		beaconLine(200, 3, 2, 80) + "\n" + // same src+seq again: dup
		beaconLine(300, 4, 2, 80) // different src, same seq: not a dup
	var rep ingestReport
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/events", body, &rep), http.StatusOK)
	if rep.Accepted != 4 {
		t.Fatalf("report = %+v", rep)
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/table", "", nil) // barrier
	var st struct {
		Robust RobustStats `json:"robust"`
	}
	do(t, "GET", ts.URL+"/v1/instances/n1/stats", "", &st)
	if st.Robust.OutOfOrder != 1 || st.Robust.DupBeacons != 1 {
		t.Fatalf("robust = %+v, want 1 out-of-order and 1 dup", st.Robust)
	}
}

func TestPoisonQuarantineIsolatesInstance(t *testing.T) {
	_, ts := testServer(t, Options{AllowPoison: true})
	createInstance(t, ts.URL, "sick", "4bit")
	createInstance(t, ts.URL, "healthy", "4bit")

	body := beaconLine(1, 3, 1, 80) + "\n" + `{"ev":"poison","at":2}` + "\n"
	var rep ingestReport
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/sick/events", body, &rep), http.StatusOK)

	// The sick instance quarantines; its state stays queryable.
	deadline := time.Now().Add(5 * time.Second)
	var st struct {
		Quarantined bool        `json:"quarantined"`
		Panic       string      `json:"panic"`
		Robust      RobustStats `json:"robust"`
	}
	for {
		do(t, "GET", ts.URL+"/v1/instances/sick/stats", "", &st)
		if st.Quarantined || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !st.Quarantined || st.Robust.Panics != 1 || !strings.Contains(st.Panic, "poison") {
		t.Fatalf("stats = %+v", st)
	}

	// Further ingest to the quarantined instance is refused with 409...
	resp := do(t, "POST", ts.URL+"/v1/instances/sick/events", beaconLine(3, 3, 2, 80), &rep)
	mustStatus(t, resp, http.StatusConflict)
	// ...its frozen table still answers...
	var table struct {
		Neighbors   []neighborView `json:"neighbors"`
		Quarantined bool           `json:"quarantined"`
	}
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/sick/table", "", &table), http.StatusOK)
	if !table.Quarantined || len(table.Neighbors) != 1 {
		t.Fatalf("table = %+v", table)
	}
	// ...and the healthy instance is untouched.
	resp = do(t, "POST", ts.URL+"/v1/instances/healthy/events", beaconLine(5, 9, 1, 80), &rep)
	mustStatus(t, resp, http.StatusOK)

	// Restore-from-snapshot is the recovery path: a pre-quarantine snapshot
	// clears the quarantine.
	var snap InstanceSnapshot
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/sick/snapshot", "", &snap), http.StatusOK)
	blob, _ := json.Marshal(&snap)
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/sick/restore", string(blob), nil), http.StatusOK)
	resp = do(t, "POST", ts.URL+"/v1/instances/sick/events", beaconLine(6, 3, 2, 80), &rep)
	mustStatus(t, resp, http.StatusOK)
}

func TestSnapshotRestoreHTTPRoundTrip(t *testing.T) {
	s, ts := testServer(t, Options{})
	createInstance(t, ts.URL, "a", "lqi")
	var lines strings.Builder
	for i := 1; i <= 30; i++ {
		lines.WriteString(beaconLine(int64(i)*1_000_000, 5, i, 120) + "\n")
	}
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/a/events", lines.String(), nil), http.StatusOK)

	var snap json.RawMessage
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/a/snapshot", "", &snap), http.StatusOK)

	// Restore under a new name; both must answer identically, bit for bit.
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/b/restore", string(snap), nil), http.StatusOK)
	var qa, qb struct {
		Known  bool   `json:"known"`
		ETXHex string `json:"etx_hex"`
	}
	do(t, "GET", ts.URL+"/v1/instances/a/quality?addr=5", "", &qa)
	do(t, "GET", ts.URL+"/v1/instances/b/quality?addr=5", "", &qb)
	if !qa.Known || qa.ETXHex != qb.ETXHex {
		t.Fatalf("restored answer differs: %+v vs %+v", qa, qb)
	}

	// Version gate: a foreign snapshot version is refused.
	var mut map[string]any
	if err := json.Unmarshal(snap, &mut); err != nil {
		t.Fatal(err)
	}
	mut["version"] = SnapshotVersion + 1
	blob, _ := json.Marshal(mut)
	resp := do(t, "POST", ts.URL+"/v1/instances/c/restore", string(blob), nil)
	mustStatus(t, resp, http.StatusConflict)

	// State gate: an (empty) instance's snapshot with a table past the
	// address space is refused, and the server stays up.
	createInstance(t, ts.URL, "empty", "4bit")
	var big InstanceSnapshot
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/empty/snapshot", "", &big), http.StatusOK)
	big.Estimator.Config.TableSize = 2_000_000_000
	blob, _ = json.Marshal(&big)
	var e apiError
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/d/restore", string(blob), &e), http.StatusBadRequest)
	if !strings.Contains(e.Error, "TableSize") {
		t.Fatalf("error %q does not name TableSize", e.Error)
	}
	big.Name = "d"
	if err := s.RestoreSnapshot(&big); !errors.Is(err, core.ErrSnapshotState) {
		t.Fatalf("RestoreSnapshot = %v, want ErrSnapshotState", err)
	}
	mustStatus(t, do(t, "GET", ts.URL+"/v1/healthz", "", nil), http.StatusOK)
}

func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	s, ts := testServer(t, Options{IdleEvict: 60 * time.Second, JanitorInterval: time.Hour, Clock: clock})
	createInstance(t, ts.URL, "old", "4bit")
	createInstance(t, ts.URL, "fresh", "4bit")

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	do(t, "GET", ts.URL+"/v1/instances/fresh/stats", "", nil) // touch

	if n := s.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d, want 1", n)
	}
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/old/stats", "", nil), http.StatusNotFound)
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances/fresh/stats", "", nil), http.StatusOK)
	var st struct {
		Lifecycle ServerStats `json:"lifecycle"`
	}
	do(t, "GET", ts.URL+"/v1/stats", "", &st)
	if st.Lifecycle.Evicted != 1 {
		t.Fatalf("lifecycle = %+v", st.Lifecycle)
	}
}

func TestRequestDeadlineOnBarrier(t *testing.T) {
	_, ts := testServer(t, Options{RequestTimeout: 50 * time.Millisecond})
	createInstance(t, ts.URL, "n1", "4bit")
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/pause", "", nil), http.StatusOK)
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/events", beaconLine(1, 2, 1, 80), nil), http.StatusOK)
	// The queue cannot drain while paused: the query must time out, not hang.
	resp := do(t, "GET", ts.URL+"/v1/instances/n1/table", "", nil)
	mustStatus(t, resp, http.StatusGatewayTimeout)
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/resume", "", nil), http.StatusOK)
}

func TestServerErrorsAndLimits(t *testing.T) {
	_, ts := testServer(t, Options{MaxInstances: 2})

	for _, tc := range []struct {
		name, method, path, body string
		status                   int
	}{
		{"unknown route", "GET", "/v2/nope", "", http.StatusNotFound},
		{"bad method on collection", "DELETE", "/v1/instances", "", http.StatusMethodNotAllowed},
		{"create bad json", "POST", "/v1/instances", `{"name":`, http.StatusBadRequest},
		{"create bad name", "POST", "/v1/instances", `{"name":"a/b","kind":"4bit"}`, http.StatusBadRequest},
		{"create bad kind", "POST", "/v1/instances", `{"name":"x","kind":"psychic"}`, http.StatusBadRequest},
		{"create table past address space", "POST", "/v1/instances", oversizedTableBody(t, "x"), http.StatusBadRequest},
		{"create misspelled key", "POST", "/v1/instances", `{"name":"a","kind":"pdr","confg":{"TableSize":3}}`, http.StatusBadRequest},
		{"create unknown config field", "POST", "/v1/instances", unknownConfigFieldBody(t, "b"), http.StatusBadRequest},
		{"create trailing value", "POST", "/v1/instances", `{"name":"c","kind":"4bit"}{"name":"d"}`, http.StatusBadRequest},
		{"create trailing garbage", "POST", "/v1/instances", `{"name":"e","kind":"4bit"} x`, http.StatusBadRequest},
		{"restore misspelled nested key", "POST", "/v1/instances/r/restore", misspelledSnapshotBody(t), http.StatusBadRequest},
		{"restore trailing value", "POST", "/v1/instances/r/restore", snapshotBody(t) + ` {}`, http.StatusBadRequest},
		{"missing instance table", "GET", "/v1/instances/ghost/table", "", http.StatusNotFound},
		{"missing instance delete", "DELETE", "/v1/instances/ghost", "", http.StatusNotFound},
		{"bad addr query", "GET", "/v1/instances/ghost/quality?addr=zebra", "", http.StatusNotFound},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e apiError
			resp := do(t, tc.method, ts.URL+tc.path, tc.body, &e)
			mustStatus(t, resp, tc.status)
			if e.Error == "" {
				t.Fatal("error body missing")
			}
		})
	}

	createInstance(t, ts.URL, "one", "4bit")
	// Duplicate name.
	resp := do(t, "POST", ts.URL+"/v1/instances", `{"name":"one","kind":"4bit"}`, nil)
	mustStatus(t, resp, http.StatusConflict)
	createInstance(t, ts.URL, "two", "4bit")
	// Instance limit.
	resp = do(t, "POST", ts.URL+"/v1/instances", `{"name":"three","kind":"4bit"}`, nil)
	mustStatus(t, resp, http.StatusServiceUnavailable)
	// Delete frees a slot.
	mustStatus(t, do(t, "DELETE", ts.URL+"/v1/instances/one", "", nil), http.StatusOK)
	createInstance(t, ts.URL, "three", "4bit")

	var list struct {
		Instances []struct {
			Name string `json:"name"`
		} `json:"instances"`
	}
	mustStatus(t, do(t, "GET", ts.URL+"/v1/instances", "", &list), http.StatusOK)
	if len(list.Instances) != 2 || list.Instances[0].Name != "three" || list.Instances[1].Name != "two" {
		t.Fatalf("list = %+v", list.Instances)
	}
}

func TestDrainRefusesNewWork(t *testing.T) {
	s := NewServer(Options{})
	ts := httptest.NewServer(s)
	defer ts.Close()
	createInstance(t, ts.URL, "n1", "4bit")
	mustStatus(t, do(t, "POST", ts.URL+"/v1/instances/n1/events", beaconLine(1, 2, 1, 80), nil), http.StatusOK)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp := do(t, "GET", ts.URL+"/v1/healthz", "", nil)
	mustStatus(t, resp, http.StatusServiceUnavailable)
	resp = do(t, "POST", ts.URL+"/v1/instances/n1/events", beaconLine(2, 2, 2, 80), nil)
	mustStatus(t, resp, http.StatusServiceUnavailable)
	resp = do(t, "POST", ts.URL+"/v1/instances", `{"name":"late","kind":"4bit"}`, nil)
	mustStatus(t, resp, http.StatusServiceUnavailable)
	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestParseOverflowPolicy(t *testing.T) {
	for s, want := range map[string]OverflowPolicy{"": Backpressure, "backpressure": Backpressure, "drop-oldest": DropOldest} {
		got, err := ParseOverflowPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseOverflowPolicy(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseOverflowPolicy("fifo"); err == nil {
		t.Fatal("bad policy accepted")
	}
	if Backpressure.String() != "backpressure" || DropOldest.String() != "drop-oldest" {
		t.Fatal("policy names drifted from the parser")
	}
}

// oversizedTableBody is a create body whose config is the default with a
// two-billion-entry table. The table allocates its full capacity on the
// first insert, so accepting it would let one request end the process on
// its first beacon.
// unknownConfigFieldBody is a create body whose otherwise complete,
// valid config carries one field core.Config does not have.
func unknownConfigFieldBody(t testing.TB, name string) string {
	t.Helper()
	blob, err := json.Marshal(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := strings.Replace(string(blob), "{", `{"Lottery":0.5,`, 1)
	return fmt.Sprintf(`{"name":%q,"kind":"4bit","self":0,"seed":7,"config":%s}`, name, cfg)
}

// snapshotBody returns a valid snapshot of a 4bit instance that has heard
// one beacon, so its estimator snapshot carries a non-empty "entries" list.
func snapshotBody(t testing.TB) string {
	t.Helper()
	s := NewServer(Options{})
	defer drainServer(t, s)
	if code, out := serveReq(s, "POST", "/v1/instances", []byte(`{"name":"src","kind":"4bit"}`)); code != http.StatusCreated {
		t.Fatalf("create: status %d: %s", code, out)
	}
	if code, out := serveReq(s, "POST", "/v1/instances/src/events", []byte(beaconLine(1, 2, 1, 80))); code != http.StatusOK {
		t.Fatalf("ingest: status %d: %s", code, out)
	}
	code, snap := serveReq(s, "GET", "/v1/instances/src/snapshot", nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d: %s", code, snap)
	}
	return string(snap)
}

// misspelledSnapshotBody is snapshotBody with the estimator's "entries"
// key misspelled: decoded loosely it would restore an empty table.
func misspelledSnapshotBody(t testing.TB) string {
	t.Helper()
	snap := snapshotBody(t)
	if !strings.Contains(snap, `"entries":[{`) {
		t.Fatalf("snapshot carries no entries: %s", snap)
	}
	return strings.Replace(snap, `"entries"`, `"entrys"`, 1)
}

func oversizedTableBody(t testing.TB, name string) string {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.TableSize = 2_000_000_000
	blob, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf(`{"name":%q,"kind":"4bit","self":0,"seed":7,"config":%s}`, name, blob)
}
