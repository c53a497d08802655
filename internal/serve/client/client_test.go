package client_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve"
	"fourbit/internal/serve/client"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// testEvents builds a deterministic stream exercising every event kind.
func testEvents(n int) []wire.Event {
	evs := make([]wire.Event, 0, n)
	for i := 0; i < n; i++ {
		at := sim.Time(i+1) * 1_000_000
		src := packet.Addr(i%5 + 1)
		switch i % 4 {
		case 0:
			evs = append(evs, wire.Event{Ev: wire.EvBeacon, At: at, Src: src,
				Seq: uint16(i), LQI: 90, White: true, SNR: float64(i%7) + 0.5})
		case 1:
			evs = append(evs, wire.Event{Ev: wire.EvTx, At: at, Src: src, Acked: i%3 != 0})
		case 2:
			evs = append(evs, wire.Event{Ev: wire.EvRx, At: at, Src: src, LQI: 80})
		default:
			evs = append(evs, wire.Event{Ev: wire.EvAge, At: at, Silence: 500_000})
		}
	}
	return evs
}

func newTestServer(t *testing.T, opts serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.NewServer(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// snapshotSansName fetches an instance snapshot with the name blanked, so
// two instances fed the same stream can be compared bit for bit.
func snapshotSansName(t *testing.T, base, name string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/instances/" + name + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap serve.InstanceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot %s: status %d", name, resp.StatusCode)
	}
	snap.Name = ""
	out, err := json.Marshal(&snap)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestFeedFormatsConverge feeds the identical stream through a binary feed
// and a JSONL feed and demands bit-identical instance snapshots — the
// client-side leg of the cross-format differential.
func TestFeedFormatsConverge(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{})
	evs := testEvents(997) // not a multiple of the batch size: exercises tail flush

	for _, cfg := range []struct {
		name  string
		jsonl bool
	}{{"bin", false}, {"jsonl", true}} {
		if err := client.CreateInstance(nil, ts.URL, cfg.name, core.KindFourBit, 1, 42, nil); err != nil {
			t.Fatal(err)
		}
		feed := client.New(ts.URL, cfg.name, client.Options{BatchEvents: 128, JSONL: cfg.jsonl})
		for i := range evs {
			if err := feed.Send(&evs[i]); err != nil {
				t.Fatalf("%s send %d: %v", cfg.name, i, err)
			}
		}
		if err := feed.Flush(); err != nil {
			t.Fatalf("%s flush: %v", cfg.name, err)
		}
		if feed.Buffered() != 0 {
			t.Fatalf("%s: %d events left buffered", cfg.name, feed.Buffered())
		}
		if got := feed.Stats().Sent; got != uint64(len(evs)) {
			t.Fatalf("%s: sent %d events, want %d", cfg.name, got, len(evs))
		}
	}

	bin, jsonl := snapshotSansName(t, ts.URL, "bin"), snapshotSansName(t, ts.URL, "jsonl")
	if bin != jsonl {
		t.Errorf("binary and JSONL feeds diverged:\n bin   %s\n jsonl %s", bin, jsonl)
	}
}

// TestFeedBackpressureResendsSuffix fills a tiny paused queue, exhausts the
// retry budget, resumes, and re-flushes until the buffer drains: every
// event must land exactly once.
func TestFeedBackpressureResendsSuffix(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{QueueDepth: 4, RetryAfter: time.Millisecond})
	if err := client.CreateInstance(nil, ts.URL, "bp", core.KindFourBit, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	if resp, err := http.Post(ts.URL+"/v1/instances/bp/pause", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	evs := testEvents(10)
	feed := client.New(ts.URL, "bp", client.Options{
		BatchEvents: 64, Retries: 2, RetryCap: time.Millisecond,
	})
	for i := range evs {
		if err := feed.Send(&evs[i]); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	err := feed.Flush()
	if !errors.Is(err, client.ErrRetryBudget) {
		t.Fatalf("flush against a paused full queue: err = %v, want ErrRetryBudget", err)
	}
	if feed.Buffered() != len(evs)-4 {
		t.Fatalf("buffered %d events, want %d", feed.Buffered(), len(evs)-4)
	}

	if resp, err := http.Post(ts.URL+"/v1/instances/bp/resume", "", nil); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	// The resumed worker drains the queue concurrently, so one Flush can
	// still exhaust its small retry budget. Flush again until the buffer is
	// empty: each call resends only the suffix the server has not
	// accepted, so a retry can never apply an event twice.
	deadline, ok := t.Deadline()
	if !ok {
		deadline = time.Now().Add(time.Minute)
	}
	for {
		err := feed.Flush()
		if err == nil {
			break
		}
		if !errors.Is(err, client.ErrRetryBudget) || time.Now().After(deadline) {
			t.Fatalf("flush after resume: %v", err)
		}
	}
	if feed.Buffered() != 0 {
		t.Fatalf("%d events left buffered after flush", feed.Buffered())
	}

	// The barrier-synced stats must show every event applied exactly once.
	resp, err := http.Get(ts.URL + "/v1/instances/bp/table")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var table struct {
		Applied uint64 `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&table); err != nil {
		t.Fatal(err)
	}
	if table.Applied != uint64(len(evs)) {
		t.Fatalf("applied %d events, want exactly %d", table.Applied, len(evs))
	}
}

// TestFeedRejectsPoisonWithoutPermit pins the chaos-only kind behind the
// client-side gate too.
func TestFeedRejectsPoisonWithoutPermit(t *testing.T) {
	feed := client.New("http://invalid", "x", client.Options{})
	err := feed.Send(&wire.Event{Ev: wire.EvPoison, At: 1})
	if !errors.Is(err, wire.ErrRecord) {
		t.Fatalf("err = %v, want ErrRecord", err)
	}
	if feed.Buffered() != 0 {
		t.Fatalf("refused event left %d events buffered", feed.Buffered())
	}
}

// TestFeedQuarantineSurfacesRejection drives a poison event through an
// AllowPoison server and checks the next flush reports ErrRejected.
func TestFeedQuarantineSurfacesRejection(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{AllowPoison: true})
	if err := client.CreateInstance(nil, ts.URL, "q", core.KindFourBit, 1, 1, nil); err != nil {
		t.Fatal(err)
	}
	feed := client.New(ts.URL, "q", client.Options{AllowPoison: true})
	if err := feed.Send(&wire.Event{Ev: wire.EvPoison, At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := feed.Flush(); err != nil {
		t.Fatal(err) // the poison batch itself is admitted, then kills the worker
	}
	// The table query's barrier returns once the instance is quarantined;
	// the next flush is then refused with 409 → ErrRejected.
	call(t, ts.Client(), http.MethodGet, ts.URL+"/v1/instances/q/table")
	if err := feed.Send(&wire.Event{Ev: wire.EvAge, At: 2, Silence: 1}); err != nil {
		t.Fatal(err)
	}
	if err := feed.Flush(); !errors.Is(err, client.ErrRejected) {
		t.Fatalf("flush into a quarantined instance: err = %v, want ErrRejected", err)
	}
}

// connCounter wraps a service in an httptest server that counts the
// connections it accepts.
func connCounter(t testing.TB, h http.Handler) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ts := httptest.NewUnstartedServer(h)
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	return ts, &conns
}

// oneConn returns an HTTP client held to one connection per host.
func oneConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// call issues a bodiless request and reads the response to its end.
func call(t *testing.T, c *http.Client, method, url string) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d", method, url, resp.StatusCode)
	}
}

// TestClientKeepsOneConnection pins connection reuse: one client held to
// one connection runs a whole session — creates, a refused create, full
// flushes, flushes absorbing backpressure and a flush refused by a
// quarantined instance — over exactly one server connection. A response
// body closed before its end would cost the next request a new dial.
func TestClientKeepsOneConnection(t *testing.T) {
	ts, conns := connCounter(t, serve.NewServer(serve.Options{
		QueueDepth: 64, RetryAfter: time.Millisecond, AllowPoison: true,
	}))
	c := oneConn()
	defer c.CloseIdleConnections()

	for i := 0; i < 20; i++ {
		if err := client.CreateInstance(c, ts.URL, fmt.Sprintf("n%d", i), core.KindFourBit,
			packet.Addr(i+1), uint64(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.CreateInstance(c, ts.URL, "n0", core.KindFourBit, 1, 0, nil); err == nil {
		t.Fatal("duplicate create succeeded")
	}

	// Full batches, each applied before the next so none meets backpressure.
	evs := testEvents(96)
	full := client.New(ts.URL, "n1", client.Options{BatchEvents: 32, HTTPClient: c})
	for i := range evs {
		if err := full.Send(&evs[i]); err != nil {
			t.Fatal(err)
		}
		if full.Buffered() == 0 {
			call(t, c, http.MethodGet, ts.URL+"/v1/instances/n1/table")
		}
	}
	if got := full.Stats().Flushes; got != 3 {
		t.Fatalf("%d flushes, want 3", got)
	}

	// A paused instance fills its queue: the flush absorbs 429 rounds until
	// its budget runs out, and flushes after the resume drain the rest.
	call(t, c, http.MethodPost, ts.URL+"/v1/instances/n2/pause")
	bp := client.New(ts.URL, "n2", client.Options{
		BatchEvents: 128, Retries: 3, RetryCap: time.Millisecond, HTTPClient: c,
	})
	for i := range evs {
		if err := bp.Send(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := bp.Flush(); !errors.Is(err, client.ErrRetryBudget) {
		t.Fatalf("flush against a paused full queue: err = %v, want ErrRetryBudget", err)
	}
	if got := bp.Stats().Retries; got != 2 {
		t.Fatalf("%d backpressure rounds absorbed, want 2", got)
	}
	call(t, c, http.MethodPost, ts.URL+"/v1/instances/n2/resume")
	for bp.Buffered() > 0 {
		if err := bp.Flush(); err != nil && !errors.Is(err, client.ErrRetryBudget) {
			t.Fatal(err)
		}
	}

	// Poison quarantines the instance (the table query waits for it); the
	// next flush is refused with 409.
	q := client.New(ts.URL, "n3", client.Options{AllowPoison: true, HTTPClient: c})
	if err := q.Send(&wire.Event{Ev: wire.EvPoison, At: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); err != nil {
		t.Fatal(err)
	}
	call(t, c, http.MethodGet, ts.URL+"/v1/instances/n3/table")
	if err := q.Send(&wire.Event{Ev: wire.EvAge, At: 2, Silence: 1}); err != nil {
		t.Fatal(err)
	}
	if err := q.Flush(); !errors.Is(err, client.ErrRejected) {
		t.Fatalf("flush into a quarantined instance: err = %v, want ErrRejected", err)
	}

	if got := conns.Load(); got != 1 {
		t.Fatalf("the session opened %d connections, want 1", got)
	}
}

// TestRefusalsKeepConnection answers every request with a proxy's 8 KiB
// HTML 502, longer than the client reads to decode or report it: creates
// and flushes must still fail cleanly and share one connection.
func TestRefusalsKeepConnection(t *testing.T) {
	page := "<html>" + strings.Repeat("bad gateway ", 700) + "</html>"
	ts, conns := connCounter(t, http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		w.WriteHeader(http.StatusBadGateway)
		io.WriteString(w, page)
	}))
	c := oneConn()
	defer c.CloseIdleConnections()
	feed := client.New(ts.URL, "n", client.Options{HTTPClient: c})
	evs := testEvents(3)
	for i := 0; i < 3; i++ {
		if err := client.CreateInstance(c, ts.URL, "n", "", 1, 1, nil); err == nil {
			t.Fatal("create through a 502 succeeded")
		}
		if err := feed.Send(&evs[i]); err != nil {
			t.Fatal(err)
		}
		if err := feed.Flush(); err == nil {
			t.Fatal("flush through a 502 succeeded")
		}
	}
	if got := conns.Load(); got != 1 {
		t.Fatalf("refused requests opened %d connections, want 1", got)
	}
}

// TestCreateInstanceChecksEcho refuses a 201 whose body does not echo the
// request, or is not JSON at all.
func TestCreateInstanceChecksEcho(t *testing.T) {
	for _, tc := range []struct{ name, body string }{
		{"name", `{"name":"other","kind":"4bit","self":7}`},
		{"kind", `{"name":"n","kind":"pdr","self":7}`},
		{"self", `{"name":"n","kind":"4bit","self":8}`},
		{"empty", `{}`},
		{"html", `<html>created</html>`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				w.WriteHeader(http.StatusCreated)
				io.WriteString(w, tc.body)
			}))
			defer ts.Close()
			if err := client.CreateInstance(nil, ts.URL, "n", "", 7, 1, nil); err == nil {
				t.Fatalf("create accepted the 201 body %s", tc.body)
			}
		})
	}
	// The echo of an honest server passes, the default kind included.
	_, ts := newTestServer(t, serve.Options{})
	if err := client.CreateInstance(nil, ts.URL, "n", "", 7, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := client.CreateInstance(nil, ts.URL, "w", core.KindWMEWMA, 7, 1, nil); err != nil {
		t.Fatal(err)
	}
}
