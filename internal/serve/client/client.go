// Package client is the Go ingest client for the estimation service: a
// buffered, batching event feed speaking either wire format — the batched
// binary encoding by default, JSONL for interop — with backpressure-aware
// retry. Events accumulate in an in-memory batch (pre-encoded, so a Send
// costs an append, not a syscall) and flush as one POST per batch; a 429
// response consumes its Retry-After hint and resends exactly the suffix
// the server did not admit, so no event is ever duplicated or lost.
//
// Every response is read to its end before its body is closed — success,
// backpressure and refusal alike — so one http.Client keeps one keep-alive
// connection per server for a whole session: instance set-up, flushes and
// 429 retry rounds share it instead of dialling anew. CreateInstance also
// reads its 201 body and checks that the server echoes the requested name,
// kind and address.
package client

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
)

// Feed errors.
var (
	// ErrRejected: the server refused part of the stream for a
	// non-retryable reason (malformed input, quarantined instance).
	ErrRejected = errors.New("client: server rejected events")
	// ErrRetryBudget: backpressure persisted past the retry budget; the
	// unsent suffix is still buffered and a later Flush retries it.
	ErrRetryBudget = errors.New("client: retry budget exhausted")
)

// Options configures a Feed. The zero value batches
// wire.DefaultBatchEvents events per flush in binary format.
type Options struct {
	// BatchEvents flushes automatically once this many events are
	// buffered (default wire.DefaultBatchEvents).
	BatchEvents int
	// JSONL selects the line-oriented format instead of binary batches —
	// the interop escape hatch; same batching, same retry behavior.
	JSONL bool
	// HTTPClient overrides http.DefaultClient.
	HTTPClient *http.Client
	// Retries bounds how many backpressure rounds one flush absorbs
	// before returning ErrRetryBudget (default 8).
	Retries int
	// RetryCap bounds one backpressure sleep, whatever Retry-After says
	// (default 1s; tests shrink it).
	RetryCap time.Duration
	// AllowPoison permits encoding the chaos-only poison event.
	AllowPoison bool
}

// Stats counts what a feed has pushed through.
type Stats struct {
	Sent    uint64 // events accepted by the server
	Flushes uint64 // HTTP requests that carried events
	Retries uint64 // backpressure rounds absorbed
}

// Feed streams events to one instance's ingest route. Not safe for
// concurrent use; run one Feed per goroutine.
type Feed struct {
	url   string
	opts  Options
	stats Stats

	buf     []byte // pre-encoded records (binary) or lines (JSONL)
	offsets []int  // start offset of each buffered event in buf
	frame   []byte // scratch for the framed request body
}

// New builds a feed for the named instance on the server at baseURL
// (e.g. "http://127.0.0.1:8080").
func New(baseURL, instance string, opts Options) *Feed {
	if opts.BatchEvents <= 0 {
		opts.BatchEvents = wire.DefaultBatchEvents
	}
	if opts.HTTPClient == nil {
		opts.HTTPClient = http.DefaultClient
	}
	if opts.Retries <= 0 {
		opts.Retries = 8
	}
	if opts.RetryCap <= 0 {
		opts.RetryCap = time.Second
	}
	return &Feed{url: baseURL + "/v1/instances/" + instance + "/events", opts: opts}
}

// Stats returns the feed's counters.
func (f *Feed) Stats() Stats { return f.stats }

// Buffered returns how many events await the next flush.
func (f *Feed) Buffered() int { return len(f.offsets) }

// Send buffers one event, flushing if the batch is full. An encoding error
// (an event the wire format refuses) leaves the buffer unchanged.
func (f *Feed) Send(ev *wire.Event) error {
	if ev.Ev == wire.EvPoison && !f.opts.AllowPoison {
		return fmt.Errorf("%w: poison event without AllowPoison", wire.ErrRecord)
	}
	start := len(f.buf)
	if f.opts.JSONL {
		if _, err := wire.AppendEvent(f.frame[:0], ev); err != nil {
			return err // same validation as binary, so both formats refuse alike
		}
		f.buf = wire.AppendJSONLEvent(f.buf, ev)
		f.buf = append(f.buf, '\n')
	} else {
		var err error
		if f.buf, err = wire.AppendEvent(f.buf, ev); err != nil {
			f.buf = f.buf[:start]
			return err
		}
	}
	f.offsets = append(f.offsets, start)
	if len(f.offsets) >= f.opts.BatchEvents {
		return f.Flush()
	}
	return nil
}

// Flush pushes every buffered event, absorbing backpressure up to the
// retry budget. On success the buffer is empty; on ErrRetryBudget the
// unadmitted suffix stays buffered for the next Flush.
func (f *Feed) Flush() error {
	for round := 0; len(f.offsets) > 0; round++ {
		status, rep, err := f.post()
		if err != nil {
			return err
		}
		f.drop(int(rep.Accepted))
		f.stats.Sent += rep.Accepted
		f.stats.Flushes++
		switch status {
		case http.StatusOK:
			if len(f.offsets) > 0 {
				// 200 admits everything it read; anything left is a bug.
				return fmt.Errorf("%w: 200 with %d events unaccounted", ErrRejected, len(f.offsets))
			}
			return nil
		case http.StatusTooManyRequests:
			if round+1 >= f.opts.Retries {
				return fmt.Errorf("%w: %d events still buffered", ErrRetryBudget, len(f.offsets))
			}
			f.stats.Retries++
			time.Sleep(f.retryDelay(rep.retryAfter))
		default:
			return fmt.Errorf("%w: status %d: %s", ErrRejected, status, rep.LastError)
		}
	}
	return nil
}

// post sends the buffered suffix as one request.
func (f *Feed) post() (int, *ingestReport, error) {
	var body []byte
	contentType := "application/jsonl"
	if f.opts.JSONL {
		body = f.buf
	} else {
		f.frame = wire.AppendFrame(f.frame[:0], f.buf, len(f.offsets))
		body = f.frame
		contentType = wire.ContentType
	}
	req, err := http.NewRequest(http.MethodPost, f.url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := f.opts.HTTPClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer drainClose(resp.Body)
	rep := &ingestReport{}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(rep); err != nil {
		return 0, nil, fmt.Errorf("client: bad ingest response: %w", err)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			rep.retryAfter = time.Duration(secs) * time.Second
		}
	}
	return resp.StatusCode, rep, nil
}

// drop discards the first n buffered events — the ones the server admitted.
func (f *Feed) drop(n int) {
	if n <= 0 {
		return
	}
	if n >= len(f.offsets) {
		f.buf, f.offsets = f.buf[:0], f.offsets[:0]
		return
	}
	cut := f.offsets[n]
	f.buf = f.buf[:copy(f.buf, f.buf[cut:])]
	rest := f.offsets[n:]
	for i, off := range rest {
		rest[i] = off - cut
	}
	f.offsets = f.offsets[:copy(f.offsets, rest)]
}

// retryDelay clamps a Retry-After hint to the cap.
func (f *Feed) retryDelay(hint time.Duration) time.Duration {
	if hint <= 0 || hint > f.opts.RetryCap {
		return f.opts.RetryCap
	}
	return hint
}

// ingestReport mirrors the server's ingest response body.
type ingestReport struct {
	Accepted  uint64 `json:"accepted"`
	Malformed uint64 `json:"malformed"`
	Lines     uint64 `json:"lines"`
	LastError string `json:"last_error"`

	retryAfter time.Duration
}

// CreateInstance creates an estimator instance on the server, the usual
// prologue to a feed. A nil config selects the paper's defaults, and an
// empty kind the server's default, KindFourBit. The server's 201 body must
// echo the requested name, kind and address; anything else is an error.
func CreateInstance(c *http.Client, baseURL, name string, kind core.EstimatorKind,
	self packet.Addr, seed uint64, cfg *core.Config) error {
	if c == nil {
		c = http.DefaultClient
	}
	body, err := json.Marshal(map[string]any{
		"name": name, "kind": kind, "self": self, "seed": seed, "config": cfg,
	})
	if err != nil {
		return err
	}
	resp, err := c.Post(baseURL+"/v1/instances", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusCreated {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
		return fmt.Errorf("client: create instance %q: status %d: %s", name, resp.StatusCode, msg)
	}
	var got struct {
		Name string             `json:"name"`
		Kind core.EstimatorKind `json:"kind"`
		Self packet.Addr        `json:"self"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxBody)).Decode(&got); err != nil {
		return fmt.Errorf("client: create instance %q: bad response: %w", name, err)
	}
	if kind == "" {
		kind = core.KindFourBit
	}
	if got.Name != name || got.Kind != kind || got.Self != self {
		return fmt.Errorf("client: create instance %q: server created %q (kind %q, self %d), want kind %q, self %d",
			name, got.Name, got.Kind, got.Self, kind, self)
	}
	return nil
}

// maxBody bounds how much of one response the client reads.
const maxBody = 1 << 16

// drainClose reads a response body to its end, at most maxBody bytes, and
// closes it. net/http returns a connection to its idle pool only once the
// body has reached EOF; a body closed early costs the next request a new
// connection.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, maxBody))
	body.Close()
}
