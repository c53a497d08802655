// Package serve hosts link estimators as a service: an HTTP server holding
// thousands of concurrent estimator instances (one neighbor table plus any
// registered core.LinkEstimator kind per instance), ingesting
// tx/rx/beacon/age event streams in either wire format — line-oriented
// JSONL or the batched binary encoding negotiated via Content-Type — and
// answering link-cost and neighbor-table queries. The robustness surface is
// the point: strict decoding with typed per-line (or per-frame) errors
// (malformed input is counted, never kills a stream), bounded per-instance
// ingest queues with explicit backpressure, per-request deadlines,
// idle-instance eviction, per-instance panic quarantine, graceful drain,
// and versioned snapshot/restore certified bit-identical by the chaostest
// harness.
package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
)

// Options configures a Server. The zero value serves with the defaults
// below; tests inject clocks and shrink queues to force edges.
type Options struct {
	// QueueDepth bounds each instance's ingest queue (default 1024).
	QueueDepth int
	// Policy selects what a full queue does (default Backpressure).
	Policy OverflowPolicy
	// RequestTimeout bounds every request, including the ingest read loop
	// and query barrier waits (default 10s).
	RequestTimeout time.Duration
	// RetryAfter is the hint returned with 429 responses (default 1s).
	RetryAfter time.Duration
	// MaxInstances bounds concurrent hosted estimators (default 4096).
	MaxInstances int
	// IdleEvict evicts instances untouched for this long; 0 disables.
	IdleEvict time.Duration
	// JanitorInterval is the idle-eviction sweep cadence (default
	// IdleEvict/4 when eviction is on).
	JanitorInterval time.Duration
	// MaxLineBytes bounds one ingest line (default 1 MiB). Longer lines
	// abort the stream with 400 — by construction they are not events.
	MaxLineBytes int
	// MaxBatchBytes bounds one binary frame body (default 1 MiB). An
	// overlong frame aborts the stream with 400, before its body is read.
	MaxBatchBytes int
	// AllowPoison admits the chaos-only poison event kind. Tests only.
	AllowPoison bool
	// Clock supplies wall time for idle accounting (default time.Now).
	Clock func() time.Time
}

func (o *Options) withDefaults() Options {
	opts := *o
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 1024
	}
	if opts.RequestTimeout <= 0 {
		opts.RequestTimeout = 10 * time.Second
	}
	if opts.RetryAfter <= 0 {
		opts.RetryAfter = time.Second
	}
	if opts.MaxInstances <= 0 {
		opts.MaxInstances = 4096
	}
	if opts.MaxLineBytes <= 0 {
		opts.MaxLineBytes = 1 << 20
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = wire.DefaultMaxBatchBytes
	}
	if opts.JanitorInterval <= 0 {
		opts.JanitorInterval = opts.IdleEvict / 4
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	return opts
}

// ServerStats are server-level lifecycle counters.
type ServerStats struct {
	Created  uint64 `json:"created"`
	Deleted  uint64 `json:"deleted"`
	Evicted  uint64 `json:"evicted"`  // removed by the idle janitor
	Restored uint64 `json:"restored"` // instances built from snapshots
}

// Server hosts estimator instances behind an http.Handler. Create with
// NewServer; it is safe for concurrent use.
type Server struct {
	opts Options

	mu        sync.Mutex
	instances map[string]*instance
	stats     ServerStats
	draining  bool

	janitorOnce sync.Once
	janitorStop chan struct{}
	janitorDone chan struct{}

	// frameReaders pools binary FrameReaders (each owns a read buffer, a
	// frame buffer, and decoder scratch) across ingest requests, so a busy
	// binary ingest path allocates nothing per request in steady state.
	frameReaders sync.Pool
}

// NewServer returns a server with the given options applied over defaults.
func NewServer(opts Options) *Server {
	s := &Server{
		opts:        opts.withDefaults(),
		instances:   make(map[string]*instance),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.frameReaders.New = func() any {
		return wire.NewFrameReader(nil, s.opts.MaxBatchBytes, s.opts.AllowPoison)
	}
	if s.opts.IdleEvict > 0 {
		go s.janitor()
	} else {
		close(s.janitorDone)
	}
	return s
}

// janitor sweeps for idle instances on its interval.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(s.opts.JanitorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			s.EvictIdle()
		}
	}
}

// EvictIdle closes and removes every instance idle longer than IdleEvict,
// returning how many were evicted. Exposed for clock-injected tests; the
// background janitor calls it on its interval.
func (s *Server) EvictIdle() int {
	if s.opts.IdleEvict <= 0 {
		return 0
	}
	cutoff := s.opts.Clock().Unix() - int64(s.opts.IdleEvict/time.Second)
	var victims []*instance
	s.mu.Lock()
	for name, in := range s.instances {
		in.mu.Lock()
		idle := in.lastTouch <= cutoff
		in.mu.Unlock()
		if idle {
			victims = append(victims, in)
			delete(s.instances, name)
			s.stats.Evicted++
		}
	}
	s.mu.Unlock()
	for _, in := range victims {
		<-in.close()
	}
	return len(victims)
}

// StopIngest marks the server draining: ingest and instance creation are
// refused from now on, but workers keep running — the window in which a
// drain-to-disk shutdown snapshots consistent state. Drain implies it.
func (s *Server) StopIngest() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.janitorOnce.Do(func() { close(s.janitorStop) })
}

// Drain stops ingest, flushes every instance queue, and waits for the
// workers to exit — the SIGTERM path. Bounded by ctx. Idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.StopIngest()
	s.mu.Lock()
	ins := make([]*instance, 0, len(s.instances))
	for _, in := range s.instances {
		ins = append(ins, in)
	}
	s.mu.Unlock()
	select {
	case <-s.janitorDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	for _, in := range ins {
		// resume paused workers so close can flush them
		in.resume()
		select {
		case <-in.close():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

// SnapshotAll serializes every hosted instance (draining each queue first),
// for drain-to-disk shutdowns. Quarantined instances are included — their
// frozen state is the post-mortem.
func (s *Server) SnapshotAll(ctx context.Context) ([]*InstanceSnapshot, error) {
	s.mu.Lock()
	ins := make([]*instance, 0, len(s.instances))
	for _, in := range s.instances {
		ins = append(ins, in)
	}
	s.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].name < ins[j].name })
	snaps := make([]*InstanceSnapshot, 0, len(ins))
	for _, in := range ins {
		snap, err := in.snapshot(ctx)
		if err != nil {
			return snaps, fmt.Errorf("instance %q: %w", in.name, err)
		}
		snaps = append(snaps, snap)
	}
	return snaps, nil
}

// RestoreSnapshot installs an instance from a snapshot, replacing any
// existing instance with that name — the recovery path for both process
// restarts and quarantined instances.
func (s *Server) RestoreSnapshot(snap *InstanceSnapshot) error {
	if snap != nil && !validName(snap.Name) {
		return fmt.Errorf("%w: bad instance name %q", core.ErrSnapshotState, snap.Name)
	}
	in, err := restoreInstance(snap, s.opts.QueueDepth, s.opts.Policy)
	if err != nil {
		return err
	}
	in.lastTouch = s.opts.Clock().Unix()
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		in.close()
		return errors.New("serve: server is draining")
	}
	old := s.instances[snap.Name]
	if old == nil && len(s.instances) >= s.opts.MaxInstances {
		s.mu.Unlock()
		in.close()
		return fmt.Errorf("serve: instance limit (%d) reached", s.opts.MaxInstances)
	}
	s.instances[snap.Name] = in
	s.stats.Restored++
	s.mu.Unlock()
	if old != nil {
		old.close()
	}
	return nil
}

// lookup fetches an instance and touches its idle clock.
func (s *Server) lookup(name string) *instance {
	s.mu.Lock()
	in := s.instances[name]
	s.mu.Unlock()
	if in != nil {
		now := s.opts.Clock().Unix()
		in.mu.Lock()
		in.lastTouch = now
		in.mu.Unlock()
	}
	return in
}

// --- HTTP surface -----------------------------------------------------

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// validName accepts instance names that are safe path segments.
func validName(name string) bool {
	if name == "" || len(name) > 128 {
		return false
	}
	return !strings.ContainsAny(name, "/\\ \t\n\r?#%")
}

// ServeHTTP routes the API:
//
//	GET    /v1/healthz
//	GET    /v1/stats
//	POST   /v1/instances                    create
//	GET    /v1/instances                    list
//	DELETE /v1/instances/{name}             remove
//	POST   /v1/instances/{name}/events      JSONL ingest
//	GET    /v1/instances/{name}/table       neighbor table (barrier-synced)
//	GET    /v1/instances/{name}/quality?addr=N
//	GET    /v1/instances/{name}/stats
//	POST   /v1/instances/{name}/pause|resume
//	GET    /v1/instances/{name}/snapshot
//	POST   /v1/instances/{name}/restore
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.RequestTimeout)
	defer cancel()
	r = r.WithContext(ctx)

	path := strings.TrimSuffix(r.URL.Path, "/")
	switch path {
	case "/v1/healthz":
		s.handleHealth(w, r)
		return
	case "/v1/stats":
		s.handleServerStats(w, r)
		return
	case "/v1/instances":
		switch r.Method {
		case http.MethodPost:
			s.handleCreate(w, r)
		case http.MethodGet:
			s.handleList(w, r)
		default:
			writeErr(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		}
		return
	}

	rest, ok := strings.CutPrefix(path, "/v1/instances/")
	if !ok {
		writeErr(w, http.StatusNotFound, "no route %s", r.URL.Path)
		return
	}
	name, action, _ := strings.Cut(rest, "/")
	if !validName(name) {
		writeErr(w, http.StatusBadRequest, "bad instance name")
		return
	}

	// Restore may create the instance, so it resolves the name itself.
	if action == "restore" && r.Method == http.MethodPost {
		s.handleRestore(w, r, name)
		return
	}
	in := s.lookup(name)
	if in == nil {
		writeErr(w, http.StatusNotFound, "no instance %q", name)
		return
	}
	switch {
	case action == "" && r.Method == http.MethodDelete:
		s.handleDelete(w, name)
	case action == "events" && r.Method == http.MethodPost:
		s.handleEvents(w, r, in)
	case action == "table" && r.Method == http.MethodGet:
		s.handleTable(w, r, in)
	case action == "quality" && r.Method == http.MethodGet:
		s.handleQuality(w, r, in)
	case action == "stats" && r.Method == http.MethodGet:
		s.handleInstanceStats(w, in)
	case action == "pause" && r.Method == http.MethodPost:
		in.pause()
		writeJSON(w, http.StatusOK, map[string]any{"paused": true})
	case action == "resume" && r.Method == http.MethodPost:
		in.resume()
		writeJSON(w, http.StatusOK, map[string]any{"paused": false})
	case action == "snapshot" && r.Method == http.MethodGet:
		s.handleSnapshot(w, r, in)
	default:
		writeErr(w, http.StatusNotFound, "no route %s %s", r.Method, r.URL.Path)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	n, draining := len(s.instances), s.draining
	s.mu.Unlock()
	status := http.StatusOK
	if draining {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]any{"ok": !draining, "instances": n, "draining": draining})
}

func (s *Server) handleServerStats(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	st, n := s.stats, len(s.instances)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"instances": n, "lifecycle": st})
}

// createRequest is the instance-creation body. Config, when present, must
// be a complete core.Config; omitted, the paper's defaults apply. The body
// is decoded strictly (decodeStrict), so a misspelled key is an error
// rather than a silently default-config instance.
type createRequest struct {
	Name   string             `json:"name"`
	Kind   core.EstimatorKind `json:"kind"`
	Self   packet.Addr        `json:"self"`
	Seed   uint64             `json:"seed"`
	Config *core.Config       `json:"config"`
}

// decodeStrict decodes exactly one JSON value from r into v, refusing
// unknown fields and anything but whitespace after the value — the rule
// scenario specs are parsed by.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	end := dec.InputOffset()
	if _, err := dec.Token(); err != io.EOF {
		return fmt.Errorf("trailing data after the JSON value at offset %d", end)
	}
	return nil
}

// DecodeSnapshot reads one instance snapshot as written by the snapshot
// route or SnapshotAll. It decodes strictly (decodeStrict): a misspelled
// key or trailing data is an error, not a silently emptied table.
func DecodeSnapshot(r io.Reader) (*InstanceSnapshot, error) {
	var snap InstanceSnapshot
	if err := decodeStrict(r, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req createRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad create body: %v", err)
		return
	}
	if !validName(req.Name) {
		writeErr(w, http.StatusBadRequest, "bad instance name %q", req.Name)
		return
	}
	if _, err := core.ParseEstimatorKind(string(req.Kind)); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	cfg := core.DefaultConfig()
	if req.Config != nil {
		cfg = *req.Config
	}
	in, err := newInstance(req.Name, req.Kind, req.Self, cfg, req.Seed, s.opts.QueueDepth, s.opts.Policy)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	in.lastTouch = s.opts.Clock().Unix()
	s.mu.Lock()
	switch {
	case s.draining:
		s.mu.Unlock()
		in.close()
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	case s.instances[req.Name] != nil:
		s.mu.Unlock()
		in.close()
		writeErr(w, http.StatusConflict, "instance %q already exists", req.Name)
		return
	case len(s.instances) >= s.opts.MaxInstances:
		s.mu.Unlock()
		in.close()
		writeErr(w, http.StatusServiceUnavailable, "instance limit (%d) reached", s.opts.MaxInstances)
		return
	}
	s.instances[req.Name] = in
	s.stats.Created++
	s.mu.Unlock()
	writeJSON(w, http.StatusCreated, map[string]any{"name": req.Name, "kind": in.kind, "self": req.Self})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	type item struct {
		Name        string             `json:"name"`
		Kind        core.EstimatorKind `json:"kind"`
		Neighbors   int                `json:"neighbors"`
		Queue       int                `json:"queue"`
		Paused      bool               `json:"paused,omitempty"`
		Quarantined bool               `json:"quarantined,omitempty"`
	}
	s.mu.Lock()
	ins := make([]*instance, 0, len(s.instances))
	for _, in := range s.instances {
		ins = append(ins, in)
	}
	s.mu.Unlock()
	sort.Slice(ins, func(i, j int) bool { return ins[i].name < ins[j].name })
	items := make([]item, 0, len(ins))
	for _, in := range ins {
		in.mu.Lock()
		items = append(items, item{
			Name: in.name, Kind: in.kind, Neighbors: in.est.Table().Len(),
			Queue: in.count, Paused: in.paused, Quarantined: in.quarantined,
		})
		in.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, map[string]any{"instances": items})
}

func (s *Server) handleDelete(w http.ResponseWriter, name string) {
	s.mu.Lock()
	in := s.instances[name]
	if in != nil {
		delete(s.instances, name)
		s.stats.Deleted++
	}
	s.mu.Unlock()
	if in == nil {
		writeErr(w, http.StatusNotFound, "no instance %q", name)
		return
	}
	in.resume()
	<-in.close()
	writeJSON(w, http.StatusOK, map[string]any{"deleted": name})
}

// ingestReport is the ingest response body: what happened to every unit of
// the request, so clients need no second round trip to detect faults. For
// JSONL the unit is a line; for binary batches it is a frame.
type ingestReport struct {
	Accepted  uint64 `json:"accepted"`
	Malformed uint64 `json:"malformed"`
	Lines     uint64 `json:"lines"`
	// LastError carries the first decode error verbatim (with its line or
	// frame number) when Malformed > 0 — enough to debug without flooding.
	LastError string `json:"last_error,omitempty"`
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request, in *instance) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeErr(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if r.Header.Get("Content-Type") == wire.ContentType {
		s.handleEventsBinary(w, r, in)
		return
	}
	dec := wire.EventDecoder{AllowPoison: s.opts.AllowPoison}
	var ev wire.Event
	var rep ingestReport
	sc := bufio.NewScanner(r.Body)
	// Scanner's limit is max(cap(buf), max): the initial capacity must not
	// exceed MaxLineBytes or small line budgets would be silently ignored.
	initCap := 64 * 1024
	if s.opts.MaxLineBytes < initCap {
		initCap = s.opts.MaxLineBytes
	}
	sc.Buffer(make([]byte, 0, initCap), s.opts.MaxLineBytes)
	abort := r.Context().Done()
	for sc.Scan() {
		if aborted(abort) {
			writeJSON(w, http.StatusServiceUnavailable, rep)
			return
		}
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		rep.Lines++
		if err := dec.Decode(line, &ev); err != nil {
			rep.Malformed++
			in.mu.Lock()
			in.stats.Malformed++
			in.mu.Unlock()
			if rep.LastError == "" {
				rep.LastError = fmt.Sprintf("line %d: %v", rep.Lines, err)
			}
			continue
		}
		if err := in.enqueue(&ev); err != nil {
			s.writeEnqueueErr(w, &rep, err)
			return
		}
		rep.Accepted++
	}
	if err := sc.Err(); err != nil {
		// A torn body (client died mid-line, line over budget): report
		// what was ingested; everything accepted so far stays accepted.
		rep.LastError = fmt.Sprintf("stream: %v", err)
		writeJSON(w, http.StatusBadRequest, rep)
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// aborted polls a request's done channel between ingest lines and frames.
func aborted(abort <-chan struct{}) bool {
	select {
	case <-abort:
		return true
	default:
		return false
	}
}

// writeEnqueueErr maps an admission refusal onto its status — 429 with a
// Retry-After hint for backpressure, 409 for quarantine, 503 otherwise —
// carrying the report (everything accepted so far stays accepted) as body.
func (s *Server) writeEnqueueErr(w http.ResponseWriter, rep *ingestReport, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After",
			strconv.Itoa(int((s.opts.RetryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusTooManyRequests, rep)
	case errors.Is(err, ErrQuarantined):
		writeJSON(w, http.StatusConflict, rep)
	default:
		writeJSON(w, http.StatusServiceUnavailable, rep)
	}
}

// handleEventsBinary is the batched binary ingest path: pooled frame
// reader, one queue admission per batch. A malformed frame aborts the
// stream with 400 — binary framing cannot be resynced past a bad frame,
// unlike JSONL's per-line skipping — but frames already admitted stay
// admitted, and the report says how far the stream got.
func (s *Server) handleEventsBinary(w http.ResponseWriter, r *http.Request, in *instance) {
	fr := s.frameReaders.Get().(*wire.FrameReader)
	fr.Reset(r.Body)
	defer func() {
		fr.Reset(nil) // drop the request body reference before pooling
		s.frameReaders.Put(fr)
	}()
	var rep ingestReport
	abort := r.Context().Done()
	for {
		if aborted(abort) {
			writeJSON(w, http.StatusServiceUnavailable, rep)
			return
		}
		batch, err := fr.Next()
		if err == io.EOF {
			writeJSON(w, http.StatusOK, rep)
			return
		}
		if err != nil {
			rep.Malformed++
			in.mu.Lock()
			in.stats.Malformed++
			in.mu.Unlock()
			rep.LastError = fmt.Sprintf("frame %d: %v", rep.Lines+1, err)
			writeJSON(w, http.StatusBadRequest, rep)
			return
		}
		rep.Lines++
		accepted, err := in.enqueueBatch(batch)
		rep.Accepted += uint64(accepted)
		if err != nil {
			s.writeEnqueueErr(w, &rep, err)
			return
		}
	}
}

// etxHex formats a float64 exactly (hex float), for bit-identity checks.
func etxHex(v float64) string { return strconv.FormatFloat(v, 'x', -1, 64) }

// neighborView is one row of the table response.
type neighborView struct {
	Addr      packet.Addr `json:"addr"`
	ETX       float64     `json:"etx"`
	ETXHex    string      `json:"etx_hex"`
	Pinned    bool        `json:"pinned,omitempty"`
	HasETX    bool        `json:"has_etx"`
	LastHeard int64       `json:"last_heard"`
}

// syncBarrier waits for read-your-writes and writes the timeout error on
// failure; callers return immediately when it reports false.
func (s *Server) syncBarrier(w http.ResponseWriter, r *http.Request, in *instance) bool {
	if !in.barrier(r.Context()) {
		writeErr(w, http.StatusGatewayTimeout, "deadline waiting for ingest queue to drain")
		return false
	}
	return true
}

func (s *Server) handleTable(w http.ResponseWriter, r *http.Request, in *instance) {
	if !s.syncBarrier(w, r, in) {
		return
	}
	in.mu.Lock()
	rows := make([]neighborView, 0, in.est.Table().Len())
	for _, e := range in.est.Table().Entries() {
		etx, ok := in.est.Quality(e.Addr)
		row := neighborView{Addr: e.Addr, Pinned: e.Pinned, HasETX: ok, LastHeard: int64(e.LastHeard())}
		if ok {
			row.ETX, row.ETXHex = etx, etxHex(etx)
		}
		rows = append(rows, row)
	}
	applied, quarantined := in.stats.Applied, in.quarantined
	in.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"instance": in.name, "neighbors": rows, "applied": applied, "quarantined": quarantined,
	})
}

func (s *Server) handleQuality(w http.ResponseWriter, r *http.Request, in *instance) {
	addrStr := r.URL.Query().Get("addr")
	addr64, err := strconv.ParseUint(addrStr, 10, 16)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad addr %q", addrStr)
		return
	}
	if !s.syncBarrier(w, r, in) {
		return
	}
	in.mu.Lock()
	etx, ok := in.est.Quality(packet.Addr(addr64))
	in.mu.Unlock()
	resp := map[string]any{"addr": addr64, "known": ok}
	if ok {
		resp["etx"], resp["etx_hex"] = etx, etxHex(etx)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleInstanceStats(w http.ResponseWriter, in *instance) {
	in.mu.Lock()
	robust := in.stats
	est := in.est.Counters()
	quarantined, panicMsg, paused, queued := in.quarantined, in.panicMsg, in.paused, in.count
	in.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"instance": in.name, "kind": in.kind, "robust": robust, "estimator": est,
		"quarantined": quarantined, "panic": panicMsg, "paused": paused, "queued": queued,
	})
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, in *instance) {
	snap, err := in.snapshot(r.Context())
	if err != nil {
		writeErr(w, http.StatusGatewayTimeout, "snapshot: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request, name string) {
	snap, err := DecodeSnapshot(r.Body)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad snapshot body: %v", err)
		return
	}
	snap.Name = name // the URL names the target; the body's name is advisory
	if err := s.RestoreSnapshot(snap); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrSnapshotVersion) {
			status = http.StatusConflict
		}
		writeErr(w, status, "restore: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"restored": name, "kind": snap.Kind})
}
