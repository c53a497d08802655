package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/packet"
	"fourbit/internal/scenario"
	"fourbit/internal/serve"
	"fourbit/internal/serve/client"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

const (
	// liveEventsPerSec is serve-live's fixed open-loop ingest rate, about
	// 350 Mirage networks' worth of live estimator traffic.
	liveEventsPerSec = 100_000
	// liveQueriesPerSec is serve-live's fixed open-loop query rate.
	liveQueriesPerSec = 500
	// liveTableShare is the share of serve-live queries that read a whole
	// table; the rest read one link's quality.
	liveTableShare = 0.1
	// nominalEventsPerSimSec converts served events into simulated seconds
	// of a Mirage network's estimator traffic: 432,158 events over the 1500
	// simulated seconds of the seed-1 recording. A fixed rate keeps the
	// conversion independent of how busy one seed's network happened to be.
	nominalEventsPerSimSec = 432158.0 / 1500
	// bulkMinPasses is the least number of closed-loop replays serve-bulk
	// makes, whatever its seconds.
	bulkMinPasses = 2
)

// recording is the estimator feed of one simulated Mirage 4B run: the
// input of both serve workloads, generated from the seed before timing.
type recording struct {
	nodes [][]wire.Event // per node address, in the node's own order
	order [][2]int       // (node, index) in global timestamp order
	span  sim.Time       // simulated length of the recording
	cfg   core.Config    // the run's estimator configuration
	seeds []uint64       // per-node seed of the served instances
}

// record runs the Mirage 4B scenario with every estimator wrapped in a
// serve.FeedRecorder writing to memory, then decodes the feeds.
func record(seed uint64) (*recording, error) {
	spec := scenario.Spec{Protocol: "4B", Topology: scenario.TopoSpec{Kind: "mirage"}, Seed: seed}
	rc, err := spec.RunConfig()
	if err != nil {
		return nil, err
	}
	cfg, err := experiment.EstimatorConfig(rc.Protocol)
	if err != nil {
		return nil, err
	}
	n := rc.Topo.N()
	bufs := make([]bytes.Buffer, n)
	recs := make([]*serve.FeedRecorder, n)
	rc.WrapEstimator = func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator {
		recs[addr] = serve.NewFeedRecorder(est, &bufs[addr])
		return recs[addr]
	}
	experiment.Run(rc)
	rec := &recording{nodes: make([][]wire.Event, n), span: rc.Duration, cfg: cfg, seeds: make([]uint64, n)}
	ss := sim.NewSeedSpace(seed)
	var dec wire.EventDecoder
	for addr := range bufs {
		if recs[addr] == nil {
			return nil, fmt.Errorf("node %d has no estimator feed", addr)
		}
		if err := recs[addr].Err(); err != nil {
			return nil, fmt.Errorf("node %d feed: %w", addr, err)
		}
		rec.seeds[addr] = ss.Stream(fmt.Sprintf("perfbench/instance/%d", addr)).Uint64()
		// Footers share one backing array per node, so the recording is a
		// few large objects the load generator's collector scans quickly.
		var links []packet.LinkEntry
		var ends []int
		sc := bufio.NewScanner(&bufs[addr])
		sc.Buffer(make([]byte, 0, 64*1024), wire.DefaultMaxBatchBytes)
		for sc.Scan() {
			var ev wire.Event
			if err := dec.Decode(sc.Bytes(), &ev); err != nil {
				return nil, fmt.Errorf("node %d feed: %w", addr, err)
			}
			links = append(links, ev.Links...)
			ends = append(ends, len(links))
			ev.Links = nil
			rec.nodes[addr] = append(rec.nodes[addr], ev)
			rec.order = append(rec.order, [2]int{addr, len(rec.nodes[addr]) - 1})
		}
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("node %d feed: %w", addr, err)
		}
		links = links[:len(links):len(links)]
		start := 0
		for i, end := range ends {
			if end > start {
				rec.nodes[addr][i].Links = links[start:end:end]
			}
			start = end
		}
		bufs[addr] = bytes.Buffer{}
	}
	// Per-node times never decrease, so a stable sort on time then node
	// keeps each node's own order.
	sort.SliceStable(rec.order, func(i, j int) bool {
		a, b := rec.order[i], rec.order[j]
		ta, tb := rec.nodes[a[0]][a[1]].At, rec.nodes[b[0]][b[1]].At
		if ta != tb {
			return ta < tb
		}
		return a[0] < b[0]
	})
	runtime.GC() // collect the recording's scratch before anything is timed
	return rec, nil
}

// event returns the i-th event of the endless global stream: the
// recording over and over, each lap shifted past the previous one in time
// so every node's stream stays in order.
func (r *recording) event(i int) (int, wire.Event) {
	lap, j := i/len(r.order), i%len(r.order)
	ref := r.order[j]
	ev := r.nodes[ref[0]][ref[1]]
	ev.At += sim.Time(lap) * (r.span + sim.Second)
	return ref[0], ev
}

func instanceName(addr int) string { return fmt.Sprintf("node-%d", addr) }

// tableRow is the part of a GET .../table row the reference must match.
type tableRow struct {
	Addr      packet.Addr `json:"addr"`
	ETXHex    string      `json:"etx_hex"`
	Pinned    bool        `json:"pinned"`
	HasETX    bool        `json:"has_etx"`
	LastHeard int64       `json:"last_heard"`
}

// reference is an estimator of the served instance's kind, self, seed and
// config, fed the same events directly through core's public API with the
// served instance's monotone ingest clock.
type reference struct {
	est    core.LinkEstimator
	lastAt sim.Time
	le     packet.LEFrame
	links  []packet.LinkEntry // footer scratch, reused like the instance's queue slot
}

func newReference(rec *recording, addr int) (*reference, error) {
	est, err := core.NewKind(core.KindFourBit, packet.Addr(addr), rec.cfg, nil, sim.NewCountedRand(rec.seeds[addr]))
	if err != nil {
		return nil, err
	}
	return &reference{est: est}, nil
}

func (r *reference) apply(ev *wire.Event) {
	at := ev.At
	if at < r.lastAt {
		at = r.lastAt
	} else {
		r.lastAt = at
	}
	meta := core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}
	switch ev.Ev {
	case wire.EvBeacon:
		r.links = append(r.links[:0], ev.Links...)
		r.le = packet.LEFrame{Seq: ev.Seq, Entries: r.links}
		r.est.OnBeacon(ev.Src, &r.le, meta, at)
	case wire.EvTx:
		r.est.TxResult(ev.Src, ev.Acked)
	case wire.EvRx:
		r.est.OnOverhear(ev.Src, meta, at)
	case wire.EvAge:
		r.est.Age(ev.Silence, at)
	}
}

func (r *reference) rows() []tableRow {
	var rows []tableRow
	for _, e := range r.est.Table().Entries() {
		row := tableRow{Addr: e.Addr, Pinned: e.Pinned, LastHeard: int64(e.LastHeard())}
		if etx, ok := r.est.Quality(e.Addr); ok {
			row.HasETX, row.ETXHex = true, strconv.FormatFloat(etx, 'x', -1, 64)
		}
		rows = append(rows, row)
	}
	return rows
}

// references feeds the first total events of the stream into one
// reference per node and returns each node's expected table.
func references(rec *recording, total int) ([][]tableRow, []uint64, error) {
	refs := make([]*reference, len(rec.nodes))
	for addr := range refs {
		var err error
		if refs[addr], err = newReference(rec, addr); err != nil {
			return nil, nil, err
		}
	}
	sent := make([]uint64, len(rec.nodes))
	for i := 0; i < total; i++ {
		addr, ev := rec.event(i)
		refs[addr].apply(&ev)
		sent[addr]++
	}
	want := make([][]tableRow, len(refs))
	for addr, r := range refs {
		want[addr] = r.rows()
	}
	return want, sent, nil
}

// server is a `fourbitsim serve` child process with the command's
// defaults, listening on a loopback port.
type server struct {
	cmd  *exec.Cmd
	url  string
	done chan error // the child's exit, once
}

// startServer starts the server and waits until it listens.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s serve: %w", bin, err)
	}
	s := &server{cmd: cmd, done: make(chan error, 1)}
	br := bufio.NewReader(out)
	line, err := br.ReadString('\n')
	go func() {
		_, _ = io.Copy(io.Discard, br) // keep the child's stdout drained until it exits
		s.done <- cmd.Wait()
	}()
	const prefix = "fourbitsim serve listening on "
	if err != nil || !strings.HasPrefix(line, prefix) {
		return nil, errors.Join(fmt.Errorf("%s serve did not report its address (%q): %v", bin, line, err), s.stop())
	}
	s.url = strings.TrimSpace(strings.TrimPrefix(line, prefix))
	return s, nil
}

// peakRSSMB reads the server's peak resident set.
func (s *server) peakRSSMB() (float64, error) {
	return readPeakRSSMB(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
}

// stop sends SIGTERM, the command's graceful drain, and waits for the
// child to exit; a child that outlives the grace period is killed.
func (s *server) stop() error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case err := <-s.done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reports the outcome
		return fmt.Errorf("server did not drain in time: %v", <-s.done)
	}
}

// newConn returns an HTTP client held to one loopback connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
}

// setUp starts a server and creates one instance per recorded node,
// recording a span per creation; it returns the server and the time the
// creations took.
func setUp(bin string, rec *recording, c *http.Client, tr *tracer) (*server, time.Duration, error) {
	s, err := startServer(bin)
	if err != nil {
		return nil, 0, err
	}
	req := tr.id()
	t0 := time.Now()
	for addr := range rec.nodes {
		t := time.Now()
		if err := client.CreateInstance(c, s.url, instanceName(addr), core.KindFourBit,
			packet.Addr(addr), rec.seeds[addr], &rec.cfg); err != nil {
			return nil, 0, errors.Join(err, s.stop())
		}
		tr.record("serve.create", req, req, t, time.Now())
	}
	d := time.Since(t0)
	tr.add(req, "setup", 0, req, t0, t0.Add(d))
	return s, d, nil
}

// getJSON issues a GET and decodes a 200 response into v.
func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	if v == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		return err
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// instanceStats is the part of GET .../stats the benchmark reads.
type instanceStats struct {
	Robust      serve.RobustStats `json:"robust"`
	Estimator   core.Stats        `json:"estimator"`
	Quarantined bool              `json:"quarantined"`
	Queued      int               `json:"queued"`
}

// verify checks every instance against its reference and the events sent
// to it, and returns the summed instance counters. Each table read is
// timed into tableMS when it is non-nil.
func verify(c *http.Client, url string, want [][]tableRow, sent []uint64, chk *checks, tableMS *[]float64) (serve.RobustStats, core.Stats) {
	var robust serve.RobustStats
	var est core.Stats
	for addr := range want {
		base := url + "/v1/instances/" + instanceName(addr)
		var table struct {
			Neighbors []tableRow `json:"neighbors"`
		}
		t := time.Now()
		err := getJSON(c, base+"/table", &table)
		if tableMS != nil {
			*tableMS = append(*tableMS, ms(time.Since(t)))
		}
		chk.op(err == nil, "table of %s: %v", instanceName(addr), err)
		if err == nil {
			chk.op(slices.Equal(table.Neighbors, want[addr]), "table of %s differs from the reference", instanceName(addr))
		}
		var st instanceStats
		err = getJSON(c, base+"/stats", &st)
		chk.op(err == nil, "stats of %s: %v", instanceName(addr), err)
		if err != nil {
			continue
		}
		r := st.Robust
		chk.op(r.Enqueued == sent[addr] && r.Applied == sent[addr],
			"%s: sent %d, enqueued %d, applied %d", instanceName(addr), sent[addr], r.Enqueued, r.Applied)
		chk.op(r.Malformed == 0 && r.Quarantined == 0 && !st.Quarantined && r.Panics == 0,
			"%s: malformed %d, quarantined %d", instanceName(addr), r.Malformed, r.Quarantined)
		robust.Enqueued += r.Enqueued
		robust.Applied += r.Applied
		robust.Backpressured += r.Backpressured
		robust.OutOfOrder += r.OutOfOrder
		est.Inserted += st.Estimator.Inserted
		est.Replaced += st.Estimator.Replaced
	}
	return robust, est
}

// feedSet is one client.Feed per instance with the benchmark's timings.
type feedSet struct {
	feeds  []*client.Feed
	latMS  []float64   // per flush, from when it was due
	callMS []float64   // per flush, the time inside the client call
	ends   []time.Time // per flush, when it returned
	rounds []uint64    // backpressure rounds absorbed by each flush
	encode time.Duration
}

func newFeedSet(url string, n int, c *http.Client) *feedSet {
	fs := &feedSet{feeds: make([]*client.Feed, n)}
	for addr := range fs.feeds {
		fs.feeds[addr] = client.New(url, instanceName(addr), client.Options{HTTPClient: c})
	}
	return fs
}

// willFlush reports whether the next send to addr fills its batch.
func (fs *feedSet) willFlush(addr int) bool {
	return fs.feeds[addr].Buffered() == wire.DefaultBatchEvents-1
}

// send buffers one event. When the send fills the batch, it flushes: the
// flush is timed from due and recorded as a client.flush span. Traced
// passes also time the sends that only encode.
func (fs *feedSet) send(addr int, ev *wire.Event, due time.Time, tr *tracer, chk *checks) {
	f := fs.feeds[addr]
	if !fs.willFlush(addr) {
		var t0 time.Time
		if tr != nil {
			t0 = time.Now()
		}
		err := f.Send(ev)
		if tr != nil {
			fs.encode += time.Since(t0)
		}
		if err != nil {
			chk.op(false, "encode to %s: %v", instanceName(addr), err)
		}
		return
	}
	before := f.Stats().Retries
	t0 := time.Now()
	fs.finished(addr, due, t0, before, f.Send(ev), tr, chk)
}

// flush pushes a feed's partial batch, timed from due.
func (fs *feedSet) flush(addr int, due time.Time, tr *tracer, chk *checks) {
	f := fs.feeds[addr]
	if f.Buffered() == 0 {
		return
	}
	before := f.Stats().Retries
	t0 := time.Now()
	fs.finished(addr, due, t0, before, f.Flush(), tr, chk)
}

func (fs *feedSet) finished(addr int, due, t0 time.Time, before uint64, err error, tr *tracer, chk *checks) {
	end := time.Now()
	fs.latMS = append(fs.latMS, ms(end.Sub(due)))
	fs.callMS = append(fs.callMS, ms(end.Sub(t0)))
	fs.ends = append(fs.ends, end)
	fs.rounds = append(fs.rounds, fs.feeds[addr].Stats().Retries-before)
	tr.record("client.flush", 0, tr.id(), t0, end)
	chk.op(err == nil, "flush to %s: %v", instanceName(addr), err)
}

// clientLayer stores the client-layer metrics of a pass's feed sets. The
// client does not expose its backpressure sleeps; they are estimated as
// each backpressured flush's time beyond (rounds+1) typical unobstructed
// flushes.
func clientLayer(p *pass, sets []*feedSet) {
	var st client.Stats
	var callMS, clean []float64
	var rounds []uint64
	var encode time.Duration
	for _, fs := range sets {
		for _, f := range fs.feeds {
			s := f.Stats()
			st.Sent += s.Sent
			st.Flushes += s.Flushes
			st.Retries += s.Retries
		}
		callMS = append(callMS, fs.callMS...)
		rounds = append(rounds, fs.rounds...)
		encode += fs.encode
	}
	for i, r := range rounds {
		if r == 0 {
			clean = append(clean, callMS[i])
		}
	}
	typical := median(clean)
	var sleepMS float64
	for i, r := range rounds {
		if r > 0 {
			sleepMS += max(0, callMS[i]-float64(r+1)*typical)
		}
	}
	p.setLayer("client.flushes", float64(st.Flushes))
	if st.Flushes > 0 {
		p.setLayer("client.events_per_flush", float64(st.Sent)/float64(st.Flushes))
	}
	p.setLayer("client.flush_s", sum(callMS)/1000)
	p.setLayer("client.backpressure_rounds", float64(st.Retries))
	p.setLayer("client.backpressure_sleep_s", sleepMS/1000)
	p.setLayer("wire.encode_s", encode.Seconds())
}

// wireLayer measures the wire format on the frames the feeds sent: each
// node's events in batches of the client's default size, encoded as the
// client frames them and decoded by wire.FrameReader.
func wireLayer(p *pass, rec *recording, total int) error {
	perNode := make([][]wire.Event, len(rec.nodes))
	for i := 0; i < total; i++ {
		addr, ev := rec.event(i)
		perNode[addr] = append(perNode[addr], ev)
	}
	var frames []byte
	for _, evs := range perNode {
		for len(evs) > 0 {
			n := min(len(evs), wire.DefaultBatchEvents)
			var err error
			if frames, err = wire.AppendBatch(frames, evs[:n]); err != nil {
				return err
			}
			evs = evs[n:]
		}
	}
	fr := wire.NewFrameReader(bytes.NewReader(frames), 0, false)
	decoded := 0
	t0 := time.Now()
	for {
		batch, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("decoding sent frames: %w", err)
		}
		decoded += len(batch)
	}
	d := time.Since(t0)
	if decoded != total {
		return fmt.Errorf("decoded %d of %d sent events", decoded, total)
	}
	p.setLayer("wire.bytes_per_event", float64(len(frames))/float64(total))
	p.setLayer("wire.decode_eps", float64(total)/d.Seconds())
	return nil
}

// serveCounts reports the summed instance counters; those that depend
// only on the events sent also enter the drift check.
func serveCounts(p *pass, robust serve.RobustStats, est core.Stats) {
	p.count("serve.enqueued", robust.Enqueued)
	p.count("serve.applied", robust.Applied)
	p.count("serve.out_of_order", robust.OutOfOrder)
	p.setLayer("serve.backpressured", float64(robust.Backpressured))
	p.count("core.calls", robust.Applied)
	p.count("core.table_inserts", est.Inserted)
	p.count("core.table_evictions", est.Replaced)
}

// queueSampler polls GET .../stats of the instance most recently written
// to and keeps the largest queue seen (traced passes only).
type queueSampler struct {
	last atomic.Int64
	max  int
}

func (q *queueSampler) sample(c *http.Client, url string) {
	var st instanceStats
	if getJSON(c, url+"/v1/instances/"+instanceName(int(q.last.Load()))+"/stats", &st) == nil {
		q.max = max(q.max, st.Queued)
	}
}

// setUps runs the timed set-up extraSetups+1 times and keeps the last
// server. It returns the set-up times and the instance-creation times.
func setUps(bin string, rec *recording, c *http.Client, tr *tracer) (*server, []float64, []float64, error) {
	var setups, creates []float64
	for i := 0; ; i++ {
		t0 := time.Now()
		s, create, err := setUp(bin, rec, c, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		creates = append(creates, create.Seconds())
		if i == extraSetups {
			return s, setups, creates, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, nil, err
		}
	}
}

// pace blocks until t. It sleeps in the kernel: the runtime's timers wake
// about a millisecond late, too coarse for a schedule of one event every
// 10 µs.
func pace(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is retried by the loop
	}
}

// spinWindow is how long before a timed request paceExact stops sleeping:
// nanosleep overshoots by 60–100 µs on a loaded two-CPU Linux VM, which
// would otherwise read as request latency.
const spinWindow = 150 * time.Microsecond

// paceExact blocks until t, sleeping until spinWindow before it and
// spinning the rest, so a request timed from t starts at t.
func paceExact(t time.Time) {
	pace(t.Add(-spinWindow))
	for time.Now().Before(t) {
	}
}

// runServeLive replays the recorded feeds in global timestamp order at a
// fixed rate, open loop, on one connection, while another connection
// issues queries at a fixed rate. Both are timed from when they were due.
func runServeLive(o options, tr *tracer) (*pass, error) {
	rec, err := record(o.seed)
	if err != nil {
		return nil, err
	}
	p := newPass()
	ingestC, queryC := newConn(), newConn()
	defer ingestC.CloseIdleConnections()
	defer queryC.CloseIdleConnections()
	srv, setups, creates, err := setUps(o.fourbitsim, rec, queryC, tr)
	if err != nil {
		return nil, err
	}
	total := int(o.seconds * liveEventsPerSec)
	fs := newFeedSet(srv.url, len(rec.nodes), ingestC)
	traced := tr != nil
	var sampler queueSampler

	type query struct {
		fromDue, service float64
		end              time.Time
		table            bool
	}
	var queries []query
	var qchk checks
	stop := make(chan struct{})
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := sim.NewSeedSpace(o.seed).Stream("perfbench/queries")
		for q := 0; ; q++ {
			due := start.Add(time.Duration(q) * time.Second / liveQueriesPerSec)
			paceExact(due)
			select {
			case <-stop:
				return
			default:
			}
			if traced {
				sampler.sample(queryC, srv.url)
			}
			addr, target := rng.Intn(len(rec.nodes)), rng.Intn(len(rec.nodes))
			table := rng.Float64() < liveTableShare
			url := fmt.Sprintf("%s/v1/instances/%s/quality?addr=%d", srv.url, instanceName(addr), target)
			name := "serve.quality"
			if table {
				url, name = srv.url+"/v1/instances/"+instanceName(addr)+"/table", "serve.table"
			}
			t0 := time.Now()
			err := getJSON(queryC, url, nil)
			end := time.Now()
			tr.record(name, 0, tr.id(), t0, end)
			qchk.op(err == nil, "query %s: %v", url, err)
			queries = append(queries, query{ms(end.Sub(due)), ms(end.Sub(t0)), end, table})
		}
	}()

	var late []float64
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * time.Second / liveEventsPerSec)
		addr, ev := rec.event(i)
		// Only a send that fills a batch reaches the server, so only those
		// wait for their due time; the rest are buffered as they come.
		if fs.willFlush(addr) {
			paceExact(due)
			late = append(late, max(0, ms(time.Since(due))))
		}
		sampler.last.Store(int64(addr))
		fs.send(addr, &ev, due, tr, &p.checks)
	}
	// Stopping the stream leaves a partial batch in every feed. Those final
	// flushes are checked, but as an artifact of stopping they stay out of
	// the latency sample.
	steady := len(fs.latMS)
	for addr := range fs.feeds {
		fs.flush(addr, time.Now(), tr, &p.checks)
	}
	wall := time.Since(start).Seconds()
	close(stop)
	wg.Wait()
	p.checks.merge(qchk)

	want, sent, err := references(rec, total)
	if err != nil {
		return nil, errors.Join(err, srv.stop())
	}
	robust, est := verify(queryC, srv.url, want, sent, &p.checks, nil)
	rss, err := srv.peakRSSMB()
	if err := errors.Join(err, srv.stop()); err != nil {
		return nil, err
	}
	p.setE2E("peak_rss_mb", rss)

	var queryMS, qualityMS, tableMS []float64
	var queryEnds []time.Time
	for _, q := range queries {
		queryMS = append(queryMS, q.fromDue)
		queryEnds = append(queryEnds, q.end)
		if q.table {
			tableMS = append(tableMS, q.service)
		} else {
			qualityMS = append(qualityMS, q.service)
		}
	}
	p.setE2E("setup_s", median(setups))
	eps := float64(robust.Applied) / wall
	p.setE2E("simsec_per_s", eps/nominalEventsPerSimSec)
	p.setE2E("ingest_eps", eps)
	p.setE2E("ingest_p50_ms", windowMedian(start, fs.ends[:steady], fs.callMS[:steady]))
	p.setE2E("query_p50_ms", windowMedian(start, queryEnds, queryMS))
	p.setLayer("client.flush_due_p50_ms", median(fs.latMS[:steady]))
	p.setLayer("client.flush_p99_ms", quantile(fs.latMS[:steady], 0.99))
	p.setLayer("serve.query_p99_ms", quantile(queryMS, 0.99))
	p.overheadBasis = median(fs.callMS[:steady])

	clientLayer(p, []*feedSet{fs})
	serveCounts(p, robust, est)
	p.setLayer("serve.create_s", median(creates))
	p.setLayer("serve.queued_max", float64(sampler.max))
	p.setLayer("serve.quality_p50_ms", median(qualityMS))
	p.setLayer("serve.table_p50_ms", median(tableMS))
	p.setLayer("gen.late_p99_ms", quantile(late, 0.99))
	if traced {
		if err := wireLayer(p, rec, total); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// runServeBulk pushes the whole recording closed loop, one node after
// another on one connection, as `fourbitsim feedconv -replay` does, into
// a freshly set-up server per pass, for the pass's seconds.
func runServeBulk(o options, tr *tracer) (*pass, error) {
	rec, err := record(o.seed)
	if err != nil {
		return nil, err
	}
	p := newPass()
	ingestC, queryC := newConn(), newConn()
	defer ingestC.CloseIdleConnections()
	defer queryC.CloseIdleConnections()
	total := len(rec.order)
	want, sent, err := references(rec, total)
	if err != nil {
		return nil, err
	}
	traced := tr != nil

	var setups, creates, tableMS []float64
	var replayWall float64
	var passes int
	var sets []*feedSet
	var robust serve.RobustStats
	var est core.Stats
	var sampler queueSampler
	var peakRSS float64
	begin := time.Now()
	for passes < bulkMinPasses || time.Since(begin).Seconds() < o.seconds {
		t0 := time.Now()
		srv, create, err := setUp(o.fourbitsim, rec, queryC, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		creates = append(creates, create.Seconds())
		stopSampling := make(chan struct{})
		var wg sync.WaitGroup
		if traced {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tick := time.NewTicker(5 * time.Millisecond)
				defer tick.Stop()
				for {
					select {
					case <-stopSampling:
						return
					case <-tick.C:
						sampler.sample(queryC, srv.url)
					}
				}
			}()
		}
		fs := newFeedSet(srv.url, len(rec.nodes), ingestC)
		start := time.Now()
		for addr, evs := range rec.nodes {
			sampler.last.Store(int64(addr))
			for i := range evs {
				fs.send(addr, &evs[i], time.Now(), tr, &p.checks)
			}
			fs.flush(addr, time.Now(), tr, &p.checks)
		}
		// The last instance's barrier: its queue has drained, so every
		// event sent is applied.
		err = getJSON(ingestC, fmt.Sprintf("%s/v1/instances/%s/quality?addr=0", srv.url, instanceName(len(rec.nodes)-1)), nil)
		p.checks.op(err == nil, "barrier read: %v", err)
		replayWall += time.Since(start).Seconds()
		close(stopSampling)
		wg.Wait()
		passes++

		r, e := verify(queryC, srv.url, want, sent, &p.checks, &tableMS)
		rss, err := srv.peakRSSMB()
		if err := errors.Join(err, srv.stop()); err != nil {
			return nil, err
		}
		peakRSS = max(peakRSS, rss)
		sets = append(sets, fs)
		if len(sets) == 1 {
			robust, est = r, e
		} else if r.Enqueued != robust.Enqueued || r.Applied != robust.Applied || e != est {
			p.checks.fail("instance counters differ between passes")
		} else {
			robust.Backpressured += r.Backpressured
		}
	}
	for i := 0; i < extraSetups; i++ {
		t0 := time.Now()
		srv, create, err := setUp(o.fourbitsim, rec, queryC, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		creates = append(creates, create.Seconds())
		if err := srv.stop(); err != nil {
			return nil, err
		}
	}

	var flushMS []float64
	for _, fs := range sets {
		flushMS = append(flushMS, fs.latMS...)
	}
	eps := float64(passes*total) / replayWall
	p.setE2E("setup_s", median(setups))
	p.setE2E("simsec_per_s", eps/nominalEventsPerSimSec)
	p.setE2E("ingest_eps", eps)
	p.setE2E("ingest_p50_ms", median(flushMS))
	p.setE2E("query_p50_ms", median(tableMS))
	p.setLayer("client.flush_due_p50_ms", median(flushMS))
	p.setLayer("client.flush_p99_ms", quantile(flushMS, 0.99))
	p.setLayer("serve.query_p99_ms", quantile(tableMS, 0.99))
	p.overheadBasis = 1 / eps

	clientLayer(p, sets)
	serveCounts(p, robust, est)
	p.setLayer("serve.create_s", median(creates))
	p.setLayer("serve.queued_max", float64(sampler.max))
	p.setLayer("serve.table_p50_ms", median(tableMS))
	if traced {
		if err := wireLayer(p, rec, total); err != nil {
			return nil, err
		}
	}
	p.setE2E("peak_rss_mb", peakRSS)
	return p, nil
}
