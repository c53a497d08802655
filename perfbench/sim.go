package main

import (
	"fmt"
	"sync"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/scenario"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

const (
	// fig6Minutes is the paper's run length, as `fourbitsim fig6` runs it.
	fig6Minutes = 25
	// simWorkers is the worker-pool width of the sim-fig6 batch.
	simWorkers = 2
	// citySimSeconds shortens city-corridor-2k to a span a run can repeat.
	// The preset boots its 2000 nodes over the first 10 s, so the span lies
	// inside the boot window and its event volume varies with the
	// deployment.
	citySimSeconds = 8
	// cityShards is the forced region-shard count of sim-city2k.
	cityShards = 2
	// extraSetups are additional timed set-ups per pass, so setup_s is a
	// median over several samples even when few requests fit in a pass.
	extraSetups = 8
)

// layerSink is the benchmark's probe sink: MAC and CTP counts from the
// probe bus. One sink is attached per bus, so each is used by one goroutine.
type layerSink struct {
	probe.BaseSink
	txData, txBeacons, ackTimeouts, ccaFailures uint64
	beacons, parentChanges                      uint64
}

func (s *layerSink) OnTx(ev probe.TxEvent) {
	switch {
	case !ev.Sent:
		s.ccaFailures++
	case ev.Broadcast():
		s.txBeacons++
	default:
		s.txData++
		if !ev.Acked {
			s.ackTimeouts++
		}
	}
}

func (s *layerSink) OnBeacon(probe.BeaconEvent) { s.beacons++ }

func (s *layerSink) OnParentChange(probe.ParentChangeEvent) { s.parentChanges++ }

// timedEstimator is a pass-through estimator decorator that counts and
// times every call the node's router and MAC make into core. Each node has
// its own decorator, called only from that node's shard goroutine.
type timedEstimator struct {
	core.LinkEstimator
	calls uint64
	self  time.Duration
}

func (e *timedEstimator) done(t time.Time) {
	e.self += time.Since(t)
	e.calls++
}

func (e *timedEstimator) OnBeacon(src packet.Addr, le *packet.LEFrame, meta core.RxMeta, now sim.Time) ([]byte, bool) {
	defer e.done(time.Now())
	return e.LinkEstimator.OnBeacon(src, le, meta, now)
}

func (e *timedEstimator) TxResult(dest packet.Addr, acked bool) {
	defer e.done(time.Now())
	e.LinkEstimator.TxResult(dest, acked)
}

func (e *timedEstimator) OnOverhear(src packet.Addr, meta core.RxMeta, now sim.Time) {
	defer e.done(time.Now())
	e.LinkEstimator.OnOverhear(src, meta, now)
}

func (e *timedEstimator) Age(maxSilence, now sim.Time) {
	defer e.done(time.Now())
	e.LinkEstimator.Age(maxSilence, now)
}

func (e *timedEstimator) MakeBeacon(netPayload []byte) *packet.LEFrame {
	defer e.done(time.Now())
	return e.LinkEstimator.MakeBeacon(netPayload)
}

func (e *timedEstimator) Quality(addr packet.Addr) (float64, bool) {
	defer e.done(time.Now())
	return e.LinkEstimator.Quality(addr)
}

func (e *timedEstimator) Neighbors() []packet.Addr {
	defer e.done(time.Now())
	return e.LinkEstimator.Neighbors()
}

// observedRun is one experiment.Run with the benchmark's timestamps and,
// in traced passes, its observers.
type observedRun struct {
	rc                experiment.RunConfig
	res               *experiment.Result
	start, envAt, end time.Time
	env               *node.Env
	sinks             []*layerSink
	ests              []*timedEstimator
	totals            simTotals
	print             string
}

// observe prepares rc for an observed run. The EnvMutate hook only stamps
// the time and keeps the environment, so untraced runs stay unobserved;
// traced runs also attach a probe sink to every shard bus and wrap every
// estimator in the timing decorator.
func observe(rc experiment.RunConfig, traced bool) *observedRun {
	r := &observedRun{}
	prev := rc.EnvMutate
	rc.EnvMutate = func(env *node.Env) {
		r.envAt = time.Now()
		r.env = env
		if traced {
			buses := env.Buses
			if !env.Sharded() {
				buses = []*probe.Bus{env.Probes}
			}
			for _, b := range buses {
				s := &layerSink{}
				b.Attach(s)
				r.sinks = append(r.sinks, s)
			}
		}
		if prev != nil {
			prev(env)
		}
	}
	if traced {
		var mu sync.Mutex
		rc.WrapEstimator = func(_ packet.Addr, est core.LinkEstimator) core.LinkEstimator {
			t := &timedEstimator{LinkEstimator: est}
			mu.Lock()
			r.ests = append(r.ests, t)
			mu.Unlock()
			return t
		}
	}
	r.rc = rc
	return r
}

// run executes the run, then takes its counts and fingerprint and lets
// the simulation state go, so finished runs hold no memory.
func (r *observedRun) run() {
	r.start = time.Now()
	r.res = experiment.Run(r.rc)
	r.end = time.Now()
	r.totals.add(r)
	r.print = experiment.Fingerprint(r.rc, r.res)
	r.env, r.rc.Env = nil, nil
}

// record adds the run's spans: the run, and inside it the environment
// build (Run entry to EnvMutate) and the event loop (EnvMutate to return).
func (r *observedRun) record(tr *tracer, parent, req int64) {
	id := tr.id()
	tr.record("node.env", id, req, r.start, r.envAt)
	tr.record("sim.loop", id, req, r.envAt, r.end)
	tr.add(id, "experiment.run", parent, req, r.start, r.end)
}

// simTotals accumulates the counts of a set of runs.
type simTotals struct {
	events, generated, delivered, dataTx, inserts, evictions uint64
	audible, transmissions, phyDelivered, collisions, ber    uint64
	txData, txBeacons, ackTimeouts, cca, beacons, parents    uint64
	coreCalls                                                uint64
	coreSelf                                                 time.Duration
	traced                                                   bool
}

func (t *simTotals) add(r *observedRun) {
	res := r.res
	t.events += res.Events
	t.generated += res.Generated
	t.delivered += res.Unique
	t.dataTx += res.DataTx
	t.inserts += res.EstInserted
	t.evictions += res.EstReplaced
	st := r.env.Medium.Stats
	t.audible += uint64(r.env.Chan.AudibleLinks())
	t.transmissions += st.Transmissions
	t.phyDelivered += st.Delivered
	t.collisions += st.DroppedCollision
	t.ber += st.DroppedBER
	for _, s := range r.sinks {
		t.txData += s.txData
		t.txBeacons += s.txBeacons
		t.ackTimeouts += s.ackTimeouts
		t.cca += s.ccaFailures
		t.beacons += s.beacons
		t.parents += s.parentChanges
	}
	for _, e := range r.ests {
		t.coreCalls += e.calls
		t.coreSelf += e.self
	}
}

// sum adds another set of totals.
func (t *simTotals) sum(o *simTotals) {
	t.events += o.events
	t.generated += o.generated
	t.delivered += o.delivered
	t.dataTx += o.dataTx
	t.inserts += o.inserts
	t.evictions += o.evictions
	t.audible += o.audible
	t.transmissions += o.transmissions
	t.phyDelivered += o.phyDelivered
	t.collisions += o.collisions
	t.ber += o.ber
	t.txData += o.txData
	t.txBeacons += o.txBeacons
	t.ackTimeouts += o.ackTimeouts
	t.cca += o.cca
	t.beacons += o.beacons
	t.parents += o.parents
	t.coreCalls += o.coreCalls
	t.coreSelf += o.coreSelf
}

// report stores the totals as per-layer counts (and drift-check keys).
func (t *simTotals) report(p *pass) {
	p.count("sim.events", t.events)
	p.count("phy.audible_links", t.audible)
	p.count("phy.transmissions", t.transmissions)
	p.count("phy.delivered", t.phyDelivered)
	p.count("phy.dropped_collision", t.collisions)
	p.count("phy.dropped_ber", t.ber)
	if rx := t.phyDelivered + t.collisions + t.ber; rx > 0 {
		p.setLayer("phy.rx_success_ratio", float64(t.phyDelivered)/float64(rx))
	}
	p.count("collect.generated", t.generated)
	p.count("collect.delivered", t.delivered)
	if t.generated > 0 {
		p.setLayer("collect.delivery_ratio", float64(t.delivered)/float64(t.generated))
	}
	if t.delivered > 0 {
		p.setLayer("collect.cost", float64(t.dataTx)/float64(t.delivered))
	}
	p.count("core.table_inserts", t.inserts)
	p.count("core.table_evictions", t.evictions)
	if t.traced {
		p.count("mac.tx_data", t.txData)
		p.count("mac.tx_beacons", t.txBeacons)
		p.count("mac.ack_timeouts", t.ackTimeouts)
		p.count("mac.cca_failures", t.cca)
		p.count("ctp.beacons", t.beacons)
		p.count("ctp.parent_changes", t.parents)
		p.count("core.calls", t.coreCalls)
		p.setLayer("core.self_s", t.coreSelf.Seconds())
	}
}

// sharePrecompute gives every run a channel precompute shared per
// (topology, phy params) cell, as experiment.RunAllWorkers does.
func sharePrecompute(rcs []experiment.RunConfig) {
	type cell struct {
		tp  *topo.Topology
		phy phy.Params
	}
	pres := make(map[cell]*phy.ChannelPre)
	for i := range rcs {
		env := experiment.EnvConfigFor(rcs[i].Topo, rcs[i].Seed, rcs[i].TxPowerDBm)
		if rcs[i].Env != nil {
			env = *rcs[i].Env
		}
		k := cell{rcs[i].Topo, env.Phy}
		if pres[k] == nil {
			pres[k] = phy.PrecomputeGeo(rcs[i].Topo, env.Phy)
		}
		env.ChanPre = pres[k]
		rcs[i].Env = &env
	}
}

// simSetup is one timed set-up: compile the specs (which builds the
// topologies) and precompute the channels.
type simSetup struct {
	rcs                   []experiment.RunConfig
	start, topoAt, preEnd time.Time
}

func (s *simSetup) topo() float64 { return s.topoAt.Sub(s.start).Seconds() }
func (s *simSetup) pre() float64  { return s.preEnd.Sub(s.topoAt).Seconds() }

func newSimSetup(specs []scenario.Spec, adjust func(*experiment.RunConfig)) (*simSetup, error) {
	s := &simSetup{start: time.Now()}
	rcs, err := scenario.BuildRuns(specs)
	if err != nil {
		return nil, err
	}
	for i := range rcs {
		adjust(&rcs[i])
	}
	s.topoAt = time.Now()
	sharePrecompute(rcs)
	s.preEnd = time.Now()
	s.rcs = rcs
	return s, nil
}

func (s *simSetup) record(tr *tracer, parent, req int64) {
	id := tr.id()
	tr.record("topo.build", id, req, s.start, s.topoAt)
	tr.record("phy.precompute", id, req, s.topoAt, s.preEnd)
	tr.add(id, "setup", parent, req, s.start, s.preEnd)
}

// simRequest is one request of a sim workload: a timed set-up, then its
// runs, handed to the worker pool in order.
type simRequest struct {
	setup  *simSetup
	runs   []*observedRun
	req    int64
	totals *simTotals
	prints []string
}

func newRequest(specs []scenario.Spec, adjust func(*experiment.RunConfig), tr *tracer) (*simRequest, error) {
	st, err := newSimSetup(specs, adjust)
	if err != nil {
		return nil, err
	}
	r := &simRequest{setup: st, req: tr.id(), totals: &simTotals{traced: tr != nil}}
	st.record(tr, r.req, r.req)
	for i := range st.rcs {
		r.runs = append(r.runs, observe(st.rcs[i], tr != nil))
	}
	st.rcs = nil // the runs hold their own configs
	return r, nil
}

// finish collects the request's counts and fingerprints once its runs
// are done, and records its spans.
func (r *simRequest) finish(tr *tracer) {
	end := r.setup.start
	for _, run := range r.runs {
		run.record(tr, r.req, r.req)
		r.totals.sum(&run.totals)
		r.prints = append(r.prints, run.print)
		if run.end.After(end) {
			end = run.end
		}
	}
	tr.add(r.req, "request", 0, r.req, r.setup.start, end)
}

// simWorkload describes a sim workload: its specs for a seed, the
// adjustment that sizes its runs, and its worker-pool width.
type simWorkload struct {
	specs   func(seed uint64) ([]scenario.Spec, error)
	adjust  func(*experiment.RunConfig)
	workers int
	// mustDeliver fails a run that delivers no packet; a shortened city
	// run may end before its first packet reaches the sink.
	mustDeliver bool
	// check, when set, adjusts an unmeasured request run after the
	// measured ones under the first request's seed. Without it, the second
	// measured request repeats the first request's seed instead.
	check func(*experiment.RunConfig)
}

const (
	// minRequests is the least number of measured requests per pass.
	minRequests = 2
	// subSeeds bounds how many distinct seeds a pass's requests cycle
	// through.
	subSeeds = 64
)

// runSim measures a sim workload. Requests under successive seeds derived
// from the pass's seed are set up and handed to one worker pool back to
// back until the pass's seconds are up, so the pool idles only in the
// final tail. The request that repeats the first request's seed must
// reproduce its fingerprints and counts exactly.
func runSim(o options, tr *tracer, w simWorkload) (*pass, *simRequest, *simRequest, error) {
	p := newPass()
	seeds := experiment.ReplicaSeeds(o.seed, subSeeds)
	seedOf := func(k int) uint64 {
		if k == 1 && w.check == nil {
			return seeds[0]
		}
		return seeds[k%subSeeds]
	}
	specs0, err := w.specs(seeds[0])
	if err != nil {
		return nil, nil, nil, err
	}
	var topoS, preS []float64
	for i := 0; i < extraSetups; i++ {
		st, err := newSimSetup(specs0, w.adjust)
		if err != nil {
			return nil, nil, nil, err
		}
		topoS, preS = append(topoS, st.topo()), append(preS, st.pre())
	}

	jobs := make(chan *observedRun)
	var wg sync.WaitGroup
	wg.Add(w.workers)
	for i := 0; i < w.workers; i++ {
		go func() {
			defer wg.Done()
			for r := range jobs {
				r.run()
			}
		}()
	}
	var reqs []*simRequest
	var feedErr error
	begin := time.Now()
	for k := 0; k < minRequests || time.Since(begin).Seconds() < o.seconds; k++ {
		specs, err := w.specs(seedOf(k))
		if err != nil {
			feedErr = err
			break
		}
		r, err := newRequest(specs, w.adjust, tr)
		if err != nil {
			feedErr = err
			break
		}
		reqs = append(reqs, r)
		for _, run := range r.runs {
			jobs <- run
		}
	}
	close(jobs)
	wg.Wait()
	if feedErr != nil {
		return nil, nil, nil, feedErr
	}

	var simSecs, events, busy, loopS float64
	var response, loops, slowest []float64
	var envS []float64
	first, last := reqs[0].runs[0].start, reqs[0].runs[0].end
	for _, r := range reqs {
		r.finish(tr)
		topoS, preS = append(topoS, r.setup.topo()), append(preS, r.setup.pre())
		var slow float64
		for _, run := range r.runs {
			if run.start.Before(first) {
				first = run.start
			}
			if run.end.After(last) {
				last = run.end
			}
			simSecs += run.rc.Duration.Seconds()
			events += float64(run.res.Events)
			envS = append(envS, run.envAt.Sub(run.start).Seconds())
			loop := run.end.Sub(run.envAt).Seconds()
			loops = append(loops, loop)
			loopS += loop
			d := run.end.Sub(run.start)
			busy += d.Seconds()
			slow = max(slow, d.Seconds())
			response = append(response, ms(d+r.setup.preEnd.Sub(r.setup.start)))
			p.checks.op(run.res.Generated > 0 && (run.res.Unique > 0 || !w.mustDeliver),
				"%v run under seed %d delivered nothing", run.rc.Protocol, run.rc.Seed)
		}
		slowest = append(slowest, slow)
	}
	wall := last.Sub(first).Seconds()

	again := reqs[1]
	if w.check != nil {
		if again, err = newRequest(specs0, w.check, tr); err != nil {
			return nil, nil, nil, err
		}
		for _, run := range again.runs {
			run.run()
		}
		again.finish(tr)
	}
	for i := range reqs[0].prints {
		p.checks.op(again.prints[i] == reqs[0].prints[i], "run %d fingerprint differs on repeating its seed", i)
	}
	a, b := newPass(), newPass()
	reqs[0].totals.report(a)
	again.totals.report(b)
	compareCounts(&p.checks, "first", a, "repeat", b)

	p.setE2E("setup_s", median(topoS)+median(preS)+median(envS))
	p.setE2E("simsec_per_s", simSecs/loopS)
	p.setE2E("ingest_eps", events/loopS)
	p.setE2E("ingest_p50_ms", 1000*median(loops))
	p.setE2E("query_p50_ms", median(response))
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, nil, err
	}
	p.setE2E("peak_rss_mb", rss)
	p.overheadBasis = loopS / simSecs

	p.setLayer("topo.build_s", median(topoS))
	p.setLayer("phy.precompute_s", median(preS))
	p.setLayer("node.env_s", median(envS))
	p.setLayer("sim.loop_s", median(loops))
	p.setLayer("sim.events_per_s", events/loopS)
	p.setLayer("experiment.run_s_max", median(slowest))
	p.setLayer("experiment.pool_busy_ratio", busy/(float64(w.workers)*wall))
	reqs[0].totals.report(p)
	p.prints = reqs[0].prints
	return p, reqs[0], again, nil
}

// runFig6 measures the Figure 6 batch, as `fourbitsim fig6` builds it, on
// a two-worker pool.
func runFig6(o options, tr *tracer) (*pass, error) {
	p, _, _, err := runSim(o, tr, simWorkload{
		specs:       func(seed uint64) ([]scenario.Spec, error) { return scenario.Fig6Specs(seed, fig6Minutes), nil },
		adjust:      func(*experiment.RunConfig) {},
		workers:     simWorkers,
		mustDeliver: true,
	})
	return p, err
}

// citySpecs is the city-corridor-2k preset under a seed.
func citySpecs(seed uint64) ([]scenario.Spec, error) {
	p, ok := scenario.Preset("city-corridor-2k")
	if !ok {
		return nil, fmt.Errorf("preset city-corridor-2k is missing")
	}
	p.Spec.Seed = seed
	return []scenario.Spec{p.Spec}, nil
}

// cityShardsTo returns the set-up adjustment that shortens the run and
// forces the shard count.
func cityShardsTo(shards int) func(*experiment.RunConfig) {
	return func(rc *experiment.RunConfig) {
		rc.Duration = sim.FromSeconds(citySimSeconds)
		rc.Shards = shards
	}
}

// runCity measures the shortened city-corridor-2k run on two shards, one
// run per request. The check repeats the first request on one shard: the
// fingerprint must not change, and the two loop times give
// sim.shard_speedup.
func runCity(o options, tr *tracer) (*pass, error) {
	p, first, serial, err := runSim(o, tr, simWorkload{
		specs:   citySpecs,
		adjust:  cityShardsTo(cityShards),
		check:   cityShardsTo(1),
		workers: 1,
	})
	if err != nil {
		return nil, err
	}
	loop := func(r *simRequest) float64 { return r.runs[0].end.Sub(r.runs[0].envAt).Seconds() }
	p.setLayer("sim.shard_speedup", loop(serial)/loop(first))
	return p, nil
}
