// Command perfbench is the repository benchmark. One invocation runs one
// named workload from a seed, checks the program's outputs, and prints one
// JSON result line: the end-to-end metrics of an untraced run, or, with
// --trace 1, the per-layer metrics of a traced run (which also repeats the
// untraced run, to report the tracing overhead and to check that tracing
// changed no simulated outcome). README.md explains the workloads and
// metrics; run.sh builds and runs it from the repository root.
//
// The benchmark sits outside the program: it calls each module's public
// functions, reads the public Stats/Counters surfaces and HTTP stats
// routes, and attaches only pure observers (a probe sink and an
// estimator timing decorator), and those only in traced runs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// maxProcs caps the benchmark process, the simulator or the load
// generator, at the two threads the benchmark assumes.
const maxProcs = 2

// options are the command-line inputs of one run.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spanDir  string
	// fourbitsim is the built command the serve workloads start as their
	// server.
	fourbitsim string
}

// workload runs one measurement pass. Traced passes attach the pure
// observers and record spans into tr; untraced passes get a nil tracer.
// README.md gives the reason for each workload.
type workload struct {
	name string
	run  func(o options, tr *tracer) (*pass, error)
}

var workloads = []workload{
	{"sim-fig6", runFig6},
	{"sim-city2k", runCity},
	{"serve-live", runServeLive},
	{"serve-bulk", runServeBulk},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(maxProcs)
	res, err := execute(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured seconds per pass")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.StringVar(&o.spanDir, "spans", ".bench_build/spans", "directory the traced run writes its spans to")
	fs.StringVar(&o.fourbitsim, "fourbitsim", ".bench_build/fourbitsim", "the fourbitsim binary the serve workloads run as their server")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive")
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = trace == 1
	return o, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// pass is what one measurement pass of a workload produced.
type pass struct {
	e2e    map[string]metric
	layer  map[string]metric
	counts map[string]uint64 // simulated/served counts that must repeat exactly for a seed
	prints []string          // sim run fingerprints, in run order
	// overheadBasis is the end-to-end figure trace.overhead_ratio compares,
	// oriented so that larger means slower (a time, or 1/rate).
	overheadBasis float64
	checks        checks
}

func newPass() *pass {
	return &pass{e2e: map[string]metric{}, layer: map[string]metric{}, counts: map[string]uint64{}}
}

// checks counts attempted operations and failed correctness checks.
type checks struct {
	attempted, failed int
	problems          []string
}

// op records one attempted operation and whether it succeeded.
func (c *checks) op(ok bool, format string, args ...any) {
	c.attempted++
	if !ok {
		c.fail(format, args...)
	}
}

// fail records a failure without a new attempted operation (a check on an
// operation already counted).
func (c *checks) fail(format string, args ...any) {
	c.failed++
	if len(c.problems) < 20 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *checks) merge(o checks) {
	c.attempted += o.attempted
	c.failed += o.failed
	for _, p := range o.problems {
		if len(c.problems) < 20 {
			c.problems = append(c.problems, p)
		}
	}
}

// execute runs the workload: one untraced pass, and with --trace a traced
// pass after it whose counts and fingerprints must equal the untraced ones.
func execute(o options) (*result, error) {
	w, _ := findWorkload(o.workload)
	plain, err := w.run(o, nil)
	if err != nil {
		return nil, err
	}
	var all checks
	all.merge(plain.checks)
	metrics := plain.e2e
	if o.trace {
		tr := newTracer()
		traced, err := w.run(o, tr)
		if err != nil {
			return nil, err
		}
		all.merge(traced.checks)
		compareCounts(&all, "untraced", plain, "traced", traced)
		metrics = traced.layer
		for _, name := range untracedLayer {
			if m, ok := plain.layer[name]; ok {
				metrics[name] = m
			}
		}
		metrics["trace.overhead_ratio"] = metric{traced.overheadBasis / plain.overheadBasis, "ratio"}
		if err := tr.write(o.spanDir, fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed)); err != nil {
			return nil, err
		}
		tr.summarize(os.Stderr)
		for _, n := range layerNames {
			if _, ok := metrics[n.name]; !ok {
				metrics[n.name] = metric{0, n.unit} // a layer this workload does not exercise
			}
		}
	}
	for _, p := range all.problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	return &result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   metrics,
	}, nil
}

// compareCounts fails the run when two passes of one seed disagree on any
// count both recorded, or on any run fingerprint.
func compareCounts(c *checks, an string, a *pass, bn string, b *pass) {
	keys := make([]string, 0, len(a.counts))
	for k := range a.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if bv, ok := b.counts[k]; ok {
			c.op(a.counts[k] == bv, "count drift: %s = %d (%s) vs %d (%s)", k, a.counts[k], an, bv, bn)
		}
	}
	if len(a.prints) != len(b.prints) {
		c.op(false, "fingerprint count differs: %d (%s) vs %d (%s)", len(a.prints), an, len(b.prints), bn)
		return
	}
	for i := range a.prints {
		c.op(a.prints[i] == b.prints[i], "fingerprint of run %d differs between %s and %s passes", i, an, bn)
	}
}

// layerNames lists every per-layer metric with its unit. A traced run
// prints each of them; a layer the workload does not exercise reads 0.
var layerNames = []struct{ name, unit string }{
	{"topo.build_s", "s"}, {"phy.precompute_s", "s"}, {"node.env_s", "s"},
	{"phy.audible_links", "count"}, {"phy.transmissions", "count"}, {"phy.delivered", "count"},
	{"phy.dropped_collision", "count"}, {"phy.dropped_ber", "count"}, {"phy.rx_success_ratio", "ratio"},
	{"sim.events", "count"}, {"sim.loop_s", "s"}, {"sim.events_per_s", "1/s"}, {"sim.shard_speedup", "ratio"},
	{"experiment.run_s_max", "s"}, {"experiment.pool_busy_ratio", "ratio"},
	{"mac.tx_data", "count"}, {"mac.tx_beacons", "count"}, {"mac.ack_timeouts", "count"}, {"mac.cca_failures", "count"},
	{"ctp.beacons", "count"}, {"ctp.parent_changes", "count"},
	{"core.calls", "count"}, {"core.self_s", "s"}, {"core.table_inserts", "count"}, {"core.table_evictions", "count"},
	{"collect.generated", "count"}, {"collect.delivered", "count"}, {"collect.delivery_ratio", "ratio"}, {"collect.cost", "tx/pkt"},
	{"wire.bytes_per_event", "B"}, {"wire.encode_s", "s"}, {"wire.decode_eps", "1/s"},
	{"client.flushes", "count"}, {"client.events_per_flush", "count"}, {"client.flush_s", "s"},
	{"client.backpressure_rounds", "count"}, {"client.backpressure_sleep_s", "s"},
	{"serve.create_s", "s"}, {"serve.enqueued", "count"}, {"serve.applied", "count"}, {"serve.backpressured", "count"},
	{"serve.out_of_order", "count"}, {"serve.queued_max", "count"}, {"serve.quality_p50_ms", "ms"}, {"serve.table_p50_ms", "ms"},
	{"gen.late_p99_ms", "ms"}, {"client.flush_due_p50_ms", "ms"}, {"client.flush_p99_ms", "ms"}, {"serve.query_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

// untracedLayer are the per-layer metrics a traced run takes from its
// untraced pass: latencies timed from when requests were due, which the
// traced pass's spans and stats sampling would perturb.
var untracedLayer = []string{"client.flush_due_p50_ms", "client.flush_p99_ms", "serve.query_p99_ms"}

// e2eUnits are the end-to-end metrics every workload prints.
var e2eUnits = map[string]string{
	"setup_s":       "s",
	"simsec_per_s":  "s/s",
	"ingest_eps":    "1/s",
	"ingest_p50_ms": "ms",
	"query_p50_ms":  "ms",
	"peak_rss_mb":   "MB",
}

// setE2E records an end-to-end metric with its declared unit.
func (p *pass) setE2E(name string, v float64) {
	unit, ok := e2eUnits[name]
	if !ok {
		panic("perfbench: undeclared end-to-end metric " + name)
	}
	p.e2e[name] = metric{v, unit}
}

// setLayer records a per-layer metric with its declared unit.
func (p *pass) setLayer(name string, v float64) {
	for _, n := range layerNames {
		if n.name == name {
			p.layer[name] = metric{v, n.unit}
			return
		}
	}
	panic("perfbench: undeclared per-layer metric " + name)
}

// count records a per-layer count both as a metric and for the drift check.
func (p *pass) count(name string, v uint64) {
	p.counts[name] = v
	p.setLayer(name, float64(v))
}
