// Command fourbitsim runs the paper's experiments and arbitrary scenario
// sweeps. The figure subcommands regenerate the measured figures of
// "Four-Bit Wireless Link Estimation" (HotNets 2007) through their
// scenario presets; `scenario` and `sweep` run declarative JSON specs (see
// docs/SCENARIOS.md for the cookbook and DESIGN.md for the experiment
// index); `timeline` runs the agility figure — time-resolved windowed cost
// around a scripted parent death, per estimator kind.
//
// The independent runs behind a figure, scenario replication, or sweep
// execute on a worker pool sized by -workers (default: all CPUs); results
// are byte-identical for every pool size.
//
// Usage:
//
//	fourbitsim fig2      [-seed N] [-minutes M] [-workers W]
//	fourbitsim fig3      [-seed N] [-hours H] [-from H] [-until H]
//	fourbitsim fig6      [-seed N] [-minutes M] [-workers W]
//	fourbitsim fig7      [-seed N] [-minutes M] [-workers W]
//	fourbitsim fig8      [-seed N] [-minutes M] [-workers W]
//	fourbitsim headline  [-seed N] [-minutes M] [-workers W]
//	fourbitsim compare   [-seed N] [-minutes M] [-workers W]
//	fourbitsim timeline  [-seed N] [-minutes M] [-workers W] [-csv FILE] [-jsonl FILE]
//	fourbitsim replicate [-seed N] [-minutes M] [-workers W] [-proto P] [-power dBm] [-seeds K] [-estimator E]
//	fourbitsim scenario  [-preset NAME | -spec FILE | -list] [-seed N] [-workers W] [-estimator E]
//	                     [-shards S] [-timeline-csv FILE] [-timeline-jsonl FILE] [-estfeed-dir DIR]
//	fourbitsim sweep     [-spec FILE] [-seed N] [-minutes M] [-replicates K]
//	                     [-csv FILE] [-jsonl FILE] [-workers W] [-shards S]
//	fourbitsim serve     [-addr HOST:PORT] [-queue-depth N] [-overflow P]
//	                     [-request-timeout D] [-idle-evict D] [-snapshot-dir DIR]
//	fourbitsim feedconv  -in FILE|DIR [-out DIR] [-to binary|jsonl] [-batch N]
//	                     [-replay URL [-wire binary|jsonl] [-kind E] [-seed N]]
//	fourbitsim all       [-seed N] [-minutes M] [-workers W]
//
// Every subcommand also accepts -cpuprofile FILE and -memprofile FILE to
// capture paper-scale pprof profiles of exactly the workload it runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"fourbit/internal/experiment"
	"fourbit/internal/scenario"
	"fourbit/internal/sim"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	run, ok := subcommands()[cmd]
	if !ok {
		fmt.Fprintf(os.Stderr, "fourbitsim: unknown subcommand %q\n\n", cmd)
		usage()
		os.Exit(2)
	}
	run(args)
}

// subcommands maps each subcommand to its runner. Every runner builds its
// flags through commonFlags, so the shared knobs (seed, duration, workers,
// profiles) cannot drift between subcommands.
func subcommands() map[string]func([]string) {
	return map[string]func([]string){
		"fig2": figure("fig2", func(seed uint64, minutes float64, workers int) {
			scenario.RunFig2(seed, minutes, workers).Fprint(os.Stdout)
		}),
		"fig3": runFig3,
		"fig6": figure("fig6", func(seed uint64, minutes float64, workers int) {
			scenario.RunFig6(seed, minutes, workers).Fprint(os.Stdout)
		}),
		"fig7": figure("fig7", func(seed uint64, minutes float64, workers int) {
			scenario.RunPowerSweep(seed, minutes, workers).FprintFig7(os.Stdout)
		}),
		"fig8": figure("fig8", func(seed uint64, minutes float64, workers int) {
			scenario.RunPowerSweep(seed, minutes, workers).FprintFig8(os.Stdout)
		}),
		"headline": figure("headline", func(seed uint64, minutes float64, workers int) {
			scenario.RunHeadline(seed, minutes, workers).Fprint(os.Stdout)
		}),
		"compare": figure("compare", func(seed uint64, minutes float64, workers int) {
			scenario.RunEstCompare(seed, minutes, workers).Fprint(os.Stdout)
		}),
		"timeline":  runTimeline,
		"replicate": runReplicate,
		"scenario":  runScenario,
		"sweep":     runSweep,
		"serve":     runServe,
		"feedconv":  runFeedconv,
		"all": figure("all", func(seed uint64, minutes float64, workers int) {
			scenario.RunFig2(seed, minutes, workers).Fprint(os.Stdout)
			fmt.Println()
			scenario.RunFig6(seed, minutes, workers).Fprint(os.Stdout)
			fmt.Println()
			sweep := scenario.RunPowerSweep(seed, minutes, workers)
			sweep.FprintFig7(os.Stdout)
			fmt.Println()
			sweep.FprintFig8(os.Stdout)
			fmt.Println()
			scenario.RunHeadline(seed, minutes, workers).Fprint(os.Stdout)
		}),
	}
}

// figure makes a figure subcommand: the common flags plus -minutes, then
// render runs the figure at the parsed seed, duration and worker count.
func figure(name string, render func(seed uint64, minutes float64, workers int)) func([]string) {
	return func(args []string) {
		c := newCommonFlags(name)
		minutes := c.minutes()
		defer c.parse(args)()
		render(*c.seed, *minutes, *c.workers)
	}
}

// commonFlags registers the knobs every subcommand shares — the master
// seed, the worker pool, and the pprof capture flags — on one FlagSet, plus
// opt-in helpers for the duration flags, so subcommands assemble their
// interface from the same parts instead of redeclaring them.
type commonFlags struct {
	fs         *flag.FlagSet
	seed       *uint64
	workers    *int
	cpuProfile *string
	memProfile *string
}

func newCommonFlags(cmd string) *commonFlags {
	fs := flag.NewFlagSet(cmd, flag.ExitOnError)
	return &commonFlags{
		fs:         fs,
		seed:       fs.Uint64("seed", 1, "experiment seed (replicate/sweep seeds derive from it)"),
		workers:    fs.Int("workers", experiment.DefaultWorkers(), "parallel runs (<2 = serial)"),
		cpuProfile: fs.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)"),
		memProfile: fs.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with go tool pprof)"),
	}
}

// minutes registers the standard run-length flag (for subcommands measured
// in minutes; fig3 registers hours instead).
func (c *commonFlags) minutes() *float64 {
	return c.fs.Float64("minutes", 25, "simulated duration per run (minutes)")
}

// shards registers the region-sharding override (for subcommands that
// compile scenario specs). Only explicit counts are accepted here; the
// auto/serial selection lives in the spec's Shards field.
func (c *commonFlags) shards() *int {
	return c.fs.Int("shards", 0, "force this many region shards per run (default: auto — serial below city scale)")
}

// parse parses args, validates the shared flags, and starts any requested
// profiles. It returns the finish function the caller must defer: profiles
// are finalized when the subcommand returns normally (error exits abandon
// them).
func (c *commonFlags) parse(args []string) (finish func()) {
	if err := c.fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if f := c.fs.Lookup("minutes"); f != nil {
		if m, ok := f.Value.(flag.Getter).Get().(float64); ok && m <= 0 {
			fatal(fmt.Errorf("-minutes must be positive, got %g", m))
		}
	}
	if f := c.fs.Lookup("shards"); f != nil && c.set("shards") {
		if s, ok := f.Value.(flag.Getter).Get().(int); ok && s < 1 {
			fatal(fmt.Errorf("-shards must be at least 1, got %d", s))
		}
	}
	finish = func() {}
	if *c.memProfile != "" {
		path := *c.memProfile
		finish = func() {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}
	}
	if *c.cpuProfile != "" {
		f, err := os.Create(*c.cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		memFinish := finish
		finish = func() {
			pprof.StopCPUProfile()
			f.Close()
			memFinish()
		}
	}
	return finish
}

// set reports whether the user passed name explicitly.
func (c *commonFlags) set(name string) bool {
	set := false
	c.fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// runFig3 is the one bespoke-duration subcommand (hours, not minutes).
func runFig3(args []string) {
	c := newCommonFlags("fig3")
	hours := c.fs.Float64("hours", 12, "simulated duration (hours)")
	from := c.fs.Float64("from", 4, "degradation start (hours)")
	until := c.fs.Float64("until", 6, "degradation end (hours)")
	defer c.parse(args)()
	if *hours <= 0 {
		fatal(fmt.Errorf("-hours must be positive, got %g", *hours))
	}
	if *until <= *from {
		fatal(fmt.Errorf("-until must be after -from, got -from %g -until %g", *from, *until))
	}
	cfg := experiment.DefaultFig3Config(*c.seed)
	cfg.Duration = sim.FromSeconds(*hours * 3600)
	cfg.DegradeFrom = sim.FromSeconds(*from * 3600)
	cfg.DegradeUntil = sim.FromSeconds(*until * 3600)
	if span := cfg.DegradeUntil - cfg.DegradeFrom; span < cfg.Window {
		// The before/during summaries average the series samples, one per
		// Window: a shorter span can hold none of them.
		fatal(fmt.Errorf("the degradation span (-until minus -from) is %.3g min; it must be at least the %.3g min sample window",
			span.Hours()*60, cfg.Window.Hours()*60))
	}
	experiment.RunFig3(cfg).Fprint(os.Stdout)
}

// runTimeline executes the agility figure: windowed cost timelines around a
// scripted parent death, one run per estimator kind, plus the recovery-time
// table and optional long-format exports.
func runTimeline(args []string) {
	c := newCommonFlags("timeline")
	minutes := c.minutes()
	csvOut := c.fs.String("csv", "", "write the per-window timelines as CSV to this file ('-' = stdout)")
	jsonlOut := c.fs.String("jsonl", "", "write the per-run timelines as JSONL to this file ('-' = stdout)")
	defer c.parse(args)()
	r := scenario.RunAgility(*c.seed, *minutes, *c.workers)
	r.Fprint(os.Stdout)
	writeFile(*csvOut, "timeline CSV", func(f *os.File) error {
		return scenario.WriteTimelineCSV(f, r.TimelineRows())
	})
	writeFile(*jsonlOut, "timeline JSONL", func(f *os.File) error {
		return scenario.WriteTimelineJSONL(f, r.TimelineRows())
	})
}

func runReplicate(args []string) {
	c := newCommonFlags("replicate")
	minutes := c.minutes()
	proto := c.fs.String("proto", "4B", "protocol under test (4B, CTP, CTP+unidir, CTP+white, CTP-unlimited, MultiHopLQI)")
	estimator := c.fs.String("estimator", "", "link-estimator kind for CTP-family protocols (4bit, wmewma, pdr, lqi; empty = the protocol default)")
	power := c.fs.Float64("power", 0, "transmit power (dBm)")
	nSeeds := c.fs.Int("seeds", 5, "number of independent seeds")
	defer c.parse(args)()
	if *nSeeds < 1 {
		fatal(fmt.Errorf("-seeds must be at least 1, got %d", *nSeeds))
	}
	spec := scenario.Spec{
		Name:        "replicate",
		Protocol:    *proto,
		Estimator:   *estimator,
		Topology:    scenario.TopoSpec{Kind: "mirage"},
		Seed:        *c.seed,
		TxPowerDBm:  *power,
		DurationMin: *minutes,
	}
	rc, err := spec.RunConfig()
	if err != nil {
		fatal(err)
	}
	experiment.ReplicateWorkers(rc, *nSeeds, *c.workers).Fprint(os.Stdout)
}

// runScenario executes one scenario from a preset or a JSON spec file.
// Explicit -seed/-minutes/-replicates/-estimator flags override what the
// preset or spec file says.
func runScenario(args []string) {
	c := newCommonFlags("scenario")
	minutes := c.minutes()
	shards := c.shards()
	specFile := c.fs.String("spec", "", "JSON spec file (see docs/SCENARIOS.md)")
	preset := c.fs.String("preset", "", "built-in preset name (see -list)")
	list := c.fs.Bool("list", false, "list built-in presets and exit")
	replicates := c.fs.Int("replicates", 3, "seeds per scenario (overridden by the spec's Replicates)")
	estimator := c.fs.String("estimator", "", "link-estimator kind for CTP-family protocols (4bit, wmewma, pdr, lqi)")
	tlCSV := c.fs.String("timeline-csv", "", "write recorded timelines as CSV to this file ('-' = stdout; needs TimelineS in the spec)")
	tlJSONL := c.fs.String("timeline-jsonl", "", "write recorded timelines as JSONL to this file ('-' = stdout)")
	estFeed := c.fs.String("estfeed-dir", "", "record each node's estimator event stream to node-<addr>.jsonl files in this directory, replayable into `fourbitsim serve` (single run; Replicates is ignored)")
	defer c.parse(args)()
	if *list {
		fmt.Println("built-in scenario presets:")
		for _, p := range scenario.Presets() {
			fmt.Printf("  %-26s %s\n", p.Name, p.Desc)
		}
		return
	}
	var spec scenario.Spec
	switch {
	case *specFile != "":
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		spec, err = scenario.ParseSpec(data)
		if err != nil {
			fatal(err)
		}
	case *preset != "":
		p, ok := scenario.Preset(*preset)
		if !ok {
			fatal(fmt.Errorf("unknown preset %q (use -list)", *preset))
		}
		spec = p.Spec
	default:
		fatal(fmt.Errorf("scenario needs -preset NAME, -spec FILE, or -list"))
	}
	if c.set("seed") {
		spec.Seed = *c.seed
	}
	if c.set("minutes") {
		spec.DurationMin = *minutes
	}
	if c.set("replicates") {
		spec.Replicates = *replicates
	}
	if c.set("estimator") {
		spec.Estimator = *estimator
	}
	if c.set("shards") {
		spec.Shards = *shards
	}
	var rep *experiment.Replicated
	var err error
	if *estFeed != "" {
		rep, err = runScenarioWithFeed(&spec, *estFeed)
	} else {
		rep, err = spec.Run(*c.workers)
	}
	if err != nil {
		fatal(err)
	}
	name := spec.Name
	if name == "" {
		name = "scenario"
	}
	fmt.Printf("%s:\n", name)
	rep.Fprint(os.Stdout)
	scenario.FprintRecovery(os.Stdout, &spec, rep)
	rows := scenario.TimelineRows(name, rep)
	writeFile(*tlCSV, "timeline CSV", func(f *os.File) error {
		return scenario.WriteTimelineCSV(f, rows)
	})
	writeFile(*tlJSONL, "timeline JSONL", func(f *os.File) error {
		return scenario.WriteTimelineJSONL(f, rows)
	})
}

// runSweep executes a parameter grid and writes its exports. With a spec
// file, explicit -seed/-minutes/-replicates flags override the file's base.
func runSweep(args []string) {
	c := newCommonFlags("sweep")
	minutes := c.minutes()
	shards := c.shards()
	specFile := c.fs.String("spec", "", "JSON Sweep spec file (see docs/SCENARIOS.md)")
	replicates := c.fs.Int("replicates", 3, "seeds per grid cell (overridden by the spec's Replicates)")
	csvOut := c.fs.String("csv", "", "write the result table as CSV to this file ('-' = stdout)")
	jsonlOut := c.fs.String("jsonl", "", "write per-cell JSONL results to this file ('-' = stdout)")
	defer c.parse(args)()
	var sw scenario.Sweep
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			fatal(err)
		}
		sw, err = scenario.ParseSweep(data)
		if err != nil {
			fatal(err)
		}
		if c.set("seed") {
			sw.Base.Seed = *c.seed
		}
		if c.set("minutes") {
			sw.Base.DurationMin = *minutes
		}
		if c.set("replicates") {
			sw.Base.Replicates = *replicates
		}
	} else {
		sw = scenario.DefaultSweep(*c.seed, *minutes, *replicates)
	}
	if c.set("shards") {
		sw.Base.Shards = *shards
	}
	res, err := sw.Run(*c.workers)
	if err != nil {
		fatal(err)
	}
	res.Fprint(os.Stdout)
	writeFile(*csvOut, "CSV", func(f *os.File) error { return res.WriteCSV(f) })
	writeFile(*jsonlOut, "JSONL", func(f *os.File) error { return res.WriteJSONL(f) })
}

// writeFile routes an export to a path ('-' = stdout; empty = skip),
// treating close failures as fatal — an ENOSPC write-back would silently
// truncate the results of a possibly hours-long run.
func writeFile(path, what string, emit func(*os.File) error) {
	if path == "" {
		return
	}
	if path == "-" {
		if err := emit(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := emit(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s to %s\n", what, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}

func usage() {
	fmt.Fprintln(os.Stderr, `fourbitsim — reproduce "Four-Bit Wireless Link Estimation" (HotNets'07)
and run declarative scenarios and parameter sweeps on the same harness.

subcommands:
  fig2      routing trees + cost: CTP(10), MultiHopLQI, CTP(unlimited)
  fig3      12h MultiHopLQI run; PRR collapses while LQI stays high
  fig6      design space: CTP, +unidir, +white, 4B, MultiHopLQI
  fig7      power sweep 0/-10/-20 dBm: cost & depth, 4B vs MultiHopLQI
  fig8      power sweep: per-node delivery boxplots
  headline  4B vs MultiHopLQI on Mirage and TutorNet
  compare   head-to-head estimator comparison: one CTP router, the 4bit,
            wmewma, pdr and lqi estimators swapped in on the default grid
  timeline  the agility figure: windowed cost timelines around a scripted
            parent death, per estimator kind, with recovery-time
  replicate one protocol across K independent seeds, with mean ± stddev
  scenario  run one declarative scenario (-preset NAME | -spec FILE | -list)
  sweep     expand a parameter grid into replicated runs; default grid is
            3 topologies x 2 powers x 2 protocols (12 cells)
  serve     host link estimators as a service: HTTP event ingest (JSONL or
            binary batches), table/cost queries, snapshot/restore, drain
  feedconv  convert recorded estimator feeds between JSONL and the binary
            batch format, or replay feeds of either format into a server
  all       fig2, fig6, fig7, fig8 and headline, in that order

common flags:
  -seed N       master seed (replica and sweep seeds derive from it; default 1)
  -minutes M    simulated duration per run (default 25)
  -workers W    parallel runs; <2 = serial (default: all CPUs).
                Results are byte-identical for every worker count.
  -cpuprofile F write a CPU profile of the run to F (go tool pprof)
  -memprofile F write an end-of-run heap profile to F (go tool pprof)

fig3 flags:      -hours H (duration), -from H / -until H (degradation window)
timeline flags:  -csv FILE / -jsonl FILE (per-window timeline export)
replicate flags: -proto P (protocol name), -power dBm, -seeds K,
                 -estimator E (4bit, wmewma, pdr, lqi; CTP family only)
scenario flags:  -preset NAME, -spec FILE (JSON Spec), -list, -estimator E,
                 -shards S (force S region shards per run; default auto —
                 city-scale runs shard, smaller ones stay serial),
                 -timeline-csv FILE / -timeline-jsonl FILE,
                 -estfeed-dir DIR (record per-node estimator feeds for serve)
sweep flags:     -spec FILE (JSON Sweep), -replicates K (seeds per cell),
                 -csv FILE, -jsonl FILE ('-' = stdout), -shards S
serve flags:     -addr HOST:PORT, -queue-depth N, -overflow backpressure|drop-oldest,
                 -request-timeout D, -idle-evict D, -max-instances N,
                 -snapshot-dir DIR (restore at boot, write back on SIGTERM),
                 -drain-timeout D
feedconv flags:  -in FILE|DIR (node-<addr>.jsonl / .fbb feeds), -out DIR,
                 -to binary|jsonl (conversion direction), -batch N (events
                 per binary frame), -replay URL (stream feeds into a live
                 server instead), -wire binary|jsonl (replay format),
                 -kind E, -seed N (replayed instance parameters)

Spec and Sweep JSON schemas, every knob, timelines and the recovery-time
metric are documented in docs/SCENARIOS.md; examples/sweep shows the same
through the Go API.`)
}
