// Package fourbit is a from-scratch Go implementation of "Four-Bit Wireless
// Link Estimation" (Fonseca, Gnawali, Jamieson, Levis — HotNets 2007),
// together with the full simulation substrate its evaluation requires.
//
// The package has two faces:
//
//   - The link-estimation library: NewEstimator builds the paper's 4B
//     estimator (or any of its Figure 6 ablations, via Features). It is
//     protocol independent: feed it received routing beacons (OnBeacon,
//     carrying the physical layer's white bit), transmission outcomes
//     (TxResult, the link layer's ack bit), and wire the network layer in
//     through the pin bit (Pin/Unpin) and the compare bit (Comparer).
//
//   - The testbed simulator: Run executes a full collection experiment —
//     CC2420-class radios, CSMA/CA link layer, CTP or MultiHopLQI routing,
//     constant-rate workload — over synthetic versions of the paper's
//     Mirage and TutorNet testbeds, reporting the paper's metrics (cost,
//     tree depth, per-node delivery).
//
// All heavy machinery lives under internal/; this package is the supported
// surface. See DESIGN.md for the architecture and its §4 for the figure
// index and each figure's reproduction target.
package fourbit

import (
	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/scenario"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
	"fourbit/internal/trace"
)

// Link-estimation library surface.
type (
	// Addr is a link-layer node address.
	Addr = packet.Addr
	// Estimator is the 4B link estimator (§3.3 of the paper).
	Estimator = core.Estimator
	// LinkEstimator is the estimator-agnostic router contract; the 4B
	// estimator and its competitors (EstimatorKind) all implement it.
	LinkEstimator = core.LinkEstimator
	// EstimatorKind names a pluggable estimator implementation: "4bit",
	// "wmewma" (beacon-only windowed ETX), "pdr" (windowed-mean delivery
	// ratio), "lqi" (pure physical-layer moving average).
	EstimatorKind = core.EstimatorKind
	// EstimatorConfig parameterizes the estimator (table size, windows,
	// EWMA weights, enabled bits).
	EstimatorConfig = core.Config
	// Features selects which of the four bits the estimator uses.
	Features = core.Features
	// Comparer is the network layer's compare-bit provider.
	Comparer = core.Comparer
	// ComparerFunc adapts a function to Comparer.
	ComparerFunc = core.ComparerFunc
	// RxMeta carries per-packet physical-layer metadata (white bit, LQI).
	RxMeta = core.RxMeta
	// LEFrame is the link-estimation (layer 2.5) beacon envelope.
	LEFrame = packet.LEFrame
	// LinkEntry is one reverse-quality record in a beacon footer.
	LinkEntry = packet.LinkEntry
)

// Broadcast is the all-nodes address.
const Broadcast = packet.Broadcast

// NewEstimator builds a link estimator for node self, seeding its eviction
// randomness deterministically. cmp supplies the compare bit and may be nil
// (or installed later with SetComparer).
func NewEstimator(self Addr, cfg EstimatorConfig, cmp Comparer, seed uint64) *Estimator {
	return core.New(self, cfg, cmp, sim.NewRand(seed))
}

// Estimator kinds accepted by NewLinkEstimator (and the simulator's
// estimator-selection axis).
const (
	KindFourBit = core.KindFourBit
	KindWMEWMA  = core.KindWMEWMA
	KindPDR     = core.KindPDR
	KindLQI     = core.KindLQI
)

// NewLinkEstimator builds an estimator of any registered kind behind the
// estimator-agnostic contract; the empty kind selects the four-bit hybrid.
func NewLinkEstimator(kind EstimatorKind, self Addr, cfg EstimatorConfig, cmp Comparer, seed uint64) (LinkEstimator, error) {
	return core.NewKind(kind, self, cfg, cmp, sim.NewRand(seed))
}

// DefaultEstimatorConfig returns the paper's parameterization (10-entry
// table, ku=5, kb=2, EWMA 0.9) with all four bits enabled.
func DefaultEstimatorConfig() EstimatorConfig { return core.DefaultConfig() }

// FourBitFeatures enables all four bits (the paper's 4B estimator).
func FourBitFeatures() Features { return core.FourBit() }

// BroadcastOnlyFeatures selects the original CTP/MintRoute broadcast
// estimator (no ack, white or compare bits).
func BroadcastOnlyFeatures() Features { return core.BroadcastOnly() }

// Simulation surface.
type (
	// Topology is a set of node positions (a testbed floor plan).
	Topology = topo.Topology
	// Point is one node position in meters.
	Point = topo.Point
	// Env is a built simulation environment (clock, channel, medium).
	Env = node.Env
	// RunConfig describes one collection experiment.
	RunConfig = experiment.RunConfig
	// Result is the measured outcome of a run.
	Result = experiment.Result
	// Protocol selects the protocol/estimator variant under test.
	Protocol = experiment.Protocol
	// Workload is the offered traffic description.
	Workload = collect.Workload
	// GilbertElliott is a two-state bursty-link modifier for scenarios.
	GilbertElliott = phy.GilbertElliott
	// Time is a point or span of virtual time (nanoseconds).
	Time = sim.Time
)

// Protocol variants.
const (
	Proto4B           = experiment.Proto4B
	ProtoCTP          = experiment.ProtoCTP
	ProtoCTPUnidir    = experiment.ProtoCTPUnidir
	ProtoCTPWhite     = experiment.ProtoCTPWhite
	ProtoCTPUnlimited = experiment.ProtoCTPUnlimited
	ProtoMultiHopLQI  = experiment.ProtoMultiHopLQI
)

// Common virtual-time units.
const (
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Minute      = sim.Minute
	Hour        = sim.Hour
)

// Mirage generates the 85-node office testbed (root bottom-left).
func Mirage(seed uint64) *Topology { return topo.Mirage(seed) }

// TutorNet generates the 94-node two-floor testbed.
func TutorNet(seed uint64) *Topology { return topo.TutorNet(seed) }

// Grid places rows x cols nodes at the given spacing (meters).
func Grid(rows, cols int, spacing float64) *Topology { return topo.Grid(rows, cols, spacing) }

// Line places n nodes on a line at the given spacing (meters).
func Line(n int, spacing float64) *Topology { return topo.Line(n, spacing) }

// DefaultRunConfig returns the standard 25-minute run of protocol p over tp.
func DefaultRunConfig(p Protocol, tp *Topology, seed uint64) RunConfig {
	return experiment.DefaultRunConfig(p, tp, seed)
}

// DefaultWorkload returns the paper's workload: one packet per node every
// 10 seconds, jittered, boot staggered over 30 s.
func DefaultWorkload() Workload { return collect.DefaultWorkload() }

// Run executes a collection experiment and returns its metrics.
func Run(rc RunConfig) *Result { return experiment.Run(rc) }

// NewGilbertElliott builds a bursty-link modifier for scenario hooks: in
// the Bad state the link is badLossDB quieter (effectively silent), while
// packets received during Good sojourns still carry full quality — the
// paper's Figure 3 failure mode for physical-layer-only estimation.
func NewGilbertElliott(badLossDB float64, meanGood, meanBad Time, seed uint64) *GilbertElliott {
	return phy.NewGilbertElliott(badLossDB, meanGood, meanBad, sim.NewRand(seed))
}

// Declarative scenario surface. A Scenario describes one run (topology
// generator + channel + traffic + scripted dynamics) as data; a Sweep
// expands a parameter grid over a base scenario into replicated runs with
// aggregated results and CSV/JSONL export. docs/SCENARIOS.md is the
// cookbook; examples/sweep is the API walkthrough.
type (
	// Scenario declares one collection scenario.
	Scenario = scenario.Spec
	// ScenarioTopo names a topology generator and its parameters.
	ScenarioTopo = scenario.TopoSpec
	// ScenarioEvent is one scripted dynamics entry (node death/reboot,
	// power step, interference onset, link burst).
	ScenarioEvent = scenario.Event
	// Sweep is a parameter grid over a base scenario.
	Sweep = scenario.Sweep
	// SweepAxis is one swept parameter and its values.
	SweepAxis = scenario.Axis
	// SweepResult is a sweep's aggregated outcome (WriteCSV, WriteJSONL).
	SweepResult = scenario.SweepResult
	// Replicated is a scenario's aggregate over its replicate seeds.
	Replicated = experiment.Replicated
)

// Clustered scatters n nodes in a two-tier cluster layout over w×h meters.
func Clustered(n, clusters int, w, h, spread float64, seed uint64) *Topology {
	return topo.Clustered(n, clusters, w, h, spread, seed)
}

// Corridor places n nodes along a length×width hallway.
func Corridor(n int, length, width float64, seed uint64) *Topology {
	return topo.Corridor(n, length, width, seed)
}

// MultiFloor scatters n nodes over floors storeys of a w×h footprint.
func MultiFloor(n, floors int, w, h float64, seed uint64) *Topology {
	return topo.MultiFloor(n, floors, w, h, seed)
}

// Observability surface. Every run carries a probe bus (Env.Probes) into
// which the protocol layers emit typed events; sinks are pure observers,
// so attaching one never changes a run's trajectory. Timelines are the
// bundled windowed sink: set RunConfig.TimelineWindow (or a Scenario's
// TimelineS) and read Result.Timeline.
type (
	// ProbeBus fans typed run events out to attached sinks.
	ProbeBus = probe.Bus
	// ProbeSink receives the bus's typed events (embed probe.BaseSink).
	ProbeSink = probe.Sink
	// Timeline is a run's windowed metrics (cost, delivery, churn).
	Timeline = probe.Timeline
	// TimelineWindow is one window of a Timeline.
	TimelineWindow = probe.Window
	// Recovery is the recovery-time metric after a scripted event.
	Recovery = probe.Recovery
)

// NewTimelineCollector builds a windowed timeline sink; attach it with
// env.Probes.Attach and call Finalize(env.Clock.Now()) after the run.
// (Runs configured through RunConfig.TimelineWindow do this wiring
// themselves.)
func NewTimelineCollector(window Time) *probe.Collector { return probe.NewCollector(window) }

// Trace-driven simulation surface.
type (
	// Trace is a set of recorded per-link PRR/LQI time series.
	Trace = trace.Trace
	// LinkTrace is the series of one directed link.
	LinkTrace = trace.LinkTrace
	// TraceRecorder windows per-link broadcast statistics off the probe bus.
	TraceRecorder = trace.Recorder
	// TraceReplayer replays a recorded link series as a channel modifier.
	TraceReplayer = trace.Replayer
)

// NewTraceRecorder attaches a recorder to env's probe bus, sampling every
// window. Call Finalize after the run to obtain the trace.
func NewTraceRecorder(env *Env, window Time, name string) *TraceRecorder {
	return trace.NewRecorder(env, window, name)
}

// NewTraceReplayer builds a channel modifier that replays lt (recorded with
// the given window). Install it with env.Chan.SetModifier.
func NewTraceReplayer(lt *LinkTrace, window Time, seed uint64) (*TraceReplayer, error) {
	return trace.NewReplayer(lt, window, sim.NewRand(seed))
}
