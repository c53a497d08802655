package experiment

import (
	"fmt"
	"runtime"
	"strings"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/metrics"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// Protocol identifies a protocol/estimator variant under test. The CTP
// variants differ only in the estimator features they enable — the design
// space of the paper's Figure 6.
type Protocol int

// Protocols.
const (
	Proto4B           Protocol = iota // CTP + full four-bit estimator
	ProtoCTP                          // CTP with the original broadcast estimator, 10-entry table
	ProtoCTPUnidir                    // CTP + ack bit (unidirectional estimates)
	ProtoCTPWhite                     // CTP + white/compare bits only
	ProtoCTPUnlimited                 // CTP broadcast estimator, unrestricted table
	ProtoMultiHopLQI                  // the MultiHopLQI baseline
)

// String names the variant as the paper does.
func (p Protocol) String() string {
	switch p {
	case Proto4B:
		return "4B"
	case ProtoCTP:
		return "CTP"
	case ProtoCTPUnidir:
		return "CTP+unidir"
	case ProtoCTPWhite:
		return "CTP+white"
	case ProtoCTPUnlimited:
		return "CTP-unlimited"
	case ProtoMultiHopLQI:
		return "MultiHopLQI"
	default:
		return fmt.Sprintf("Protocol(%d)", int(p))
	}
}

// EstimatorConfig returns the estimator configuration a CTP-family protocol
// runs with by default — the per-variant feature sets of Figure 6. Scenario
// specs derive from it to apply knobs (table size, footer entries) on top of
// a variant's feature set. The error reports a non-CTP-family protocol
// (MultiHopLQI has no link estimator).
func EstimatorConfig(p Protocol) (core.Config, error) {
	if p == ProtoMultiHopLQI {
		return core.Config{}, fmt.Errorf("experiment: %v has no link estimator", p)
	}
	return estConfig(p), nil
}

// estConfig returns the estimator configuration for a CTP-family protocol.
func estConfig(p Protocol) core.Config {
	cfg := core.DefaultConfig()
	switch p {
	case Proto4B:
		cfg.Features = core.FourBit()
	case ProtoCTP:
		cfg.Features = core.BroadcastOnly()
	case ProtoCTPUnidir:
		cfg.Features = core.Features{AckBit: true}
	case ProtoCTPWhite:
		cfg.Features = core.Features{WhiteCompare: true}
	case ProtoCTPUnlimited:
		cfg.Features = core.BroadcastOnly()
		cfg.TableSize = 4096 // effectively unrestricted
		cfg.FooterEntries = packet.MaxLinkEntries
	default:
		panic("experiment: not a CTP-family protocol: " + p.String())
	}
	return cfg
}

// RunConfig describes one collection run.
//
// The four optional config pointers override the per-protocol defaults;
// nil (the zero value) keeps the behavior every figure harness has always
// had. Scenario specs use them to sweep table size, beacon rate and
// channel parameters without forking the harness.
type RunConfig struct {
	Protocol Protocol
	// Estimator selects the link-estimator implementation for CTP-family
	// protocols (core.EstimatorKinds lists them). Empty keeps the
	// protocol's default — the four-bit family with the protocol's feature
	// set — byte-for-byte, including its rng streams. MultiHopLQI carries
	// its estimation inline and ignores the selector (scenario validation
	// rejects the combination before a run is built).
	Estimator   core.EstimatorKind
	Topo        *topo.Topology
	Seed        uint64
	TxPowerDBm  float64
	Duration    sim.Time
	Warmup      sim.Time // tree-depth sampling starts here
	SampleEvery sim.Time
	Workload    collect.Workload
	// Env replaces the derived environment configuration (EnvConfigFor).
	// Seed and TxPowerDBm inside it are overwritten from this RunConfig so
	// replication and power sweeps stay consistent.
	Env *node.EnvConfig
	// CTP replaces ctp.DefaultConfig() for CTP-family protocols.
	CTP *ctp.Config
	// Est replaces the protocol's estimator config (EstimatorConfig).
	Est *core.Config
	// LQI replaces lqirouter.DefaultConfig() for MultiHopLQI.
	LQI *lqirouter.Config
	// EnvMutate, if set, runs after the environment is built and before
	// the network boots (scenario hooks install link modifiers and
	// schedule dynamics events here). The env's probe bus is live at this
	// point, so the hook may also attach custom probe sinks.
	EnvMutate func(*node.Env)
	// TimelineWindow, when positive, attaches a probe.Collector to the
	// run's bus and fills Result.Timeline with windowed metrics at that
	// window width. Zero (the default) keeps the run unprobed — collectors
	// are pure observers either way, so the trajectory is identical.
	TimelineWindow sim.Time
	// WrapEstimator decorates each node's link estimator before the router
	// sees it (see node.EnvConfig.WrapEstimator) — the scenario runner's
	// estimator-feed recording rides here. Applied on top of Env when both
	// are set; pass-through decorators keep the run bit-identical.
	WrapEstimator func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator
	// Shards selects the region-sharded parallel event loop. 0 (the
	// default) auto-selects: city-scale populations (>= DefaultShardAboveN
	// nodes) run sharded with min(8, NumCPU) shards unless the run needs a
	// serial-only feature (TimelineWindow, WrapEstimator); everything else
	// — including every golden config — stays on the serial path
	// byte-for-byte. >= 1 forces that shard count (1 included: the sharded
	// machinery with a single shard, which is NOT the serial path — sharded
	// results are invariant to the shard count but differ from serial).
	// -1 forces serial regardless of size. Like Env.Seed, the value wins
	// over any Shards set inside an Env override.
	Shards int
	// ExtraSinks lists additional collection roots beyond Topo.Root (the
	// multi-sink workload). Every sink runs a root-mode router and counts
	// deliveries into one shared ledger; per-origin delivery dedupes across
	// sinks. Empty keeps the classic single-sink run bit-for-bit.
	ExtraSinks []int
}

// DefaultShardAboveN is the population at which Shards == 0 auto-selects
// the sharded event loop. The threshold is a node count, not a machine
// property, so *whether* a config shards never depends on the host; only
// the shard count does, and results are invariant to it.
const DefaultShardAboveN = 1024

// resolveShards returns the effective shard count for a run: 0 for the
// serial path, >= 1 for the sharded loop. Forcing shards alongside
// TimelineWindow is a programming error — the probe collector is a
// serial-path observer (scenario validation rejects the combination with
// a friendlier message upstream).
func resolveShards(rc RunConfig) int {
	switch {
	case rc.Shards < 0:
		return 0
	case rc.Shards > 0:
		if rc.TimelineWindow > 0 {
			panic("experiment: TimelineWindow requires the serial path; unset Shards")
		}
		return rc.Shards
	}
	if rc.TimelineWindow > 0 || rc.WrapEstimator != nil {
		return 0
	}
	if rc.Topo.N() < DefaultShardAboveN {
		return 0
	}
	n := runtime.NumCPU()
	if n < 1 {
		n = 1
	}
	if n > 8 {
		n = 8
	}
	return n
}

// DefaultRunConfig returns the standard 25-minute Mirage-style run.
func DefaultRunConfig(p Protocol, tp *topo.Topology, seed uint64) RunConfig {
	return RunConfig{
		Protocol:    p,
		Topo:        tp,
		Seed:        seed,
		TxPowerDBm:  0,
		Duration:    25 * sim.Minute,
		Warmup:      5 * sim.Minute,
		SampleEvery: time1Min,
		Workload:    collect.DefaultWorkload(),
	}
}

const time1Min = 1 * sim.Minute

// Result is the measured outcome of one run.
type Result struct {
	Protocol   Protocol
	Estimator  core.EstimatorKind // empty for MultiHopLQI and the default four-bit path
	TxPowerDBm float64
	Duration   sim.Time

	Generated     uint64
	Unique        uint64
	Duplicates    uint64
	DeliveryRatio float64
	// PerNodeDelivery holds per-origin delivery ratios (all nodes except
	// the root), in address order — the Figure 8 distributions.
	PerNodeDelivery []float64

	DataTx   uint64
	BeaconTx uint64
	// Cost is the paper's primary metric: data transmissions in the whole
	// network per unique packet delivered.
	Cost float64

	// MeanDepth is the tree depth averaged over nodes and over samples
	// taken every SampleEvery after Warmup.
	MeanDepth    float64
	FinalDepths  []int
	FinalParents []int
	Detached     int
	MeanHops     float64
	Events       uint64

	// Estimator-internal counters summed across nodes (CTP family only):
	// table dynamics plus the per-stream window/lottery activity, so
	// estimator behavior is comparable across sweeps, not just end-to-end
	// delivery.
	EstInserted    uint64
	EstReplaced    uint64
	EstRejected    uint64
	EstBeaconsIn   uint64
	EstLotteryWins uint64
	EstBeaconWin   uint64 // completed beacon/estimation windows
	EstUnicastWin  uint64 // completed unicast (ack-bit) windows
	EstAgedMisses  uint64

	// Timeline holds the run's windowed metrics when RunConfig asked for
	// them (TimelineWindow > 0); nil otherwise.
	Timeline *probe.Timeline
}

// EnvConfigFor derives the channel parameterization for a testbed. The
// TutorNet environment is harsher than Mirage's in exactly the dimensions
// the paper attributes its larger gains to: stronger time-varying fading
// (bursty marginal links) and wider per-node hardware variation
// (persistent link asymmetries) — the conditions physical-layer-only
// estimation cannot see (§2.1).
func EnvConfigFor(tp *topo.Topology, seed uint64, txPowerDBm float64) node.EnvConfig {
	cfg := node.DefaultEnvConfig(seed, txPowerDBm)
	if strings.HasPrefix(tp.Name, "tutornet") {
		cfg.Phy.FadeSigmaDB = 3.0
		cfg.Phy.FadeTau = 18 * sim.Second
		cfg.Phy.TxVarSigmaDB = 2.2
		cfg.Phy.NoiseDriftSigmaDB = 1.4
	}
	return cfg
}

// resolveEnv materializes the environment configuration a run will execute
// under: the per-testbed derivation unless rc.Env overrides it, with Seed
// and TxPowerDBm always reasserted from the RunConfig so replication and
// power sweeps stay consistent. Run and the batch runners share this so the
// batch-level channel precompute sees exactly the config Run will use.
func resolveEnv(rc RunConfig) node.EnvConfig {
	envCfg := EnvConfigFor(rc.Topo, rc.Seed, rc.TxPowerDBm)
	if rc.Env != nil {
		envCfg = *rc.Env
		envCfg.Seed = rc.Seed
		envCfg.TxPowerDBm = rc.TxPowerDBm
	}
	if rc.WrapEstimator != nil {
		envCfg.WrapEstimator = rc.WrapEstimator
	}
	envCfg.Shards = resolveShards(rc)
	if rc.ExtraSinks != nil {
		envCfg.ExtraRoots = rc.ExtraSinks
	}
	return envCfg
}

// Run executes one collection run and gathers its metrics.
func Run(rc RunConfig) *Result {
	env := node.NewEnv(rc.Topo, resolveEnv(rc))
	var timeline *probe.Collector
	if rc.TimelineWindow > 0 {
		timeline = probe.NewCollector(rc.TimelineWindow)
		env.Probes.Attach(timeline)
	}
	if rc.EnvMutate != nil {
		rc.EnvMutate(env)
	}

	var newRouter node.RouterFunc
	if rc.Protocol == ProtoMultiHopLQI {
		// MultiHopLQI carries its estimation inline; a selector set on a
		// directly-built RunConfig is unused and must not label the result
		// (scenario validation rejects the combination upstream).
		rc.Estimator = ""
		newRouter = node.LQI(orDefault(rc.LQI, lqirouter.DefaultConfig()))
	} else {
		newRouter = node.CTP(orDefault(rc.CTP, ctp.DefaultConfig()),
			orDefault(rc.Est, estConfig(rc.Protocol)), rc.Estimator)
	}
	net := node.Build(env, newRouter, rc.Workload)

	roots := env.Roots()
	var depthSum float64
	var depthSamples int
	sampler := func() {
		depths := metrics.TreeDepths(net.Parents(), roots...)
		mean, connected, _ := metrics.MeanDepth(depths, roots...)
		if connected > 0 {
			depthSum += mean
			depthSamples++
		}
	}
	if env.Sharded() {
		// Samplers are coordinator work: they read every shard's router
		// state, so they may only run at epoch barriers. ScheduleControl
		// snaps each firing to the next barrier — barrier positions depend
		// only on the epoch length, never on the shard count, so sampling
		// instants are shard-count invariant. The control re-arms itself.
		var arm func(at sim.Time)
		arm = func(at sim.Time) {
			if at > rc.Duration {
				return
			}
			env.ScheduleControl(at, func() {
				sampler()
				arm(at + rc.SampleEvery)
			})
		}
		arm(rc.Warmup)
		env.Group.RunUntil(rc.Duration)
		env.Close()
	} else {
		env.Clock.Every(rc.Warmup, rc.SampleEvery, sampler)
		env.Clock.RunUntil(rc.Duration)
	}
	ledger := net.FinalizeLedger()

	res := &Result{
		Protocol:   rc.Protocol,
		Estimator:  rc.Estimator,
		TxPowerDBm: rc.TxPowerDBm,
		Duration:   rc.Duration,
		Generated:  ledger.Generated(),
		Unique:     ledger.Unique(),
		Duplicates: ledger.Duplicates(),
		DataTx:     net.DataTransmissions(),
		BeaconTx:   net.BeaconTransmissions(),
		MeanHops:   ledger.MeanHops(),
		Events:     env.Clock.Events(),
	}
	if env.Sharded() {
		res.Events = env.Group.Events()
	}
	res.DeliveryRatio = ledger.TotalDeliveryRatio()
	for i := 0; i < rc.Topo.N(); i++ {
		if env.IsRoot(i) {
			continue
		}
		res.PerNodeDelivery = append(res.PerNodeDelivery, ledger.DeliveryRatio(packet.Addr(i)))
	}
	if res.Unique > 0 {
		res.Cost = float64(res.DataTx) / float64(res.Unique)
	}
	res.FinalParents = net.Parents()
	res.FinalDepths = metrics.TreeDepths(res.FinalParents, roots...)
	if depthSamples > 0 {
		res.MeanDepth = depthSum / float64(depthSamples)
	} else {
		res.MeanDepth, _, _ = metrics.MeanDepth(res.FinalDepths, roots...)
	}
	_, _, res.Detached = metrics.MeanDepth(res.FinalDepths, roots...)
	// MultiHopLQI has no estimators (net.Ests is nil), so its counters
	// sum to zero.
	s := core.SumStats(net.Ests)
	res.EstInserted, res.EstReplaced, res.EstRejected = s.Inserted, s.Replaced, s.RejectedFull
	res.EstBeaconsIn, res.EstLotteryWins = s.BeaconsIn, s.LotteryWins
	res.EstBeaconWin, res.EstUnicastWin = s.BeaconWindows, s.UnicastWindows
	res.EstAgedMisses = s.AgedMisses
	if timeline != nil {
		res.Timeline = timeline.Finalize(env.Clock.Now())
	}
	return res
}

// orDefault returns *p, or def when p is nil.
func orDefault[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}
