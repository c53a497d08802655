// Package node assembles full protocol stacks — radio, MAC, link estimator,
// routing, collection application — for every node of a topology, and is
// the only place where the layers are wired together (the narrow-interface
// discipline the paper argues for: each layer sees only its bits).
package node

import (
	"fmt"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// EnvConfig configures the shared simulation environment.
type EnvConfig struct {
	Seed       uint64
	TxPowerDBm float64
	Phy        phy.Params
	Radio      phy.RadioParams
	LQI        phy.LQIParams
	MAC        mac.Params

	// ChanPre, when non-nil, is the shared immutable channel precompute to
	// instantiate the per-seed channel from, skipping the O(n²·log10)
	// geometry rebuild. It must have been built from this topology's
	// matrices and exactly these Phy params (NewEnv verifies the params);
	// the batch runners set it once per sweep cell and share it read-only
	// across the worker pool.
	ChanPre *phy.ChannelPre

	// WrapEstimator, when non-nil, decorates each node's link estimator
	// before the router sees it — the hook the serving layer's feed
	// recorder uses to tap a node's estimator event stream out of a
	// simulation. The decorator must delegate every call (a pass-through
	// wrapper keeps the run bit-identical); it runs after SetProbes, so
	// the inner estimator is fully wired when wrapped.
	WrapEstimator func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator

	// Shards, when >= 1, builds the environment for region-sharded
	// parallel dispatch: that many event wheels, nodes partitioned by
	// phy.PartitionByRegion, the medium in handoff mode, and a
	// sim.ShardGroup driving the epochs. 0 keeps the serial path. Results
	// are bit-identical for any Shards >= 1 (and differ from serial: the
	// handoff model shifts every receiver-side effect by one epoch).
	Shards int

	// ExtraRoots lists additional collection sinks beyond the topology
	// root. Every root runs a root protocol instance and no traffic
	// source; deliveries at any sink count toward the shared ledger.
	ExtraRoots []int
}

// DefaultEnvConfig returns the standard environment at the given power.
func DefaultEnvConfig(seed uint64, txPowerDBm float64) EnvConfig {
	return EnvConfig{
		Seed:       seed,
		TxPowerDBm: txPowerDBm,
		Phy:        phy.DefaultParams(),
		Radio:      phy.DefaultRadioParams(),
		LQI:        phy.DefaultLQIParams(),
		MAC:        mac.DefaultParams(),
	}
}

// Env is the shared simulation substrate: clock, channel, medium, and the
// run's probe bus (one subscription point for every layer's typed events;
// with no sinks attached the bus is inert and the run is byte-identical to
// an unprobed one).
type Env struct {
	Clock  *sim.Simulator
	Seeds  *sim.SeedSpace
	Topo   *topo.Topology
	Chan   *phy.Channel
	Medium *phy.Medium
	Probes *probe.Bus
	Cfg    EnvConfig

	// Sharded dispatch state (nil/empty on the serial path). Clocks[s] is
	// shard s's wheel (Clock aliases Clocks[0]), Buses[s] its probe bus
	// (buses stamp events with their own clock, so each shard gets one;
	// Probes aliases Buses[0]), ShardOf maps node to shard, and Group
	// drives the epoch barriers. Callers use ClockFor/BusFor so the same
	// build code wires both paths.
	Clocks  []*sim.Simulator
	Buses   []*probe.Bus
	ShardOf []int32
	Group   *sim.ShardGroup
}

// Sharded reports whether this environment dispatches through region
// shards.
func (env *Env) Sharded() bool { return env.Group != nil }

// ClockFor returns the wheel that owns node i's events.
func (env *Env) ClockFor(i int) *sim.Simulator {
	if env.Group != nil {
		return env.Clocks[env.ShardOf[i]]
	}
	return env.Clock
}

// BusFor returns the probe bus node i's layers emit on.
func (env *Env) BusFor(i int) *probe.Bus {
	if env.Group != nil {
		return env.Buses[env.ShardOf[i]]
	}
	return env.Probes
}

// ScheduleControl schedules run-level machinery (samplers, scripted
// dynamics) that reads or mutates cross-shard state. Serial: an ordinary
// clock event. Sharded: a coordinator control that runs at the first
// epoch barrier at or after at, with every shard idle.
func (env *Env) ScheduleControl(at sim.Time, fn func()) {
	if env.Group != nil {
		env.Group.ScheduleControl(at, fn)
		return
	}
	env.Clock.At(at, fn)
}

// IsRoot reports whether node i is a collection sink (the topology root
// or one of EnvConfig.ExtraRoots).
func (env *Env) IsRoot(i int) bool {
	if i == env.Topo.Root {
		return true
	}
	for _, r := range env.Cfg.ExtraRoots {
		if r == i {
			return true
		}
	}
	return false
}

// Roots returns every collection sink, topology root first.
func (env *Env) Roots() []int {
	return append([]int{env.Topo.Root}, env.Cfg.ExtraRoots...)
}

// ShardLookahead derives the epoch length E for sharded dispatch from the
// tightest protocol deadline the handoff delay must still clear: the MAC
// ack round trip. A data frame resolves at its receiver E late; the ack
// leaves AckTurnaround later, flies for its airtime, and resolves at the
// original sender another E late — all before the sender's AckTimeout
// (measured from the data frame's end) fires:
//
//	2E + AckTurnaround + ackAirtime + guard <= AckTimeout
//
// The guard absorbs the discrete tick the barrier loop reserves. With the
// default CC2420-class numbers (turnaround 192 us, ack airtime 544 us,
// timeout 1200 us, guard 64 us) E comes out at 200 us.
func ShardLookahead(rp phy.RadioParams, mp mac.Params) sim.Time {
	ackBits := int64(rp.PreambleBytes+packet.AckFrameLen) * 8
	ackAir := sim.Time(ackBits * int64(sim.Second) / int64(rp.BitrateBps))
	const guard = 64 * sim.Microsecond
	e := (mp.AckTimeout - mp.AckTurnaround - ackAir - guard) / 2
	if e <= 0 {
		panic(fmt.Sprintf("node: MAC timing leaves no sharding lookahead (ack timeout %v, turnaround %v, ack airtime %v)",
			mp.AckTimeout, mp.AckTurnaround, ackAir))
	}
	return e
}

// MaxNodes is the largest network the 16-bit link-layer address space can
// name: node i is addressed as packet.Addr(i), and the top two addresses
// are packet.None and packet.Broadcast.
const MaxNodes = int(packet.None)

// NewEnv builds the environment over a topology. With Cfg.Shards >= 1 the
// environment comes up in region-sharded mode: per-shard wheels and probe
// buses, the medium in cross-shard handoff mode, and a ShardGroup whose
// epoch is ShardLookahead of the configured radio and MAC. The caller
// must drive the run through Env.Group and Close it afterwards.
func NewEnv(t *topo.Topology, cfg EnvConfig) *Env {
	if t.N() > MaxNodes {
		panic(fmt.Sprintf("node: %d nodes exceed the %d-node address space", t.N(), MaxNodes))
	}
	for _, r := range cfg.ExtraRoots {
		if r < 0 || r >= t.N() || r == t.Root {
			panic(fmt.Sprintf("node: extra root %d invalid (n=%d, root=%d)", r, t.N(), t.Root))
		}
	}
	clock := sim.New(cfg.Seed)
	seeds := sim.NewSeedSpace(cfg.Seed)
	bus := probe.NewBus(clock)
	var ch *phy.Channel
	if cfg.ChanPre != nil {
		if cfg.ChanPre.N() != t.N() || cfg.ChanPre.Params() != cfg.Phy {
			panic("node: EnvConfig.ChanPre does not match topology/phy params")
		}
		ch = cfg.ChanPre.NewChannel(seeds)
	} else {
		// PrecomputeGeo works from per-pair geometry accessors, so a
		// city-scale topology never materializes O(n²) distance matrices.
		ch = phy.PrecomputeGeo(t, cfg.Phy).NewChannel(seeds)
	}
	med := phy.NewMedium(clock, ch, cfg.Radio, cfg.LQI, seeds)
	for i := 0; i < med.N(); i++ {
		med.Radio(i).SetTxPower(cfg.TxPowerDBm)
	}
	env := &Env{Clock: clock, Seeds: seeds, Topo: t, Chan: ch, Medium: med, Probes: bus, Cfg: cfg}
	if cfg.Shards >= 1 {
		env.Clocks = []*sim.Simulator{clock}
		env.Buses = []*probe.Bus{bus}
		for s := 1; s < cfg.Shards; s++ {
			c := sim.New(cfg.Seed)
			env.Clocks = append(env.Clocks, c)
			env.Buses = append(env.Buses, probe.NewBus(c))
		}
		env.ShardOf = phy.PartitionByRegion(t, cfg.Phy, cfg.Shards)
		epoch := ShardLookahead(cfg.Radio, cfg.MAC)
		med.EnableSharded(env.Clocks, env.ShardOf, epoch, seeds)
		env.Group = sim.NewShardGroup(env.Clocks, epoch, med.ShardExchange)
	}
	return env
}

// Close releases the environment's worker goroutines (sharded mode; a
// no-op on the serial path).
func (env *Env) Close() {
	if env.Group != nil {
		env.Group.Close()
	}
}

// ledgerState hides the serial/sharded split of delivery accounting. The
// serial path keeps the single ledger every layer has always shared. The
// sharded path gives each shard its own ledger for traffic generation
// (sources run on shard goroutines) and an append-only delivery log owned
// by each sink's shard; finalize replays the logs in canonical
// (time, origin, seq, sink) order into one merged ledger, so duplicate
// and hop accounting is identical for any shard count.
type ledgerState struct {
	single *collect.Ledger
	parts  []*collect.Ledger
	logs   [][]collect.Delivery
}

func newLedgerState(env *Env) *ledgerState {
	if !env.Sharded() {
		return &ledgerState{single: collect.NewLedger()}
	}
	ls := &ledgerState{
		parts: make([]*collect.Ledger, len(env.Clocks)),
		logs:  make([][]collect.Delivery, len(env.Clocks)),
	}
	for s := range ls.parts {
		ls.parts[s] = collect.NewLedger()
	}
	return ls
}

// forNode returns the ledger node i's source reports generation to.
func (ls *ledgerState) forNode(env *Env, i int) *collect.Ledger {
	if ls.single != nil {
		return ls.single
	}
	return ls.parts[env.ShardOf[i]]
}

// deliver records a delivery at sink (on the sink's own shard when
// sharded — only the log append happens during the run).
func (ls *ledgerState) deliver(env *Env, sink int, origin packet.Addr, seq uint32, hops uint8) {
	if ls.single != nil {
		ls.single.NoteDelivered(origin, seq, hops)
		return
	}
	s := env.ShardOf[sink]
	ls.logs[s] = append(ls.logs[s], collect.Delivery{
		At: env.Clocks[s].Now(), Origin: origin, Seq: seq, Sink: sink, Hops: hops,
	})
}

func (ls *ledgerState) finalize() *collect.Ledger {
	if ls.single != nil {
		return ls.single
	}
	return collect.MergeLedgers(ls.parts, ls.logs)
}

// CTPNetwork is a booted network of CTP nodes plus its workload and ledger.
type CTPNetwork struct {
	Env     *Env
	Nodes   []*ctp.Node
	MACs    []*mac.MAC
	Ests    []core.LinkEstimator
	Sources []*collect.Source
	// Ledger is the run's delivery accounting. On the serial path it is
	// live throughout the run; on the sharded path it is nil until
	// FinalizeLedger merges the per-shard state after the run.
	Ledger  *collect.Ledger
	ledgers *ledgerState
}

// FinalizeLedger merges per-shard delivery accounting into Ledger after a
// sharded run (serial: a no-op; Ledger is already the single live one).
func (net *CTPNetwork) FinalizeLedger() *collect.Ledger {
	net.Ledger = net.ledgers.finalize()
	return net.Ledger
}

// BuildCTP assembles a CTP network over the default (four-bit family) link
// estimator; see BuildCTPKind for the estimator-pluggable form.
func BuildCTP(env *Env, ctpCfg ctp.Config, estCfg core.Config, wl collect.Workload) *CTPNetwork {
	return BuildCTPKind(env, ctpCfg, estCfg, core.KindFourBit, wl)
}

// BuildCTPKind assembles one CTP node per topology position (the topology
// root becomes the collection root) over a link estimator of the given
// kind, boots them staggered over the workload's boot window, and starts
// the traffic sources. Every estimator draws from the same per-node
// "est/<i>" seed stream regardless of kind, so switching kinds perturbs no
// other randomness in the run. An unknown kind panics — callers validate
// selectors at the configuration boundary (core.ParseEstimatorKind).
func BuildCTPKind(env *Env, ctpCfg ctp.Config, estCfg core.Config, kind core.EstimatorKind, wl collect.Workload) *CTPNetwork {
	n := env.Topo.N()
	net := &CTPNetwork{Env: env, ledgers: newLedgerState(env)}
	net.Ledger = net.ledgers.single
	for i := 0; i < n; i++ {
		addr := packet.Addr(i)
		m := mac.New(env.ClockFor(i), env.Medium.Radio(i), addr, env.Cfg.MAC,
			env.Seeds.Stream(fmt.Sprintf("mac/%d", i)))
		est, err := core.NewKind(kind, addr, estCfg, nil, env.Seeds.Stream(fmt.Sprintf("est/%d", i)))
		if err != nil {
			panic("node: " + err.Error())
		}
		est.SetProbes(env.BusFor(i))
		if env.Cfg.WrapEstimator != nil {
			est = env.Cfg.WrapEstimator(addr, est)
		}
		cn := ctp.New(env.ClockFor(i), m, est, env.IsRoot(i), ctpCfg,
			env.Seeds.Stream(fmt.Sprintf("ctp/%d", i)))
		net.Nodes = append(net.Nodes, cn)
		net.MACs = append(net.MACs, m)
		net.Ests = append(net.Ests, est)
	}
	for _, sink := range env.Roots() {
		sink := sink
		net.Nodes[sink].OnDeliver(func(origin packet.Addr, _ uint8, thl uint8, data []byte) {
			if seq, err := collect.DecodeReading(data); err == nil {
				net.ledgers.deliver(env, sink, origin, seq, thl)
				env.BusFor(sink).Deliver(origin, seq, thl)
			}
		})
	}
	bootRng := env.Seeds.Stream("boot")
	for i := 0; i < n; i++ {
		i := i
		boot := bootRng.UniformTime(0, wl.BootWindow)
		env.ClockFor(i).At(boot, net.Nodes[i].Start)
		if env.IsRoot(i) {
			continue
		}
		src := collect.NewSource(env.ClockFor(i), packet.Addr(i), wl,
			env.Seeds.Stream(fmt.Sprintf("src/%d", i)),
			net.Nodes[i].Send, net.ledgers.forNode(env, i))
		src.Start(boot)
		net.Sources = append(net.Sources, src)
	}
	return net
}

// Parents returns the current parent index per node (-1 when routeless),
// ready for metrics.TreeDepths. Every sink reads as -1.
func (net *CTPNetwork) Parents() []int {
	out := make([]int, len(net.Nodes))
	for i, nd := range net.Nodes {
		p := nd.Parent()
		if net.Env.IsRoot(i) || p == packet.None {
			out[i] = -1
			continue
		}
		out[i] = int(p)
	}
	return out
}

// DataTransmissions sums unicast data transmissions across all MACs — the
// numerator of the paper's cost metric.
func (net *CTPNetwork) DataTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxData
	}
	return sum
}

// BeaconTransmissions sums broadcast transmissions across all MACs.
func (net *CTPNetwork) BeaconTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxBeacons
	}
	return sum
}

// LQINetwork is a booted network of MultiHopLQI nodes.
type LQINetwork struct {
	Env     *Env
	Nodes   []*lqirouter.Node
	MACs    []*mac.MAC
	Sources []*collect.Source
	// Ledger follows the same serial/sharded contract as CTPNetwork.Ledger.
	Ledger  *collect.Ledger
	ledgers *ledgerState
}

// FinalizeLedger merges per-shard delivery accounting into Ledger after a
// sharded run (serial: a no-op).
func (net *LQINetwork) FinalizeLedger() *collect.Ledger {
	net.Ledger = net.ledgers.finalize()
	return net.Ledger
}

// BuildLQI assembles a MultiHopLQI network, mirroring BuildCTP.
func BuildLQI(env *Env, cfg lqirouter.Config, wl collect.Workload) *LQINetwork {
	n := env.Topo.N()
	net := &LQINetwork{Env: env, ledgers: newLedgerState(env)}
	net.Ledger = net.ledgers.single
	for i := 0; i < n; i++ {
		addr := packet.Addr(i)
		m := mac.New(env.ClockFor(i), env.Medium.Radio(i), addr, env.Cfg.MAC,
			env.Seeds.Stream(fmt.Sprintf("mac/%d", i)))
		ln := lqirouter.New(env.ClockFor(i), m, env.IsRoot(i), cfg,
			env.Seeds.Stream(fmt.Sprintf("lqi/%d", i)))
		net.Nodes = append(net.Nodes, ln)
		net.MACs = append(net.MACs, m)
	}
	for _, sink := range env.Roots() {
		sink := sink
		net.Nodes[sink].OnDeliver(func(origin packet.Addr, _ uint16, hops uint8, data []byte) {
			if seq, err := collect.DecodeReading(data); err == nil {
				net.ledgers.deliver(env, sink, origin, seq, hops)
				env.BusFor(sink).Deliver(origin, seq, hops)
			}
		})
	}
	bootRng := env.Seeds.Stream("boot")
	for i := 0; i < n; i++ {
		i := i
		boot := bootRng.UniformTime(0, wl.BootWindow)
		env.ClockFor(i).At(boot, net.Nodes[i].Start)
		if env.IsRoot(i) {
			continue
		}
		src := collect.NewSource(env.ClockFor(i), packet.Addr(i), wl,
			env.Seeds.Stream(fmt.Sprintf("src/%d", i)),
			net.Nodes[i].Send, net.ledgers.forNode(env, i))
		src.Start(boot)
		net.Sources = append(net.Sources, src)
	}
	return net
}

// Parents returns the current parent index per node (-1 when routeless).
// Every sink reads as -1.
func (net *LQINetwork) Parents() []int {
	out := make([]int, len(net.Nodes))
	for i, nd := range net.Nodes {
		p := nd.Parent()
		if net.Env.IsRoot(i) || p == packet.None {
			out[i] = -1
			continue
		}
		out[i] = int(p)
	}
	return out
}

// DataTransmissions sums unicast data transmissions across all MACs.
func (net *LQINetwork) DataTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxData
	}
	return sum
}

// BeaconTransmissions sums broadcast transmissions across all MACs.
func (net *LQINetwork) BeaconTransmissions() uint64 {
	var sum uint64
	for _, m := range net.MACs {
		sum += m.Stats.TxBeacons
	}
	return sum
}
