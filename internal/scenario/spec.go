package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/experiment"
	"fourbit/internal/lqirouter"
	"fourbit/internal/node"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// Spec declares one collection scenario. The zero value of every field
// means "the paper's default": a zero Spec (plus a topology kind) is
// exactly the standard 25-minute Mirage-style run the figure harnesses
// use, so presets and JSON files only state what they change.
//
// Durations are minutes or seconds as suffixed, powers are dBm — the same
// units the fourbitsim flags use.
type Spec struct {
	Name string `json:",omitempty"`
	// Protocol is a variant name as printed by experiment.Protocol: "4B",
	// "CTP", "CTP+unidir", "CTP+white", "CTP-unlimited", "MultiHopLQI".
	// Empty means "4B".
	Protocol string `json:",omitempty"`
	// Estimator selects the link-estimator implementation for CTP-family
	// protocols: "4bit", "wmewma", "pdr", "lqi" (core.EstimatorKinds).
	// Empty keeps the protocol's default four-bit family estimator —
	// byte-identical to pre-framework behavior. Invalid on MultiHopLQI,
	// which carries its estimation inline.
	Estimator string `json:",omitempty"`
	Topology  TopoSpec
	Seed      uint64 `json:",omitempty"`
	// TxPowerDBm is the shared transmit power (0 dBm default, like the
	// testbeds; the paper's Figure 7 sweeps it down to -20).
	TxPowerDBm  float64 `json:",omitempty"`
	DurationMin float64 `json:",omitempty"` // 0 = 25 (the paper's runs)
	WarmupMin   float64 `json:",omitempty"` // 0 = 5; tree-depth sampling starts here
	SampleS     float64 `json:",omitempty"` // 0 = 60; depth sampling period
	// Replicates > 1 fans the scenario across that many seeds derived from
	// Seed (experiment.ReplicaSeeds) and aggregates mean ± stddev.
	Replicates int `json:",omitempty"`

	Traffic *TrafficSpec `json:",omitempty"` // nil = 1 pkt / 10 s / node
	Channel *ChannelSpec `json:",omitempty"` // nil = testbed defaults

	// TableSize / FooterEntries override the link-estimator table (CTP
	// family only; 0 keeps the protocol's default — 10 entries for the
	// paper's variants, unrestricted for CTP-unlimited).
	TableSize     int `json:",omitempty"`
	FooterEntries int `json:",omitempty"`
	// BeaconMaxS overrides the beacon rate: CTP's Trickle maximum interval
	// (default 128 s) or MultiHopLQI's fixed beacon period (default 30 s).
	BeaconMaxS float64 `json:",omitempty"`

	// Dynamics are scripted mid-run events: node death/reboot, power
	// steps, interference onset, link bursts.
	Dynamics []Event `json:",omitempty"`

	// Shards selects the region-sharded parallel event loop
	// (experiment.RunConfig.Shards): 0 auto-selects — city-scale
	// populations shard, everything else (every golden config included)
	// stays on the serial path byte-for-byte; >= 1 forces that shard
	// count; -1 forces serial. Sharded results are invariant to the shard
	// count but are a different (equally valid) trajectory than serial.
	// Incompatible with TimelineS (the probe collector is serial-only).
	Shards int `json:",omitempty"`
	// Sinks is the number of collection roots (multi-sink collection).
	// 0 or 1 is the classic single-sink run, bit-for-bit. Larger values
	// add Sinks-1 extra roots at deterministic geometric anchors spread
	// over the deployment's bounding box (far corner first), so a preset
	// names a sink count, not node indices. Max 9.
	Sinks int `json:",omitempty"`
	// TimelineS, when positive, records a windowed timeline (cost,
	// delivery ratio, parent churn, table composition per window of that
	// many seconds) through the run's probe bus. Timelines are pure
	// observation: the run's trajectory and headline metrics are identical
	// with or without one. They are what makes the Dynamics above
	// measurable — see the recovery-time metric (probe.RecoveryWindows)
	// and the timeline exports.
	TimelineS float64 `json:",omitempty"`
}

// TrafficSpec overrides the offered collection workload.
type TrafficSpec struct {
	PeriodS      float64  `json:",omitempty"` // 0 = 10
	JitterFrac   *float64 `json:",omitempty"` // nil = 0.1
	PayloadBytes int      `json:",omitempty"` // 0 = 12
	BootWindowS  float64  `json:",omitempty"` // 0 = 30
}

// Workload resolves the spec into the collect package's workload.
func (t *TrafficSpec) Workload() collect.Workload {
	wl := collect.DefaultWorkload()
	if t == nil {
		return wl
	}
	if t.PeriodS > 0 {
		wl.Period = sim.FromSeconds(t.PeriodS)
	}
	if t.JitterFrac != nil {
		wl.JitterFrac = *t.JitterFrac
	}
	if t.PayloadBytes > 0 {
		wl.PayloadBytes = t.PayloadBytes
	}
	if t.BootWindowS > 0 {
		wl.BootWindow = sim.FromSeconds(t.BootWindowS)
	}
	return wl
}

// ChannelSpec overrides individual channel-model parameters. Fields are
// pointers so JSON can state only what changes; nil keeps the testbed
// default (experiment.EnvConfigFor, which already hardens TutorNet-style
// topologies).
type ChannelSpec struct {
	PathLossRefDB       *float64 `json:",omitempty"`
	PathLossExponent    *float64 `json:",omitempty"`
	ShadowSigmaDB       *float64 `json:",omitempty"`
	TxVarSigmaDB        *float64 `json:",omitempty"`
	NoiseFigSigmaDB     *float64 `json:",omitempty"`
	NoiseFloorDBm       *float64 `json:",omitempty"`
	NoiseDriftSigmaDB   *float64 `json:",omitempty"`
	NoiseDriftTauS      *float64 `json:",omitempty"`
	FadeSigmaDB         *float64 `json:",omitempty"`
	FadeTauS            *float64 `json:",omitempty"`
	NoiseBurstAmpDB     *float64 `json:",omitempty"`
	NoiseBurstMeanOnMS  *float64 `json:",omitempty"`
	NoiseBurstMeanOffS  *float64 `json:",omitempty"`
	PacketJitterSigmaDB *float64 `json:",omitempty"`
}

// validate rejects channel overrides the model cannot honor: the
// audible-set cutoff bound needs path loss to grow with distance, and a
// spread or time constant must be a finite non-negative number.
func (c *ChannelSpec) validate() error {
	if e := c.PathLossExponent; e != nil && !(*e > 0 && !math.IsInf(*e, 1)) {
		return fmt.Errorf("channel PathLossExponent must be positive and finite, got %v", *e)
	}
	for _, f := range []struct {
		name string
		v    *float64
	}{
		{"ShadowSigmaDB", c.ShadowSigmaDB},
		{"TxVarSigmaDB", c.TxVarSigmaDB},
		{"NoiseFigSigmaDB", c.NoiseFigSigmaDB},
		{"NoiseDriftSigmaDB", c.NoiseDriftSigmaDB},
		{"NoiseDriftTauS", c.NoiseDriftTauS},
		{"FadeSigmaDB", c.FadeSigmaDB},
		{"FadeTauS", c.FadeTauS},
		{"PacketJitterSigmaDB", c.PacketJitterSigmaDB},
	} {
		if f.v != nil && !(*f.v >= 0 && !math.IsInf(*f.v, 1)) {
			return fmt.Errorf("channel %s must be non-negative and finite, got %v", f.name, *f.v)
		}
	}
	return nil
}

func (c *ChannelSpec) apply(p *phy.Params) {
	set := func(dst *float64, src *float64) {
		if src != nil {
			*dst = *src
		}
	}
	set(&p.PathLossRefDB, c.PathLossRefDB)
	set(&p.PathLossExponent, c.PathLossExponent)
	set(&p.ShadowSigmaDB, c.ShadowSigmaDB)
	set(&p.TxVarSigmaDB, c.TxVarSigmaDB)
	set(&p.NoiseFigSigmaDB, c.NoiseFigSigmaDB)
	set(&p.NoiseFloorDBm, c.NoiseFloorDBm)
	set(&p.NoiseDriftSigmaDB, c.NoiseDriftSigmaDB)
	set(&p.FadeSigmaDB, c.FadeSigmaDB)
	set(&p.NoiseBurstAmpDB, c.NoiseBurstAmpDB)
	set(&p.PacketJitterSigmaDB, c.PacketJitterSigmaDB)
	if c.NoiseDriftTauS != nil {
		p.NoiseDriftTau = sim.FromSeconds(*c.NoiseDriftTauS)
	}
	if c.FadeTauS != nil {
		p.FadeTau = sim.FromSeconds(*c.FadeTauS)
	}
	if c.NoiseBurstMeanOnMS != nil {
		p.NoiseBurstMeanOn = sim.FromSeconds(*c.NoiseBurstMeanOnMS / 1000)
	}
	if c.NoiseBurstMeanOffS != nil {
		p.NoiseBurstMeanOff = sim.FromSeconds(*c.NoiseBurstMeanOffS)
	}
}

// protocol resolves the protocol name (empty = 4B).
func (s *Spec) protocol() (experiment.Protocol, error) {
	name := s.Protocol
	if name == "" {
		name = "4B"
	}
	return experiment.ParseProtocol(name)
}

// duration returns the run length; the conversion chain matches the
// fourbitsim -minutes flag exactly so presets reproduce figure runs
// bit-for-bit.
func (s *Spec) duration() sim.Time {
	m := s.DurationMin
	if m == 0 {
		m = 25
	}
	return sim.FromSeconds(m * 60)
}

// maxDurationMin bounds DurationMin, WarmupMin and SampleS: a million
// minutes (about 1.9 years simulated) is far beyond any run, yet two such
// spans still sit ~75x below the ~1.5e8 minutes at which sim.Time's int64
// nanoseconds overflow.
const maxDurationMin = 1e6

// Validate reports the first structural problem with the spec. Node-index
// range checks happen in RunConfig, after the topology is built.
func (s *Spec) Validate() error {
	if _, err := s.protocol(); err != nil {
		return err
	}
	if err := s.Topology.validate(); err != nil {
		return fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	if s.DurationMin < 0 || s.WarmupMin < 0 || s.SampleS < 0 {
		return fmt.Errorf("scenario %q: negative duration", s.Name)
	}
	if s.DurationMin > maxDurationMin || s.WarmupMin > maxDurationMin || s.SampleS > maxDurationMin*60 {
		return fmt.Errorf("scenario %q: duration over %g minutes", s.Name, float64(maxDurationMin))
	}
	if s.TimelineS < 0 {
		return fmt.Errorf("scenario %q: negative timeline window", s.Name)
	}
	if s.Replicates < 0 {
		return fmt.Errorf("scenario %q: negative replicates", s.Name)
	}
	if s.Shards < -1 {
		return fmt.Errorf("scenario %q: Shards must be -1 (serial), 0 (auto) or a shard count", s.Name)
	}
	if s.Shards > 0 && s.TimelineS > 0 {
		return fmt.Errorf("scenario %q: TimelineS needs the serial path; drop Shards or set it to -1", s.Name)
	}
	if s.Sinks < 0 || s.Sinks > 9 {
		return fmt.Errorf("scenario %q: Sinks must be between 0 and 9, got %d", s.Name, s.Sinks)
	}
	if s.TableSize < 0 || s.FooterEntries < 0 || s.BeaconMaxS < 0 {
		return fmt.Errorf("scenario %q: negative estimator/beacon knob", s.Name)
	}
	if s.TableSize > core.MaxTableSize {
		return fmt.Errorf("scenario %q: TableSize %d exceeds the %d-neighbour address space", s.Name, s.TableSize, core.MaxTableSize)
	}
	if p, _ := s.protocol(); p == experiment.ProtoMultiHopLQI && (s.TableSize > 0 || s.FooterEntries > 0) {
		return fmt.Errorf("scenario %q: TableSize/FooterEntries do not apply to MultiHopLQI (no link table)", s.Name)
	}
	if s.Estimator != "" {
		if _, err := core.ParseEstimatorKind(s.Estimator); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		if p, _ := s.protocol(); p == experiment.ProtoMultiHopLQI {
			return fmt.Errorf("scenario %q: Estimator does not apply to MultiHopLQI (estimation is inline)", s.Name)
		}
	}
	if s.Channel != nil {
		if err := s.Channel.validate(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if s.Traffic != nil {
		t := s.Traffic
		if t.PeriodS < 0 || t.PayloadBytes < 0 || t.BootWindowS < 0 ||
			(t.JitterFrac != nil && (*t.JitterFrac < 0 || *t.JitterFrac >= 1)) {
			return fmt.Errorf("scenario %q: invalid traffic spec", s.Name)
		}
	}
	for i := range s.Dynamics {
		if err := s.Dynamics[i].validate(); err != nil {
			return fmt.Errorf("scenario %q: dynamics[%d]: %w", s.Name, i, err)
		}
	}
	return nil
}

// RunConfig compiles the spec into one experiment run.
func (s *Spec) RunConfig() (experiment.RunConfig, error) {
	if err := s.Validate(); err != nil {
		return experiment.RunConfig{}, err
	}
	p, _ := s.protocol()
	tp, err := s.Topology.Build(s.Seed)
	if err != nil {
		return experiment.RunConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
	}
	rc := experiment.DefaultRunConfig(p, tp, s.Seed)
	rc.TxPowerDBm = s.TxPowerDBm
	rc.Duration = s.duration()
	if s.WarmupMin > 0 {
		rc.Warmup = sim.FromSeconds(s.WarmupMin * 60)
	}
	if s.SampleS > 0 {
		rc.SampleEvery = sim.FromSeconds(s.SampleS)
	}
	rc.Workload = s.Traffic.Workload()
	if s.Channel != nil {
		env := experiment.EnvConfigFor(tp, s.Seed, s.TxPowerDBm)
		s.Channel.apply(&env.Phy)
		rc.Env = &env
	}
	if s.Estimator != "" {
		kind, err := core.ParseEstimatorKind(s.Estimator)
		if err != nil {
			return experiment.RunConfig{}, err
		}
		rc.Estimator = kind
	}
	if (s.TableSize > 0 || s.FooterEntries > 0) && p != experiment.ProtoMultiHopLQI {
		est, err := experiment.EstimatorConfig(p)
		if err != nil {
			return experiment.RunConfig{}, err
		}
		if s.TableSize > 0 {
			est.TableSize = s.TableSize
		}
		if s.FooterEntries > 0 {
			est.FooterEntries = s.FooterEntries
		}
		// The knobs passed structural validation above; the estimator
		// constructors re-validate, but catching a contradictory combination
		// here names the scenario instead of panicking mid-run.
		if err := est.Validate(); err != nil {
			return experiment.RunConfig{}, fmt.Errorf("scenario %q: %w", s.Name, err)
		}
		rc.Est = &est
	}
	if s.BeaconMaxS > 0 {
		if p == experiment.ProtoMultiHopLQI {
			cfg := lqirouter.DefaultConfig()
			cfg.BeaconPeriod = sim.FromSeconds(s.BeaconMaxS)
			rc.LQI = &cfg
		} else {
			cfg := ctp.DefaultConfig()
			cfg.BeaconMax = sim.FromSeconds(s.BeaconMaxS)
			rc.CTP = &cfg
		}
	}
	if len(s.Dynamics) > 0 {
		for i := range s.Dynamics {
			if err := s.Dynamics[i].checkNodes(tp); err != nil {
				return experiment.RunConfig{}, fmt.Errorf("scenario %q: dynamics[%d]: %w", s.Name, i, err)
			}
		}
		rc.EnvMutate = compileDynamics(s.Dynamics)
	}
	if s.TimelineS > 0 {
		rc.TimelineWindow = sim.FromSeconds(s.TimelineS)
	}
	rc.Shards = s.Shards
	if s.Sinks > 1 {
		rc.ExtraSinks = extraSinks(tp, s.Sinks-1)
	}
	return rc, nil
}

// sinkAnchors are the unit-bounding-box positions extra sinks snap to, in
// placement order: the far corner first (the longest haul from the usual
// near-origin root), then the remaining corners, center, and edge
// midpoints. Fixed anchors make a preset's sink layout a pure function of
// the topology — no indices to restate when N changes.
var sinkAnchors = [][2]float64{
	{1, 1}, {1, 0}, {0, 1}, {0.5, 0.5}, {1, 0.5}, {0, 0.5}, {0.5, 1}, {0.5, 0},
}

// extraSinks picks count extra collection roots: for each anchor in order,
// the node nearest that point of the deployment's xy bounding box (floors
// project onto one plane — a multifloor block wants sinks spread in plan,
// not stacked) that is not the root or an earlier pick. Ascending node
// scan breaks distance ties toward the lower index.
func extraSinks(tp *topo.Topology, count int) []int {
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for _, p := range tp.Positions {
		minX, maxX = math.Min(minX, p.X), math.Max(maxX, p.X)
		minY, maxY = math.Min(minY, p.Y), math.Max(maxY, p.Y)
	}
	taken := map[int]bool{tp.Root: true}
	var out []int
	for k := 0; k < count && k < len(sinkAnchors); k++ {
		ax := minX + sinkAnchors[k][0]*(maxX-minX)
		ay := minY + sinkAnchors[k][1]*(maxY-minY)
		best, bestD := -1, math.Inf(1)
		for i, p := range tp.Positions {
			if taken[i] {
				continue
			}
			d := (p.X-ax)*(p.X-ax) + (p.Y-ay)*(p.Y-ay)
			if d < bestD {
				best, bestD = i, d
			}
		}
		if best < 0 {
			break
		}
		taken[best] = true
		out = append(out, best)
	}
	return out
}

// Batch expands the spec into its replicate runs: one RunConfig per seed.
// With Replicates <= 1 the batch is the single run under Seed itself;
// otherwise the seeds come from experiment.ReplicaSeeds, so a scenario's
// replication matches `fourbitsim replicate` exactly.
func (s *Spec) Batch() ([]experiment.RunConfig, []uint64, error) {
	rc, err := s.RunConfig()
	if err != nil {
		return nil, nil, err
	}
	if s.Replicates <= 1 {
		return []experiment.RunConfig{rc}, []uint64{rc.Seed}, nil
	}
	seeds := experiment.ReplicaSeeds(s.Seed, s.Replicates)
	rcs := make([]experiment.RunConfig, len(seeds))
	for i, seed := range seeds {
		rcs[i] = rc
		rcs[i].Seed = seed
	}
	return rcs, seeds, nil
}

// Run executes the scenario (with replication, if requested) on a worker
// pool and aggregates the results. workers <= 0 means the default pool
// (all CPUs); results are identical for every worker count.
func (s *Spec) Run(workers int) (*experiment.Replicated, error) {
	rcs, seeds, err := s.Batch()
	if err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = experiment.DefaultWorkers()
	}
	runs := experiment.RunAllWorkers(rcs, workers)
	return experiment.Aggregate(rcs[0].Protocol, rcs[0].TxPowerDBm, seeds, runs), nil
}

// ParseSpec decodes and validates a JSON scenario spec. Unknown fields are
// errors — a misspelled knob must not silently fall back to a default — and
// so is anything but whitespace after the spec.
func ParseSpec(data []byte) (Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return Spec{}, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeStrict decodes data as exactly one JSON value into v, refusing
// unknown fields and any non-whitespace after the value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
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

// TopoSpec names a topology generator and its parameters. Kinds:
//
//	mirage     the 85-node single-floor office testbed (default)
//	tutornet   the 94-node two-floor testbed
//	line       N nodes, SpacingM apart (default 10 m)
//	grid       Rows×Cols nodes, SpacingM apart (default 6 m)
//	uniform    N nodes uniform over WidthM×HeightM (default 50×30 m)
//	clustered  N nodes in Clusters two-tier groups, SpreadM sigma
//	corridor   N nodes along a LengthM×WidthM hallway (default 120×4 m)
//	multifloor N nodes uniform over Floors storeys of WidthM×HeightM
//
// Seed, when nonzero, decouples the placement from the scenario seed so a
// replicated scenario varies the channel/protocol randomness while holding
// the layout fixed.
type TopoSpec struct {
	Kind      string  `json:",omitempty"`
	N         int     `json:",omitempty"`
	Rows      int     `json:",omitempty"`
	Cols      int     `json:",omitempty"`
	SpacingM  float64 `json:",omitempty"`
	WidthM    float64 `json:",omitempty"`
	HeightM   float64 `json:",omitempty"`
	LengthM   float64 `json:",omitempty"`
	Clusters  int     `json:",omitempty"`
	SpreadM   float64 `json:",omitempty"`
	Floors    int     `json:",omitempty"`
	ClutterDB float64 `json:",omitempty"`
	Seed      uint64  `json:",omitempty"`
}

// TopoKinds lists the supported generator names.
func TopoKinds() []string {
	return []string{"mirage", "tutornet", "line", "grid", "uniform", "clustered", "corridor", "multifloor"}
}

func (ts *TopoSpec) validate() error {
	switch ts.Kind {
	case "", "mirage", "tutornet":
		return nil
	case "line", "uniform", "clustered", "corridor", "multifloor":
		if ts.N <= 1 {
			return fmt.Errorf("topology %q needs N >= 2 nodes", ts.Kind)
		}
		if ts.N > node.MaxNodes {
			return fmt.Errorf("topology %q: N = %d exceeds the %d-node address space", ts.Kind, ts.N, node.MaxNodes)
		}
		return nil
	case "grid":
		if ts.Rows <= 0 || ts.Cols <= 0 {
			return fmt.Errorf("topology grid needs Rows and Cols (>= 2 nodes)")
		}
		// Rows*Cols <= MaxNodes, tested without forming the product.
		if ts.Rows > node.MaxNodes/ts.Cols {
			return fmt.Errorf("topology grid: %d×%d exceeds the %d-node address space", ts.Rows, ts.Cols, node.MaxNodes)
		}
		if ts.Rows*ts.Cols <= 1 {
			return fmt.Errorf("topology grid needs Rows and Cols (>= 2 nodes)")
		}
		return nil
	default:
		return fmt.Errorf("unknown topology kind %q (kinds: %v)", ts.Kind, TopoKinds())
	}
}

// Build generates the topology. masterSeed seeds the placement unless the
// spec pins its own Seed.
func (ts *TopoSpec) Build(masterSeed uint64) (*topo.Topology, error) {
	if err := ts.validate(); err != nil {
		return nil, err
	}
	seed := ts.Seed
	if seed == 0 {
		seed = masterSeed
	}
	or := func(v, def float64) float64 {
		if v > 0 {
			return v
		}
		return def
	}
	var tp *topo.Topology
	switch ts.Kind {
	case "", "mirage":
		tp = topo.Mirage(seed)
	case "tutornet":
		tp = topo.TutorNet(seed)
	case "line":
		tp = topo.Line(ts.N, or(ts.SpacingM, 10))
	case "grid":
		tp = topo.Grid(ts.Rows, ts.Cols, or(ts.SpacingM, 6))
	case "uniform":
		tp = topo.UniformRandom(ts.N, or(ts.WidthM, 50), or(ts.HeightM, 30), seed)
	case "clustered":
		clusters := ts.Clusters
		if clusters <= 0 {
			clusters = 5
		}
		tp = topo.Clustered(ts.N, clusters, or(ts.WidthM, 50), or(ts.HeightM, 30), or(ts.SpreadM, 3), seed)
	case "corridor":
		tp = topo.Corridor(ts.N, or(ts.LengthM, 120), or(ts.WidthM, 4), seed)
	case "multifloor":
		floors := ts.Floors
		if floors <= 0 {
			floors = 2
		}
		tp = topo.MultiFloor(ts.N, floors, or(ts.WidthM, 42), or(ts.HeightM, 24), seed)
	}
	if ts.ClutterDB > 0 {
		tp.ClutterDB = ts.ClutterDB
		tp.ClutterSeed = seed
	}
	return tp, nil
}
