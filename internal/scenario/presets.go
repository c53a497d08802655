package scenario

// NamedSpec is a ready-to-run scenario preset for the CLI.
type NamedSpec struct {
	Name string
	Desc string
	Spec Spec
}

// Presets returns the built-in scenario library: the conditions the paper
// could not test on its two testbeds, each exercising one axis the
// estimator literature says can flip conclusions (workload, density,
// marginal power, external interference, churn). `fourbitsim scenario
// -preset <name>` runs one; docs/SCENARIOS.md walks through each.
func Presets() []NamedSpec {
	return []NamedSpec{
		{
			Name: "baseline",
			Desc: "4B on Mirage at 0 dBm — the standard 25-minute run",
			Spec: Spec{Name: "baseline", Protocol: "4B", Topology: TopoSpec{Kind: "mirage"}, Seed: 1},
		},
		{
			Name: "clustered-table-pressure",
			Desc: "dense two-tier clusters with a 4-entry link table: admission policy under maximum pressure",
			Spec: Spec{
				Name:      "clustered-table-pressure",
				Protocol:  "4B",
				Topology:  TopoSpec{Kind: "clustered", N: 60, Clusters: 5, WidthM: 45, HeightM: 30, SpreadM: 2.5, ClutterDB: 4},
				Seed:      1,
				TableSize: 4,
			},
		},
		estKindPreset("grid-beacon-etx", "wmewma",
			"CTP on the comparison grid with the beacon-only WMEWMA estimator (fourbitsim compare runs all kinds)"),
		estKindPreset("grid-pure-lqi", "lqi",
			"CTP on the comparison grid with the pure-LQI moving-average estimator (the Figure 3 blindspot, table-driven)"),
		{
			Name: "corridor-marginal",
			Desc: "a 150 m corridor at -15 dBm: long chains of grey-region links",
			Spec: Spec{
				Name:       "corridor-marginal",
				Protocol:   "4B",
				Topology:   TopoSpec{Kind: "corridor", N: 40, LengthM: 150, WidthM: 4},
				Seed:       1,
				TxPowerDBm: -15,
			},
		},
		{
			Name: "interference-onset",
			Desc: "uniform field; minutes 10-18 an interferer blankets half the nodes (LQI-invisible losses); 30 s timeline + recovery-time",
			Spec: Spec{
				Name:      "interference-onset",
				Protocol:  "4B",
				Topology:  TopoSpec{Kind: "uniform", N: 60, WidthM: 50, HeightM: 30, ClutterDB: 4},
				Seed:      1,
				TimelineS: AgilityWindowS,
				Dynamics: []Event{{
					Kind: "interference", AtMin: 10, UntilMin: 18,
					Nodes: evens(60), AmpDB: 25, MeanOnMS: 800, MeanOffS: 3,
				}},
			},
		},
		deathRecoveryPreset(),
		{
			Name: "node-churn",
			Desc: "clustered network; a third of the nodes die at minute 8 and reboot at minute 16",
			Spec: Spec{
				Name:     "node-churn",
				Protocol: "4B",
				Topology: TopoSpec{Kind: "clustered", N: 60, Clusters: 6, WidthM: 50, HeightM: 30, SpreadM: 3},
				Seed:     1,
				Dynamics: []Event{{
					Kind: "node-down", AtMin: 8, UntilMin: 16, Nodes: every(3, 60),
				}},
			},
		},
		cityPreset("city-corridor-2k",
			"a 1.5 km urban corridor of 2000 nodes — the sparse audible-set channel at city scale",
			TopoSpec{Kind: "corridor", N: 2000, LengthM: 1500, WidthM: 40}),
		cityPreset("city-multifloor-10k",
			"a 10000-node eight-floor block (600x300 m per floor) — the largest built-in deployment",
			TopoSpec{Kind: "multifloor", N: 10000, Floors: 8, WidthM: 600, HeightM: 300}),
		multiSinkCityPreset(),
		{
			Name: "power-drop",
			Desc: "multifloor deployment; every non-root node steps from 0 to -12 dBm at minute 10 (links turn marginal mid-run)",
			Spec: Spec{
				Name:     "power-drop",
				Protocol: "4B",
				Topology: TopoSpec{Kind: "multifloor", N: 60, Floors: 3, WidthM: 40, HeightM: 24},
				Seed:     1,
				Dynamics: []Event{{
					Kind: "power-step", AtMin: 10, PowerDBm: -12,
				}},
			},
		},
	}
}

// deathRecoveryPreset derives the node-death-recovery preset from the
// agility figure's own specs, so preset conditions (grid, power, dead
// nodes, timeline window) track agility.go instead of restating them. The
// preset is the figure's four-bit run; `fourbitsim timeline` runs all four
// estimator kinds side by side.
func deathRecoveryPreset() NamedSpec {
	s := AgilitySpecs(1, 0)[0]
	if s.Estimator != string(EstCompareKinds[0]) {
		panic("scenario: agility specs no longer lead with the four-bit kind")
	}
	s.Name = "node-death-recovery"
	return NamedSpec{
		Name: "node-death-recovery",
		Desc: "comparison grid; the root-adjacent relays die at minute 10; 30 s timeline + recovery-time",
		Spec: s,
	}
}

// cityPreset wraps a city-scale topology in the shared large-deployment
// conditions: a steeper urban path-loss exponent (4.0 — dense construction,
// so radio horizons stay a few hundred meters and the audible set is
// genuinely sparse), a short run (the point is scale, not duration), and a
// compressed boot window so 25% of a run is not spent booting.
// docs/SCENARIOS.md §"City scale" derives the densities.
func cityPreset(name, desc string, tp TopoSpec) NamedSpec {
	return NamedSpec{
		Name: name,
		Desc: desc,
		Spec: Spec{
			Name:        name,
			Protocol:    "4B",
			Topology:    tp,
			Seed:        1,
			DurationMin: 2,
			WarmupMin:   0.5,
			SampleS:     30,
			Traffic:     &TrafficSpec{BootWindowS: 10},
			Channel:     &ChannelSpec{PathLossExponent: fptr(4.0)},
		},
	}
}

// multiSinkCityPreset derives the four-sink variant of the 10k block from
// the single-sink preset, so the two differ only in Sinks: the root plus
// three anchor-placed extra sinks (far corner first — see extraSinks)
// drain the same deployment, quartering the per-sink funnel load.
func multiSinkCityPreset() NamedSpec {
	p := cityPreset("city-multifloor-10k-4sink",
		"the 10000-node block drained by four sinks — multi-sink collection at city scale",
		TopoSpec{Kind: "multifloor", N: 10000, Floors: 8, WidthM: 600, HeightM: 300})
	p.Spec.Sinks = 4
	return p
}

// fptr makes a pointer-valued ChannelSpec field literal.
func fptr(v float64) *float64 { return &v }

// estKindPreset derives a single-estimator preset from the comparison
// figure's own specs, so preset conditions (grid, power, seed) track
// EstCompareSpecs instead of restating them.
func estKindPreset(name, kind, desc string) NamedSpec {
	for _, s := range EstCompareSpecs(1, 0) {
		if s.Estimator == kind {
			s.Name = name
			return NamedSpec{Name: name, Desc: desc, Spec: s}
		}
	}
	panic("scenario: estimator kind not in the comparison figure: " + kind)
}

// Preset looks a preset up by name.
func Preset(name string) (NamedSpec, bool) {
	for _, p := range Presets() {
		if p.Name == name {
			return p, true
		}
	}
	return NamedSpec{}, false
}

// evens returns the even node indices below n — a deterministic "half the
// network" target set.
func evens(n int) []int {
	var out []int
	for i := 2; i < n; i += 2 {
		out = append(out, i)
	}
	return out
}

// every returns every k-th node index below n — "a third of the network"
// for k=3. The dynamics engine spares the root on node-down regardless.
func every(k, n int) []int {
	var out []int
	for i := k; i < n; i += k {
		out = append(out, i)
	}
	return out
}

// DefaultSweep is the baseline grid behind `fourbitsim sweep` with no spec
// file: three topologies × two transmit powers × two protocols = 12 cells,
// the smallest grid that exercises density, power and protocol at once.
func DefaultSweep(seed uint64, minutes float64, replicates int) Sweep {
	return Sweep{
		Name: "baseline-grid",
		Base: Spec{
			Topology: TopoSpec{
				N: 60, WidthM: 50, HeightM: 30,
				Clusters: 6, SpreadM: 3,
			},
			Seed:        seed,
			DurationMin: minutes,
			Replicates:  replicates,
		},
		Axes: []Axis{
			{Param: "topology", Strings: []string{"mirage", "uniform", "clustered"}},
			{Param: "txpower", Values: []float64{0, -10}},
			{Param: "protocol", Strings: []string{"4B", "MultiHopLQI"}},
		},
	}
}
