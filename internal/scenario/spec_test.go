package scenario

import (
	"math"
	"strconv"
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/node"
	"fourbit/internal/sim"
)

// wantErr asserts err is non-nil and mentions frag.
func wantErr(t *testing.T, err error, frag string) {
	t.Helper()
	if err == nil {
		t.Fatalf("expected an error mentioning %q, got nil", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not mention %q", err, frag)
	}
}

func TestSpecValidationErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		frag string
	}{
		{"unknown protocol", Spec{Protocol: "5B"}, "unknown protocol"},
		{"unknown topology", Spec{Topology: TopoSpec{Kind: "torus"}}, "unknown topology kind"},
		{"generated topo without N", Spec{Topology: TopoSpec{Kind: "uniform"}}, "needs N"},
		{"grid without shape", Spec{Topology: TopoSpec{Kind: "grid"}}, "Rows and Cols"},
		{"N past address space", Spec{Topology: TopoSpec{Kind: "uniform", N: 65535}}, "address space"},
		{"grid past address space", Spec{Topology: TopoSpec{Kind: "grid", Rows: 256, Cols: 256}}, "address space"},
		// Rows*Cols wraps to a small positive int.
		{"grid product overflows int", Spec{Topology: TopoSpec{Kind: "grid", Rows: 1<<(strconv.IntSize/2) + 1, Cols: 1<<(strconv.IntSize/2) + 1}}, "address space"},
		{"grid with one node", Spec{Topology: TopoSpec{Kind: "grid", Rows: 1, Cols: 1}}, "Rows and Cols"},
		{"negative duration", Spec{DurationMin: -1}, "negative duration"},
		{"negative replicates", Spec{Replicates: -2}, "negative replicates"},
		{"negative table", Spec{TableSize: -1}, "negative estimator"},
		{"table past address space", Spec{TableSize: core.MaxTableSize + 1}, "address space"},
		{"bad jitter", Spec{Traffic: &TrafficSpec{JitterFrac: f64(1.5)}}, "invalid traffic"},
		{"table on lqi", Spec{Protocol: "MultiHopLQI", TableSize: 4}, "do not apply to MultiHopLQI"},
		{"unknown event", Spec{Dynamics: []Event{{Kind: "meteor-strike"}}}, "unknown event kind"},
		{"down without nodes", Spec{Dynamics: []Event{{Kind: "node-down", AtMin: 1}}}, "explicit target"},
		{"empty window", Spec{Dynamics: []Event{{Kind: "interference", AtMin: 5, UntilMin: 2}}}, "is empty"},
		{"self link", Spec{Dynamics: []Event{{Kind: "link-burst", LinkA: 3, LinkB: 3}}}, "distinct endpoints"},
		{"zero exponent", Spec{Channel: &ChannelSpec{PathLossExponent: f64(0)}}, "PathLossExponent"},
		{"negative exponent", Spec{Channel: &ChannelSpec{PathLossExponent: f64(-2)}}, "PathLossExponent"},
		{"infinite exponent", Spec{Channel: &ChannelSpec{PathLossExponent: f64(math.Inf(1))}}, "PathLossExponent"},
		{"NaN exponent", Spec{Channel: &ChannelSpec{PathLossExponent: f64(math.NaN())}}, "PathLossExponent"},
		{"negative shadowing", Spec{Channel: &ChannelSpec{ShadowSigmaDB: f64(-1)}}, "ShadowSigmaDB"},
		{"NaN fade sigma", Spec{Channel: &ChannelSpec{FadeSigmaDB: f64(math.NaN())}}, "FadeSigmaDB"},
		{"infinite jitter", Spec{Channel: &ChannelSpec{PacketJitterSigmaDB: f64(math.Inf(1))}}, "PacketJitterSigmaDB"},
		{"negative fade tau", Spec{Channel: &ChannelSpec{FadeTauS: f64(-5)}}, "FadeTauS"},
		{"infinite drift tau", Spec{Channel: &ChannelSpec{NoiseDriftTauS: f64(math.Inf(1))}}, "NoiseDriftTauS"},
		{"duration overflows sim time", Spec{DurationMin: 1e12}, "duration over"},
		{"warmup overflows sim time", Spec{WarmupMin: 2e8}, "duration over"},
		{"sample period overflows sim time", Spec{SampleS: 1e10}, "duration over"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			wantErr(t, c.spec.Validate(), c.frag)
		})
	}
	// What only the JSON decoding can refuse: data after the spec.
	parseCases := []struct{ name, json, frag string }{
		{"trailing spec", `{"Protocol": "4B"} {"Protocol": "CTP"}`, "trailing data"},
		{"trailing garbage", `{"Protocol": "4B"}x`, "trailing data"},
		{"trailing bracket", "{\"Protocol\": \"4B\"}\n]", "trailing data"},
		{"parsed duration overflows sim time", `{"DurationMin": 1e300}`, "duration over"},
		{"parsed table of two billion", `{"TableSize": 2000000000}`, "address space"},
	}
	for _, c := range parseCases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.json))
			wantErr(t, err, c.frag)
		})
	}
	largest := Spec{Topology: TopoSpec{Kind: "grid", Rows: 2, Cols: node.MaxNodes / 2}}
	if err := largest.Validate(); err != nil {
		t.Fatalf("grid at the address-space bound refused: %v", err)
	}
	if err := (&Spec{TableSize: core.MaxTableSize}).Validate(); err != nil {
		t.Fatalf("table at the address-space bound refused: %v", err)
	}
	if _, err := ParseSpec([]byte("{\"Protocol\": \"4B\"}\n\t \r\n")); err != nil {
		t.Fatalf("trailing whitespace refused: %v", err)
	}
}

func f64(v float64) *float64 { return &v }

func TestRunConfigRejectsOutOfRangeNodes(t *testing.T) {
	s := Spec{
		Topology: TopoSpec{Kind: "line", N: 5},
		Dynamics: []Event{{Kind: "node-down", AtMin: 1, Nodes: []int{9}}},
	}
	_, err := s.RunConfig()
	wantErr(t, err, "outside topology")

	s.Dynamics = []Event{{Kind: "link-burst", AtMin: 1, LinkA: 1, LinkB: 12}}
	_, err = s.RunConfig()
	wantErr(t, err, "outside topology")
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	_, err := ParseSpec([]byte(`{"Protocol": "4B", "TablSize": 4}`))
	wantErr(t, err, "TablSize")
}

func TestParseSpecRoundTrip(t *testing.T) {
	data := []byte(`{
		"Name": "cooked",
		"Protocol": "CTP",
		"Topology": {"Kind": "clustered", "N": 24, "Clusters": 4},
		"Seed": 9,
		"TxPowerDBm": -10,
		"DurationMin": 2,
		"TableSize": 6,
		"Dynamics": [{"Kind": "power-step", "AtMin": 1, "PowerDBm": -15}]
	}`)
	s, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Topo.N() != 24 || rc.TxPowerDBm != -10 || rc.Est == nil || rc.Est.TableSize != 6 {
		t.Fatalf("spec did not compile faithfully: %+v", rc)
	}
	if rc.EnvMutate == nil {
		t.Fatal("dynamics did not compile to an EnvMutate hook")
	}
}

func TestSpecKnobsReachConfigs(t *testing.T) {
	s := Spec{
		Protocol:   "4B",
		Topology:   TopoSpec{Kind: "line", N: 4},
		BeaconMaxS: 64,
		TableSize:  3,
		Traffic:    &TrafficSpec{PeriodS: 5},
		Channel:    &ChannelSpec{NoiseBurstAmpDB: f64(22)},
	}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.CTP == nil || rc.CTP.BeaconMax != 64*sim.Second {
		t.Errorf("BeaconMaxS did not reach ctp config: %+v", rc.CTP)
	}
	if rc.Est == nil || rc.Est.TableSize != 3 {
		t.Errorf("TableSize did not reach estimator config: %+v", rc.Est)
	}
	if rc.Workload.Period != 5*sim.Second {
		t.Errorf("traffic period = %v, want 5s", rc.Workload.Period)
	}
	if rc.Env == nil || rc.Env.Phy.NoiseBurstAmpDB != 22 {
		t.Errorf("channel override did not reach env config")
	}

	s.Protocol = "MultiHopLQI"
	s.TableSize = 0 // stating a table size with MultiHopLQI is a validation error
	rc, err = s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.LQI == nil || rc.LQI.BeaconPeriod != 64*sim.Second {
		t.Errorf("BeaconMaxS did not reach lqirouter config: %+v", rc.LQI)
	}
	if rc.Est != nil {
		t.Error("table override must not apply to MultiHopLQI")
	}
}

func TestSweepDropsTableKnobOnLQICells(t *testing.T) {
	sw := Sweep{
		Base: Spec{Topology: TopoSpec{Kind: "line", N: 4}, TableSize: 4},
		Axes: []Axis{{Param: "protocol", Strings: []string{"4B", "MultiHopLQI"}}},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if cells[0].Spec.TableSize != 4 {
		t.Error("4B cell lost its table size")
	}
	if cells[1].Spec.TableSize != 0 {
		t.Error("MultiHopLQI cell kept a table size it cannot use")
	}
}

func TestDynamicsDriveRadios(t *testing.T) {
	s := Spec{
		Topology: TopoSpec{Kind: "line", N: 3},
		Dynamics: []Event{
			{Kind: "node-down", AtMin: 1, UntilMin: 2, Nodes: []int{1}},
			{Kind: "power-step", AtMin: 1, PowerDBm: -7, Nodes: []int{2}},
		},
	}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	env := node.NewEnv(rc.Topo, node.DefaultEnvConfig(rc.Seed, rc.TxPowerDBm))
	rc.EnvMutate(env)

	env.Clock.RunUntil(90 * sim.Second)
	if !env.Medium.Radio(1).Down() {
		t.Error("node 1 should be down between minutes 1 and 2")
	}
	if got := env.Medium.Radio(2).TxPower(); got != -7 {
		t.Errorf("node 2 power = %v dBm after step, want -7", got)
	}
	env.Clock.RunUntil(150 * sim.Second)
	if env.Medium.Radio(1).Down() {
		t.Error("node 1 should have rebooted at minute 2")
	}
}

func TestLinkBurstsOnSamePairStack(t *testing.T) {
	// Two bursts on the same link, hours of mean Bad sojourn: inside each
	// window the link must be attenuated; between them it must not be.
	s := Spec{
		Topology: TopoSpec{Kind: "line", N: 3},
		Dynamics: []Event{
			{Kind: "link-burst", AtMin: 1, UntilMin: 2, LinkA: 1, LinkB: 2, AmpDB: 40, MeanOnMS: 3.6e6, MeanOffS: 0.001},
			{Kind: "link-burst", AtMin: 3, UntilMin: 4, LinkA: 2, LinkB: 1, AmpDB: 40, MeanOnMS: 3.6e6, MeanOffS: 0.001},
		},
	}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	env := node.NewEnv(rc.Topo, node.DefaultEnvConfig(rc.Seed, 0))
	rc.EnvMutate(env)

	quiet := env.Chan.GainDB(1, 2, 150*sim.Second) // between the windows
	in1 := env.Chan.GainDB(1, 2, 90*sim.Second)    // inside window 1
	in2 := env.Chan.GainDB(1, 2, 210*sim.Second)   // inside window 2
	if quiet-in1 < 30 {
		t.Errorf("window 1 burst missing: gain %.1f vs quiet %.1f", in1, quiet)
	}
	if quiet-in2 < 30 {
		t.Errorf("window 2 burst lost (modifier overwritten): gain %.1f vs quiet %.1f", in2, quiet)
	}
}

func TestNodeDownSparesRoot(t *testing.T) {
	s := Spec{
		Topology: TopoSpec{Kind: "line", N: 3},
		Dynamics: []Event{{Kind: "node-down", AtMin: 1, Nodes: []int{0, 1}}},
	}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	env := node.NewEnv(rc.Topo, node.DefaultEnvConfig(rc.Seed, 0))
	rc.EnvMutate(env)
	env.Clock.RunUntil(2 * sim.Minute)
	if env.Medium.Radio(0).Down() {
		t.Error("the root must never be powered down")
	}
	if !env.Medium.Radio(1).Down() {
		t.Error("node 1 should be down")
	}
}
