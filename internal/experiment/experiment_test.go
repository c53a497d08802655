package experiment

import (
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The harness tests run compressed versions of each figure and assert the
// paper's qualitative findings — the orderings and directions, not the
// absolute values. They are the repository's regression net for the
// reproduction itself. Durations are chosen as the shortest that give
// stable orderings; `go test` stays interactive, the full-scale runs live
// in the fourbitsim CLI.

const testMinutes = 6 * sim.Minute

func TestFig2Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := RunFig2(1, testMinutes)
	ctp, lqi, unlimited := r.Runs[0], r.Runs[1], r.Runs[2]
	if ctp.Protocol != ProtoCTP || lqi.Protocol != ProtoMultiHopLQI || unlimited.Protocol != ProtoCTPUnlimited {
		t.Fatal("run order wrong")
	}
	// Paper Figure 2's core claim: the 10-entry link table inflates CTP's
	// cost well above both alternatives (paper: 3.14 vs 2.28 and 1.86).
	// The relative order of MultiHopLQI and CTP-unlimited varies with the
	// channel realization here; the restricted-table penalty is the robust
	// effect.
	if !(ctp.Cost > lqi.Cost) {
		t.Errorf("cost ordering: CTP %.2f should exceed MultiHopLQI %.2f", ctp.Cost, lqi.Cost)
	}
	if !(ctp.Cost > unlimited.Cost) {
		t.Errorf("cost ordering: CTP %.2f should exceed CTP-unlimited %.2f", ctp.Cost, unlimited.Cost)
	}
	// The restricted table produces deeper trees than the unrestricted one.
	if !(ctp.MeanDepth > unlimited.MeanDepth) {
		t.Errorf("depth: CTP(10) %.2f should exceed CTP(unlimited) %.2f", ctp.MeanDepth, unlimited.MeanDepth)
	}
}

func TestFig6Orderings(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := RunFig6(1, testMinutes)
	get := func(p Protocol) *Result {
		res := r.byProto(p)
		if res == nil {
			t.Fatalf("missing %v run", p)
		}
		return res
	}
	ctp := get(ProtoCTP)
	fb := get(Proto4B)
	lqi := get(ProtoMultiHopLQI)
	unidir := get(ProtoCTPUnidir)
	white := get(ProtoCTPWhite)

	// Adding bits to CTP reduces cost (paper: ack bit -31%, white -15%,
	// all bits -45%).
	if !(fb.Cost < ctp.Cost) {
		t.Errorf("4B cost %.2f should be below CTP %.2f", fb.Cost, ctp.Cost)
	}
	if !(unidir.Cost < ctp.Cost) {
		t.Errorf("CTP+unidir cost %.2f should be below CTP %.2f", unidir.Cost, ctp.Cost)
	}
	// The white/compare bits alone are the weakest addition (paper: -15%);
	// at this compressed duration allow the transient some slack.
	if !(white.Cost < ctp.Cost*1.15) {
		t.Errorf("CTP+white cost %.2f should not exceed CTP %.2f by >15%%", white.Cost, ctp.Cost)
	}
	// 4B beats the MultiHopLQI baseline.
	if !(fb.Cost < lqi.Cost) {
		t.Errorf("4B cost %.2f should be below MultiHopLQI %.2f", fb.Cost, lqi.Cost)
	}
	// And everyone delivers; 4B near-perfectly (paper: 99.9%).
	if fb.DeliveryRatio < 0.98 {
		t.Errorf("4B delivery %.3f < 0.98", fb.DeliveryRatio)
	}
	if ctp.DeliveryRatio < 0.85 {
		t.Errorf("CTP delivery %.3f < 0.85", ctp.DeliveryRatio)
	}
}

func TestFig7PowerTrends(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := RunPowerSweep(1, testMinutes)
	// Cost and depth increase as power decreases, for both protocols.
	for i := 1; i < len(r.Powers); i++ {
		if !(r.FB[i].Cost > r.FB[i-1].Cost) {
			t.Errorf("4B cost not increasing: %.2f -> %.2f at %v dBm",
				r.FB[i-1].Cost, r.FB[i].Cost, r.Powers[i])
		}
		if !(r.LQI[i].Cost > r.LQI[i-1].Cost) {
			t.Errorf("LQI cost not increasing at %v dBm", r.Powers[i])
		}
		if !(r.FB[i].MeanDepth > r.FB[i-1].MeanDepth) {
			t.Errorf("4B depth not increasing at %v dBm", r.Powers[i])
		}
	}
	// 4B is cheaper at every power (paper: 11..29% improvement).
	for i, pw := range r.Powers {
		if !(r.FB[i].Cost < r.LQI[i].Cost) {
			t.Errorf("at %v dBm 4B cost %.2f !< MultiHopLQI %.2f", pw, r.FB[i].Cost, r.LQI[i].Cost)
		}
	}
}

func TestFig8DeliveryDistributions(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := RunPowerSweep(1, testMinutes)
	last := len(r.Powers) - 1 // -20 dBm
	fbWorst := minOf(r.FB[last].PerNodeDelivery)
	lqiWorst := minOf(r.LQI[last].PerNodeDelivery)
	// Paper Figure 8: 4B maintains high, tight distributions; MultiHopLQI
	// grows a long low tail as power falls. (The compressed duration here
	// includes the route-formation transient, so the bound is looser than
	// the paper-scale >= 0.97.)
	if fbWorst < 0.75 {
		t.Errorf("4B worst node at -20 dBm = %.3f, want >= 0.75", fbWorst)
	}
	if !(lqiWorst < fbWorst) {
		t.Errorf("MultiHopLQI worst node %.3f should be below 4B's %.3f", lqiWorst, fbWorst)
	}
	if r.FB[last].DeliveryRatio < 0.97 {
		t.Errorf("4B mean delivery at -20 dBm = %.3f", r.FB[last].DeliveryRatio)
	}
}

func minOf(v []float64) float64 {
	m := v[0]
	for _, x := range v[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func TestFig3Phenomenon(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := DefaultFig3Config(1)
	cfg.Duration = 90 * sim.Minute
	cfg.DegradeFrom = 30 * sim.Minute
	cfg.DegradeUntil = 60 * sim.Minute
	cfg.Window = 5 * sim.Minute
	res := RunFig3(cfg)
	if res.P < 0 || res.C < 0 {
		t.Fatal("no stable link selected")
	}
	// PRR collapses...
	if !(res.PRRDuring < res.PRRBefore-0.15) {
		t.Errorf("PRR did not collapse: %.3f -> %.3f", res.PRRBefore, res.PRRDuring)
	}
	// ...while the LQI of received packets stays high...
	if res.LQIDuring < 100 {
		t.Errorf("LQI during degradation = %.1f, want saturated (>= 100)", res.LQIDuring)
	}
	// ...and unacked transmissions ramp sharply.
	if !(res.UnackedRateDuring > 5*res.UnackedRateBefore+10) {
		t.Errorf("unacked ramp %.1f/h -> %.1f/h not sharp",
			res.UnackedRateBefore, res.UnackedRateDuring)
	}
}

func TestHeadlineDirections(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := RunHeadline(1, testMinutes)
	for i, name := range r.Testbeds {
		if !(r.FB[i].Cost < r.LQI[i].Cost) {
			t.Errorf("%s: 4B cost %.2f !< MultiHopLQI %.2f", name, r.FB[i].Cost, r.LQI[i].Cost)
		}
		if !(r.FB[i].DeliveryRatio > r.LQI[i].DeliveryRatio-0.001) {
			t.Errorf("%s: 4B delivery %.3f not above MultiHopLQI %.3f",
				name, r.FB[i].DeliveryRatio, r.LQI[i].DeliveryRatio)
		}
		if r.FB[i].DeliveryRatio < 0.98 {
			t.Errorf("%s: 4B delivery %.3f below 0.98", name, r.FB[i].DeliveryRatio)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() *Result {
		rc := DefaultRunConfig(Proto4B, topo.Mirage(3), 3)
		rc.Duration = 2 * sim.Minute
		return Run(rc)
	}
	a, b := run(), run()
	if a.Unique != b.Unique || a.DataTx != b.DataTx || a.Events != b.Events {
		t.Fatalf("same seed diverged: %+v vs %+v", a, b)
	}
}

func TestProtocolNames(t *testing.T) {
	names := map[Protocol]string{
		Proto4B:           "4B",
		ProtoCTP:          "CTP",
		ProtoCTPUnidir:    "CTP+unidir",
		ProtoCTPWhite:     "CTP+white",
		ProtoCTPUnlimited: "CTP-unlimited",
		ProtoMultiHopLQI:  "MultiHopLQI",
	}
	for p, want := range names {
		if p.String() != want {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), want)
		}
	}
	if !strings.HasPrefix(Protocol(99).String(), "Protocol(") {
		t.Error("unknown protocol formatting")
	}
}

func TestRenderTreePlacesRootAndDepths(t *testing.T) {
	tp := topo.Line(3, 10)
	out := RenderTree(tp, []int{-1, 0, 1}, 30, 3)
	if !strings.Contains(out, "R") {
		t.Fatal("root not rendered")
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Fatalf("depths not rendered:\n%s", out)
	}
}

func TestRenderTreeDetached(t *testing.T) {
	tp := topo.Line(3, 10)
	out := RenderTree(tp, []int{-1, 0, -1}, 30, 3)
	if !strings.Contains(out, ".") {
		t.Fatalf("detached node not rendered:\n%s", out)
	}
}

func TestDepthHistogram(t *testing.T) {
	h := DepthHistogram([]int{0, 1, 1, 2, -1}, 0)
	if !strings.Contains(h, "1:2") || !strings.Contains(h, "2:1") || !strings.Contains(h, "detached:1") {
		t.Fatalf("histogram = %q", h)
	}
}

func TestEnvConfigForTestbeds(t *testing.T) {
	mir := EnvConfigFor(topo.Mirage(1), 1, 0)
	tut := EnvConfigFor(topo.TutorNet(1), 1, 0)
	if !(tut.Phy.FadeSigmaDB > mir.Phy.FadeSigmaDB) {
		t.Error("TutorNet should fade harder than Mirage")
	}
	if !(tut.Phy.TxVarSigmaDB > mir.Phy.TxVarSigmaDB) {
		t.Error("TutorNet should be more asymmetric than Mirage")
	}
}

func TestEstConfigVariants(t *testing.T) {
	if estConfig(Proto4B).Features != core.FourBit() {
		t.Error("4B features wrong")
	}
	if estConfig(ProtoCTP).Features != core.BroadcastOnly() {
		t.Error("CTP features wrong")
	}
	if got := estConfig(ProtoCTPUnlimited).TableSize; got <= 100 {
		t.Errorf("unlimited table size = %d", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("estConfig(MultiHopLQI) should panic")
		}
	}()
	estConfig(ProtoMultiHopLQI)
}

// TestFig3RejectsDegenerateBadFraction pins the config-time validation:
// BadFraction at or beyond the (0,1) endpoints must fail immediately with
// the knob named, not mid-run inside the Gilbert–Elliott constructor.
func TestFig3RejectsDegenerateBadFraction(t *testing.T) {
	for _, f := range []float64{0, 1, -0.2, 1.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BadFraction=%g: RunFig3 did not panic", f)
				}
			}()
			cfg := DefaultFig3Config(1)
			cfg.BadFraction = f
			RunFig3(cfg)
		}()
	}
}
