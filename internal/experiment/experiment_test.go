package experiment

import (
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

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

// TestFig3EarlyDegradation starts the degradation inside the first ten
// minutes, so the parent-stability snapshot (ten minutes before selection)
// and the selection itself would fall before time 0 unclamped.
func TestFig3EarlyDegradation(t *testing.T) {
	cfg := DefaultFig3Config(1)
	cfg.Duration = 5 * sim.Minute
	cfg.DegradeFrom = 3 * sim.Minute
	cfg.DegradeUntil = 4 * sim.Minute
	cfg.Window = sim.Minute
	res := RunFig3(cfg)
	if res.P < 0 || res.C < 0 {
		t.Fatal("no link selected")
	}
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
