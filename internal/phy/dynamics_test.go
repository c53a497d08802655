package phy

import (
	"math"
	"testing"

	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// Scenario dynamics rest on two phy primitives: a radio that can be powered
// off mid-run (node death/reboot) and scripted per-receiver noise excursions
// (mid-run interference onset). These tests pin their contracts.

func TestDownRadioIsDeaf(t *testing.T) {
	clock, m := testbed(t, 2, 5, 1)
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	m.Radio(1).SetDown(true)
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if delivered != 0 {
		t.Fatalf("down radio received %d frames", delivered)
	}
	if !m.Radio(1).Down() {
		t.Fatal("Down() = false after SetDown(true)")
	}
}

func TestDownRadioIsMuteAndRecovers(t *testing.T) {
	clock, m := testbed(t, 2, 5, 1)
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	// The sender dies for the first half of the run, then reboots.
	m.Radio(0).SetDown(true)
	clock.At(100*sim.Millisecond, func() { m.Radio(0).SetDown(false) })
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d frames, want exactly the 10 sent after reboot", delivered)
	}
}

func TestDownRadioReportsBusyChannel(t *testing.T) {
	_, m := testbed(t, 2, 5, 1)
	if !m.Radio(0).ChannelClear() {
		t.Fatal("idle powered radio should see a clear channel")
	}
	m.Radio(0).SetDown(true)
	if m.Radio(0).ChannelClear() {
		t.Fatal("down radio must report a busy channel (CSMA never transmits)")
	}
	m.Radio(0).SetDown(false)
	if !m.Radio(0).ChannelClear() {
		t.Fatal("channel should be clear again after power-up")
	}
}

// constLoss is a trivial LinkModifier for noise-injection tests.
type constLoss float64

func (c constLoss) ExtraLossDB(sim.Time) float64 { return float64(c) }

func TestNoiseModifierRaisesFloor(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseFigSigmaDB = 0
	p.NoiseBurstAmpDB = 0
	ch := lineChannel(2, 5, p, 1)

	base := ch.NoiseDBm(1, 0)
	ch.AddNoiseModifier(1, constLoss(20))
	got := ch.NoiseDBm(1, 0)
	if diff := got - base; diff < 19.99 || diff > 20.01 {
		t.Fatalf("noise modifier added %.2f dB, want 20", diff)
	}
	// The linear-domain mirror must agree.
	wantMW := DBmToMilliwatts(got)
	if mw := ch.NoiseMW(1, 0); mw < wantMW*0.999 || mw > wantMW*1.001 {
		t.Fatalf("NoiseMW %.3g disagrees with NoiseDBm %.3g", mw, wantMW)
	}
	// Modifiers accumulate, and other receivers are untouched.
	ch.AddNoiseModifier(1, constLoss(5))
	if diff := ch.NoiseDBm(1, 0) - base; diff < 24.99 || diff > 25.01 {
		t.Fatalf("stacked modifiers added %.2f dB, want 25", diff)
	}
	if d := ch.NoiseDBm(0, 0) - p.NoiseFloorDBm; d != 0 {
		t.Fatalf("receiver 0 floor moved by %.2f dB; modifiers must be per-receiver", d)
	}
}

func TestNoiseModifierDrownsReception(t *testing.T) {
	clock := sim.New(4)
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	ch := lineChannel(2, 20, p, 4)
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), sim.NewSeedSpace(4))

	// A windowed 60 dB noise burst at the receiver from 100 ms on.
	ge := NewGilbertElliott(60, sim.Millisecond, sim.Hour, sim.NewRand(9)).
		Window(100*sim.Millisecond, sim.Hour)
	ch.AddNoiseModifier(1, ge)

	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if delivered != 10 {
		t.Fatalf("delivered %d frames, want the 10 before interference onset", delivered)
	}
}

// TestSparseCulledLinkImmuneToDynamics pins the spatial index's contract
// under scripted dynamics: a link the audibility culling removed has no
// state, so no installed modifier — not even a (physically impossible)
// negative "loss" that would amplify the link, nor a noise excursion
// lowering the receiver's floor — can resurrect it. The link was certified
// inaudible at its best-case power; dynamics operate strictly within that
// certificate.
func TestSparseCulledLinkImmuneToDynamics(t *testing.T) {
	clock := sim.New(6)
	// Two tight clusters 3 km apart: intra-cluster links are strong by a
	// huge margin, inter-cluster links are inaudible by an equally huge
	// one — no seed can flip either.
	tp := &topo.Topology{Name: "twoclusters"}
	for i := 0; i < 4; i++ {
		tp.Positions = append(tp.Positions, topo.Point{X: float64(i) * 5})
	}
	for i := 0; i < 4; i++ {
		tp.Positions = append(tp.Positions, topo.Point{X: 3000 + float64(i)*5})
	}
	p := sparseTestParams()
	seeds := sim.NewSeedSpace(6)
	ch := PrecomputeGeo(tp, p).NewChannel(seeds)
	if ch.slotOf(0, 7) >= 0 {
		t.Fatal("link (0,7) at 3 km unexpectedly audible")
	}
	if ch.slotOf(0, 1) < 0 {
		t.Fatal("adjacent link (0,1) unexpectedly culled")
	}
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), seeds)

	// Try everything: a gain-side "modifier" that would add 100 dB to the
	// culled link, and a noise excursion dropping the far receiver's floor.
	ch.SetModifierBoth(0, 7, constLoss(-100))
	ch.AddNoiseModifier(7, constLoss(-40))
	if g := ch.GainDB(0, 7, sim.Second); !math.IsInf(g, -1) {
		t.Fatalf("culled link gain %v after modifier, want -Inf", g)
	}
	if g := ch.GainLin(0, 7, sim.Second); g != 0 {
		t.Fatalf("culled link linear gain %v after modifier, want 0", g)
	}

	far, near := 0, 0
	m.Radio(7).OnReceive(func([]byte, RxInfo) { far++ })
	m.Radio(1).OnReceive(func([]byte, RxInfo) { near++ })
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if far != 0 {
		t.Fatalf("culled receiver got %d frames after scripted dynamics", far)
	}
	if near == 0 {
		t.Fatal("audible neighbor received nothing; medium degenerate")
	}
	// Clearing the modifier keeps the bookkeeping balanced (the gain fast
	// path may skip the modifier layer again).
	ch.SetModifierBoth(0, 7, nil)
	if ch.linkModCount != 0 {
		t.Fatalf("linkModCount %d after clearing all modifiers", ch.linkModCount)
	}
}
