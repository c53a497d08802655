package phy

import (
	"math"
	"testing"

	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// lineChannel builds the channel over n nodes on a line at the given
// spacing (meters).
func lineChannel(n int, spacing float64, p Params, seed uint64) *Channel {
	return PrecomputeGeo(topo.Line(n, spacing), p).NewChannel(sim.NewSeedSpace(seed))
}

// axisTopo places one node at each x coordinate (meters).
func axisTopo(xs ...float64) *topo.Topology {
	tp := &topo.Topology{Name: "axis"}
	for _, x := range xs {
		tp.Positions = append(tp.Positions, topo.Point{X: x})
	}
	return tp
}

func TestChannelGainDecreasesWithDistance(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB = 0
	p.TxVarSigmaDB = 0
	p.FadeSigmaDB = 0
	ch := lineChannel(5, 10, p, 1)
	g1 := ch.GainDB(0, 1, 0)
	g2 := ch.GainDB(0, 2, 0)
	g4 := ch.GainDB(0, 4, 0)
	if !(g1 > g2 && g2 > g4) {
		t.Fatalf("gain not decreasing with distance: %v %v %v", g1, g2, g4)
	}
	// Log-distance law: doubling distance costs 10·n·log10(2) ≈ 9.03 dB at n=3.
	if math.Abs((g1-g2)-10*p.PathLossExponent*math.Log10(2)) > 1e-9 {
		t.Errorf("doubling distance cost = %v dB, want %.2f", g1-g2, 10*p.PathLossExponent*math.Log10(2))
	}
}

func TestChannelShadowingIsSymmetricWithoutHardwareVariation(t *testing.T) {
	p := DefaultParams()
	p.TxVarSigmaDB = 0
	p.FadeSigmaDB = 0
	ch := lineChannel(6, 7, p, 2)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			if ch.StaticGainDB(i, j) != ch.StaticGainDB(j, i) {
				t.Fatalf("link %d<->%d asymmetric without hardware variation", i, j)
			}
		}
	}
}

func TestChannelHardwareVariationCreatesAsymmetry(t *testing.T) {
	p := DefaultParams()
	p.FadeSigmaDB = 0
	ch := lineChannel(10, 7, p, 3)
	asym := 0
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			if math.Abs(ch.StaticGainDB(i, j)-ch.StaticGainDB(j, i)) > 0.5 {
				asym++
			}
		}
	}
	if asym == 0 {
		t.Fatal("expected some asymmetric links with per-node tx variation")
	}
}

func TestChannelDeterministicAcrossBuilds(t *testing.T) {
	p := DefaultParams()
	a := lineChannel(8, 6, p, 42)
	b := lineChannel(8, 6, p, 42)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if a.StaticGainDB(i, j) != b.StaticGainDB(i, j) {
				t.Fatalf("same seed produced different gains at (%d,%d)", i, j)
			}
		}
	}
	if a.NoiseDBm(3, sim.Second) != b.NoiseDBm(3, sim.Second) {
		t.Fatal("same seed produced different noise")
	}
}

func TestChannelExtraLossApplied(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB = 0, 0, 0
	base := lineChannel(3, 10, p, 4)
	// A 15 dB slab between node 2 and the others, with no vertical offset:
	// distances stay those of the line.
	tp := topo.Line(3, 10)
	tp.Positions[2].Floor = 1
	tp.FloorLossDB = 15
	walled := PrecomputeGeo(tp, p).NewChannel(sim.NewSeedSpace(4))
	diff := base.StaticGainDB(0, 2) - walled.StaticGainDB(0, 2)
	if math.Abs(diff-15) > 1e-9 {
		t.Fatalf("extra loss not applied: diff = %v, want 15", diff)
	}
}

func TestFadingVariesOverTimeButStaysZeroMean(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB = 0, 0
	ch := lineChannel(2, 10, p, 5)
	static := ch.StaticGainDB(0, 1)
	var sum, sumsq float64
	n := 3000
	for i := 0; i < n; i++ {
		g := ch.GainDB(0, 1, sim.Time(i)*sim.Minute) - static
		sum += g
		sumsq += g * g
	}
	mean := sum / float64(n)
	std := math.Sqrt(sumsq/float64(n) - mean*mean)
	if math.Abs(mean) > 0.35 {
		t.Errorf("fading mean = %v dB, want ~0", mean)
	}
	if std < p.FadeSigmaDB*0.7 || std > p.FadeSigmaDB*1.3 {
		t.Errorf("fading std = %v dB, want ~%v", std, p.FadeSigmaDB)
	}
}

func TestFadingSymmetricAcrossDirections(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB = 0, 0
	ch := lineChannel(2, 10, p, 6)
	// Fading is a path property: both directions must see the same process.
	for i := 1; i <= 20; i++ {
		at := sim.Time(i) * sim.Second
		f01 := ch.GainDB(0, 1, at) - ch.StaticGainDB(0, 1)
		f10 := ch.GainDB(1, 0, at) - ch.StaticGainDB(1, 0)
		if math.Abs(f01-f10) > 1e-12 {
			t.Fatalf("fading differs across directions at %v: %v vs %v", at, f01, f10)
		}
	}
}

func TestLinkModifierImposedAndCleared(t *testing.T) {
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB = 0, 0, 0
	ch := lineChannel(2, 10, p, 7)
	base := ch.GainDB(0, 1, 0)
	ch.SetModifier(0, 1, constantLoss(20))
	if got := ch.GainDB(0, 1, sim.Second); math.Abs(base-20-got) > 1e-9 {
		t.Fatalf("modifier not applied: %v, want %v", got, base-20)
	}
	if got := ch.GainDB(1, 0, sim.Second); got != base {
		t.Fatalf("reverse direction affected: %v, want %v", got, base)
	}
	ch.SetModifier(0, 1, nil)
	if got := ch.GainDB(0, 1, 2*sim.Second); got != base {
		t.Fatalf("modifier not cleared: %v", got)
	}
}

type constantLoss float64

func (c constantLoss) ExtraLossDB(sim.Time) float64 { return float64(c) }

func TestNoiseDriftRevertsToMean(t *testing.T) {
	p := DefaultParams()
	ch := lineChannel(2, 10, p, 8)
	var sum float64
	n := 2000
	for i := 0; i < n; i++ {
		sum += ch.NoiseDBm(0, sim.Time(i)*sim.Minute)
	}
	mean := sum / float64(n)
	want := p.NoiseFloorDBm // plus the node's fixed noise figure offset, sigma 0.9
	if math.Abs(mean-want) > 3 {
		t.Errorf("long-run noise mean = %v, want near %v", mean, want)
	}
}

func TestGilbertElliottInactiveOutsideWindow(t *testing.T) {
	ge := NewGilbertElliott(40, 10*sim.Second, 5*sim.Second, sim.NewRand(1)).
		Window(sim.Hour, 2*sim.Hour)
	for _, at := range []sim.Time{0, 30 * sim.Minute, 2*sim.Hour + 1} {
		if ge.ExtraLossDB(at) != 0 {
			t.Fatalf("G-E active outside window at %v", at)
		}
	}
}

func TestGilbertElliottDutyCycleMatchesStationary(t *testing.T) {
	mg, mb := 10*sim.Second, 5*sim.Second
	ge := NewGilbertElliott(40, mg, mb, sim.NewRand(2))
	bad := 0
	n := 30000
	for i := 0; i < n; i++ {
		if ge.ExtraLossDB(sim.Time(i)*sim.Second) > 0 {
			bad++
		}
	}
	got := float64(bad) / float64(n)
	want := ge.StationaryBadFraction() // 1/3 for these sojourns
	if math.Abs(got-want) > 0.03 {
		t.Errorf("bad fraction = %.3f, want %.3f", got, want)
	}
}

func TestGilbertElliottBurstsAreCorrelated(t *testing.T) {
	// Sampling every 100 ms with 5 s sojourns must produce runs, not i.i.d.
	// flips: count state changes between consecutive samples.
	ge := NewGilbertElliott(40, 10*sim.Second, 5*sim.Second, sim.NewRand(3))
	changes, prev := 0, ge.ExtraLossDB(0) > 0
	n := 10000
	for i := 1; i < n; i++ {
		cur := ge.ExtraLossDB(sim.Time(i)*100*sim.Millisecond) > 0
		if cur != prev {
			changes++
		}
		prev = cur
	}
	// i.i.d. sampling at the stationary distribution would flip ~44% of the
	// time; a CTMC sampled at 100 ms with multi-second sojourns flips ~1-3%.
	if rate := float64(changes) / float64(n); rate > 0.1 {
		t.Errorf("state flip rate %.3f, want « 0.44 (bursty)", rate)
	}
}

func TestLQISaturatesAtHighSNR(t *testing.T) {
	lp := DefaultLQIParams()
	rng := sim.NewRand(4)
	for i := 0; i < 200; i++ {
		lqi, white := lp.Synthesize(15, rng)
		if lqi < 105 {
			t.Fatalf("LQI at 15 dB = %d, want saturated near %v", lqi, lp.Max)
		}
		if !white {
			t.Fatal("white bit clear at 15 dB SNR")
		}
	}
}

func TestLQILowAtLowSNR(t *testing.T) {
	lp := DefaultLQIParams()
	rng := sim.NewRand(5)
	for i := 0; i < 200; i++ {
		lqi, white := lp.Synthesize(-2, rng)
		if float64(lqi) > lp.Base {
			t.Fatalf("LQI at -2 dB = %d, want below the 0 dB baseline %.0f", lqi, lp.Base)
		}
		if white {
			t.Fatal("white bit set at -2 dB SNR")
		}
	}
}

func TestLQIMeanTracksSNR(t *testing.T) {
	lp := DefaultLQIParams()
	rng := sim.NewRand(6)
	mean := func(snr float64) float64 {
		var s float64
		for i := 0; i < 500; i++ {
			l, _ := lp.Synthesize(snr, rng)
			s += float64(l)
		}
		return s / 500
	}
	if !(mean(0) < mean(4) && mean(4) < mean(8)) {
		t.Error("LQI mean not increasing with SNR in the grey region")
	}
}
