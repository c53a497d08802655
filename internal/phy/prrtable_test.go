package phy

import (
	"math"
	"testing"

	"fourbit/internal/sim"
)

// Frame lengths spanning every bucket the simulator uses in practice: ack
// frames, beacons, data frames, the 802.15.4 maximum, and the extremes of
// the table-served range.
var prrTestFrameLengths = []int{1, 5, 12, 36, 40, 64, 127, 1024, prrMaxTableBytes}

// TestPRRTableLookupAccuracy pins the interpolated Lookup within 1e-3 of
// the analytic PRR across −20..+20 dB for every frame-length bucket — the
// documented quantization error budget (the measured interpolation error
// is ≤ ~2.5e-4; 1e-3 leaves slack without hiding regressions like a
// coarser grid or a broken index computation).
func TestPRRTableLookupAccuracy(t *testing.T) {
	for _, fb := range prrTestFrameLengths {
		tab := PRRTableFor(fb)
		if tab == nil {
			t.Fatalf("PRRTableFor(%d) = nil, want table", fb)
		}
		worst := 0.0
		for sinr := -20.0; sinr <= 20.0; sinr += 0.003 {
			got := tab.Lookup(sinr)
			want := PRR(sinr, fb)
			if d := math.Abs(got - want); d > worst {
				worst = d
			}
		}
		if worst > 1e-3 {
			t.Errorf("frameBytes=%d: max |Lookup-PRR| = %g, want <= 1e-3", fb, worst)
		}
	}
}

// TestPRRTableLookupEdges checks the clamped ends of the interpolation
// domain and basic sanity of the returned curve.
func TestPRRTableLookupEdges(t *testing.T) {
	tab := PRRTableFor(40)
	if got := tab.Lookup(prrTableMaxDB + 50); got != 1 {
		t.Errorf("Lookup above domain = %v, want 1", got)
	}
	if got := tab.Lookup(prrTableMinDB - 50); got != tab.Lookup(prrTableMinDB) {
		t.Errorf("Lookup below domain = %v, want clamp to %v", got, tab.Lookup(prrTableMinDB))
	}
	for sinr := -40.0; sinr < 10; sinr += 0.37 {
		if p := tab.Lookup(sinr); p < 0 || p > 1 {
			t.Fatalf("Lookup(%v) = %v out of [0,1]", sinr, p)
		}
	}
}

// TestPRRTableDecideBitExact is the certified-exactness property the whole
// reception fast path rests on: Decide must equal Bernoulli(PRR(sinr, n))
// in outcome AND consume the random stream identically, for any SINR. Two
// identically-seeded streams are stepped side by side — one through the
// table, one through the analytic draw — over a dense random sweep that
// concentrates on the waterfall and the table's domain edges; any
// divergence in outcome or in stream position fails.
func TestPRRTableDecideBitExact(t *testing.T) {
	// 135 is the shortest frame whose PRR underflows to exactly 0.0 in
	// the table domain (0.5^(8·135) is below the smallest subnormal), and
	// 1024 exercises the same deep in the long-frame regime: Bernoulli(0)
	// consumes no draw, so zero cells must route through the analytic
	// path — the regression the zeroTo certification exists for.
	for _, fb := range []int{5, 36, 40, 127, 135, 1024} {
		tab := PRRTableFor(fb)
		rngTab := sim.NewRand(42)
		rngRef := sim.NewRand(42)
		sweep := sim.NewRand(7)
		for i := 0; i < 20000; i++ {
			var sinr float64
			switch i % 4 {
			case 0: // full table domain and beyond
				sinr = -45 + 60*sweep.Float64()
			case 1: // waterfall, where bounds gaps are widest
				sinr = -6 + 8*sweep.Float64()
			case 2: // near the PRR==1 threshold neighborhood
				sinr = 1 + 6*sweep.Float64()
			case 3: // exact grid points and domain edges
				sinr = prrTableMinDB + float64(i%prrTableCells)/prrTableStepsPerDB
			}
			got := tab.Decide(sinr, rngTab)
			want := rngRef.Bernoulli(PRR(sinr, fb))
			if got != want {
				t.Fatalf("frameBytes=%d sinr=%v: Decide=%v, Bernoulli(PRR)=%v", fb, sinr, got, want)
			}
			// Streams must stay in lockstep; a silent extra or missing
			// draw would surface here as a value mismatch.
			if a, b := rngTab.Float64(), rngRef.Float64(); a != b {
				t.Fatalf("frameBytes=%d sinr=%v: random streams diverged (%v vs %v)", fb, sinr, a, b)
			}
		}
	}
}

// TestPRRTableDecideEveryCell walks every cell of every tested length at
// its lower grid edge and at its midpoint, so each boundary between the
// certain-one, certain-sub-one and analytic classes is crossed by
// construction rather than by random sampling. Decide must match the
// analytic draw with the two streams in lockstep, and the certified upper
// bound must cover the analytic PRR at every point.
func TestPRRTableDecideEveryCell(t *testing.T) {
	lengths := append(append([]int(nil), prrTestFrameLengths...), 135)
	for _, fb := range lengths {
		tab := PRRTableFor(fb)
		rngTab := sim.NewRand(42)
		rngRef := sim.NewRand(42)
		for i := 0; i < prrTableCells; i++ {
			for _, frac := range []float64{0, 0.5} {
				sinr := prrTableMinDB + (float64(i)+frac)/prrTableStepsPerDB
				prr := PRR(sinr, fb)
				if got, want := tab.Decide(sinr, rngTab), rngRef.Bernoulli(prr); got != want {
					t.Fatalf("frameBytes=%d cell=%d sinr=%v: Decide=%v, Bernoulli(PRR)=%v", fb, i, sinr, got, want)
				}
				if a, b := rngTab.Float64(), rngRef.Float64(); a != b {
					t.Fatalf("frameBytes=%d cell=%d sinr=%v: random streams diverged", fb, i, sinr)
				}
				if up := tab.CertifiedUpperPRR(sinr); up < prr {
					t.Fatalf("frameBytes=%d cell=%d sinr=%v: CertifiedUpperPRR=%v < PRR=%v", fb, i, sinr, up, prr)
				}
			}
		}
	}
}

// TestPRRTableForRange pins the served frame-length range: out-of-range
// lengths get nil (callers fall back to the analytic path), in-range
// lengths get a table that remembers its length, and repeated calls share
// one table.
func TestPRRTableForRange(t *testing.T) {
	for _, fb := range []int{0, -1, prrMaxTableBytes + 1} {
		if tab := PRRTableFor(fb); tab != nil {
			t.Errorf("PRRTableFor(%d) = %v, want nil", fb, tab)
		}
	}
	tab := PRRTableFor(36)
	if tab.FrameBytes() != 36 {
		t.Errorf("FrameBytes() = %d, want 36", tab.FrameBytes())
	}
	if again := PRRTableFor(36); again != tab {
		t.Errorf("PRRTableFor(36) built a second table; want the shared one")
	}
}

// TestNewGilbertElliottRejectsZeroMeans is the regression test for the
// latent division-by-zero: a zero sojourn mean used to become an infinite
// transition rate and feed NaN probabilities into the chain's Bernoulli
// draws. Construction must panic instead.
func TestNewGilbertElliottRejectsZeroMeans(t *testing.T) {
	cases := []struct {
		name      string
		good, bad sim.Time
	}{
		{"zero good", 0, sim.Second},
		{"zero bad", sim.Second, 0},
		{"both zero", 0, 0},
		{"negative good", -sim.Second, sim.Second},
		{"negative bad", sim.Second, -sim.Second},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGilbertElliott(%v, %v) did not panic", tc.good, tc.bad)
				}
			}()
			NewGilbertElliott(40, tc.good, tc.bad, sim.NewRand(1))
		})
	}
}
