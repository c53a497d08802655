package lqirouter

import (
	"testing"

	"fourbit/internal/core"
)

// The router's per-hop cost is core.AdjustLQI; these tests pin the shape
// that MultiHopLQI's route selection relies on.

func TestAdjustLQIMonotoneDecreasing(t *testing.T) {
	prev := uint16(0)
	for lqi := 110; lqi >= 40; lqi-- {
		c := core.AdjustLQI(uint8(lqi))
		if c < prev {
			t.Fatalf("AdjustLQI(%d) = %d < AdjustLQI(%d) = %d; cost must grow as LQI falls",
				lqi, c, lqi+1, prev)
		}
		prev = c
	}
}

func TestAdjustLQIKnownValues(t *testing.T) {
	// The TinyOS formula: v = 80-(lqi-50); cost = ((v*v)>>3)*v >> 3.
	cases := []struct {
		lqi  uint8
		want uint16
	}{
		{110, 125}, // v=20: (400>>3)*20>>3 = 50*20>>3
		{100, 420}, // v=30: (900>>3)*30>>3 = 112*30>>3
		{80, 1950}, // v=50: (2500>>3)*50>>3 = 312*50>>3
	}
	for _, c := range cases {
		v := 80 - (int(c.lqi) - 50)
		if formula := uint16(((v * v) >> 3) * v >> 3); formula != c.want {
			t.Fatalf("reference point %d: formula gives %d, table says %d", c.lqi, formula, c.want)
		}
		if got := core.AdjustLQI(c.lqi); got != c.want {
			t.Errorf("AdjustLQI(%d) = %d, want %d", c.lqi, got, c.want)
		}
	}
}

func TestAdjustLQICubicGrowth(t *testing.T) {
	// One great hop must beat several mediocre ones: the cost of an LQI-80
	// link should exceed 4x the cost of an LQI-110 link.
	if core.AdjustLQI(80) < 4*core.AdjustLQI(110) {
		t.Fatalf("AdjustLQI(80)=%d not ≫ AdjustLQI(110)=%d", core.AdjustLQI(80), core.AdjustLQI(110))
	}
}

func TestAdjustLQIBounds(t *testing.T) {
	for lqi := 0; lqi <= 255; lqi++ {
		c := core.AdjustLQI(uint8(lqi))
		if c < 1 || c > 0xFFFE {
			t.Fatalf("AdjustLQI(%d) = %d out of [1, 0xFFFE]", lqi, c)
		}
	}
}
