package phy

import (
	"math"
	"math/rand"
	"testing"

	"fourbit/internal/sim"
)

// TestDBLowerBound pins dbLowerBound as a certified lower bound on
// LinearToDB, at most 0.02 dB loose, at every place a table-plus-exponent
// bound can slip: both sides of every mantissa-bucket edge, powers of two,
// subnormals, and random inputs across the whole exponent range.
//
// The gap of a subnormal is measured against its true dB value, taken from
// the input scaled up by 2^64 into the normal range: math.Log on amd64
// reads a subnormal x = f·2^-1022 as (1+f)·2^-1023, so LinearToDB there is
// up to ~154 dB above the truth (and the bound, below both, stays valid).
func TestDBLowerBound(t *testing.T) {
	const maxGapDB = 0.02
	checked := 0
	check := func(x float64) {
		t.Helper()
		checked++
		lb, got := dbLowerBound(x), LinearToDB(x)
		exact := got
		if x < 0x1p-1022 {
			exact = LinearToDB(x*0x1p64) - 64*dBPerOctave
		}
		if !(lb <= got) || !(lb <= exact) || exact-lb > maxGapDB {
			t.Fatalf("x=%x: bound %v, LinearToDB %v, exact %v (gap %g)", x, lb, got, exact, exact-lb)
		}
	}
	for _, e := range []int{-1022, -300, -40, -1, 0, 1, 7, 40, 300, 1023} {
		for k := 0; k < 256; k++ {
			x := math.Ldexp(1+float64(k)/256, e)
			check(x)
			check(math.Nextafter(x, 0))
			check(math.Nextafter(x, math.Inf(1)))
		}
		check(math.Nextafter(math.Ldexp(2, e), 0)) // the last bucket's top
	}
	for e := -1074; e <= 1023; e++ {
		check(math.Ldexp(1, e))
	}
	check(math.MaxFloat64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		check(math.Float64frombits(1 + uint64(rng.Int63n(1<<52-1)))) // subnormals
	}
	for i := 0; i < 200000; i++ {
		x := math.Float64frombits(uint64(rng.Int63()) & (1<<63 - 1))
		if x > 0 && x <= math.MaxFloat64 {
			check(x)
		}
	}
	for _, x := range []float64{0, -1, math.Inf(1), math.NaN()} {
		if lb := dbLowerBound(x); !math.IsInf(lb, -1) {
			t.Errorf("dbLowerBound(%v) = %v, want -Inf", x, lb)
		}
	}
	t.Logf("%d inputs checked", checked)
}

// TestPRRTableCertainDB pins the certain-delivery threshold the medium's
// draws-only path compares against: at and above certainDB, Decide must
// deliver without consuming a draw, for every frame length the table
// serves at the domain's ends and in between.
func TestPRRTableCertainDB(t *testing.T) {
	for _, n := range []int{1, 11, 30, 41, 127, 1000, prrMaxTableBytes} {
		tb := PRRTableFor(n)
		if tb.certainDB > prrTableMaxDB || tb.certainDB < prrTableMinDB {
			t.Fatalf("%d bytes: certainDB %v outside the table domain", n, tb.certainDB)
		}
		rng := sim.NewCountedRand(1)
		for x, i := tb.certainDB, 0; i < 64; x, i = math.Nextafter(x, math.Inf(1)), i+1 {
			if !tb.Decide(x, rng) {
				t.Fatalf("%d bytes: Decide(%v) = false at or above certainDB %v", n, x, tb.certainDB)
			}
		}
		for _, x := range []float64{tb.certainDB + 1.0/prrTableStepsPerDB, prrTableMaxDB, 40} {
			if !tb.Decide(x, rng) {
				t.Fatalf("%d bytes: Decide(%v) = false above certainDB %v", n, x, tb.certainDB)
			}
		}
		if _, draws, _ := rng.SnapshotState(); draws != 0 {
			t.Fatalf("%d bytes: %d draws at or above certainDB %v, want none", n, draws, tb.certainDB)
		}
	}
}
