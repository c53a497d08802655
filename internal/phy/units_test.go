package phy

import (
	"math"
	"math/rand"
	"testing"

	"fourbit/internal/sim"
)

// dbBoundInputs feeds check every place a table-plus-exponent bound on
// LinearToDB can slip: both sides of every mantissa-bucket edge, powers of
// two, subnormals, and 200k random inputs across the whole exponent range.
func dbBoundInputs(check func(x float64)) {
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
}

// trueDB is LinearToDB(x) for normal x, and for a subnormal its true dB
// value, taken from x scaled up by 2^64 into the normal range: math.Log on
// amd64 reads a subnormal x = f·2^-1022 as (1+f)·2^-1023, so LinearToDB
// there is up to ~154 dB above the truth. The bounds bracket the truth.
func trueDB(x float64) float64 {
	if x < 0x1p-1022 {
		return LinearToDB(x*0x1p64) - 64*dBPerOctave
	}
	return LinearToDB(x)
}

// TestDBLowerBound pins dbLowerBound as a certified lower bound on
// LinearToDB, at most 0.02 dB loose, over dbBoundInputs. A subnormal's
// bound also holds against amd64's LinearToDB, which reads above the
// truth.
func TestDBLowerBound(t *testing.T) {
	const maxGapDB = 0.02
	checked := 0
	dbBoundInputs(func(x float64) {
		checked++
		lb, got, exact := dbLowerBound(x), LinearToDB(x), trueDB(x)
		if !(lb <= got) || !(lb <= exact) || exact-lb > maxGapDB {
			t.Fatalf("x=%x: bound %v, LinearToDB %v, exact %v (gap %g)", x, lb, got, exact, exact-lb)
		}
	})
	for _, x := range []float64{0, -1, math.Inf(-1), math.Inf(1), math.NaN()} {
		if lb := dbLowerBound(x); !math.IsInf(lb, -1) {
			t.Errorf("dbLowerBound(%v) = %v, want -Inf", x, lb)
		}
	}
	t.Logf("%d inputs checked", checked)
}

// TestDBUpperBound is TestDBLowerBound's mirror for dbUpperBound: at or
// above LinearToDB and at most 0.02 dB above it. A subnormal's bound holds
// against its true dB value only, where amd64's LinearToDB reads higher.
func TestDBUpperBound(t *testing.T) {
	const maxGapDB = 0.02
	checked := 0
	dbBoundInputs(func(x float64) {
		checked++
		ub, exact := dbUpperBound(x), trueDB(x)
		if !(ub >= exact) || ub-exact > maxGapDB {
			t.Fatalf("x=%x: bound %v, exact %v (gap %g)", x, ub, exact, ub-exact)
		}
	})
	for _, c := range []struct{ x, want float64 }{
		{0, math.Inf(-1)}, {-1, math.Inf(-1)}, {math.Inf(-1), math.Inf(-1)},
		{math.Inf(1), math.Inf(1)}, {math.NaN(), math.Inf(1)},
	} {
		if ub := dbUpperBound(c.x); ub != c.want {
			t.Errorf("dbUpperBound(%v) = %v, want %v", c.x, ub, c.want)
		}
	}
	t.Logf("%d inputs checked", checked)
}

// TestLinearBounds pins linearBounds as a certified bracket on the computed
// DBToLinear, at most a factor 2^(1/256) wide plus its slack, at both
// sides of every table-step edge over ±8 octaves, at every whole octave
// of its domain, at the domain's ends, and at 200k random inputs across
// the domain. Outside the domain, and for NaN, the bracket is vacuous.
func TestLinearBounds(t *testing.T) {
	maxRatio := math.Exp2(1.0/256) * (1 + 3*linBoundSlack)
	checked := 0
	check := func(db float64) {
		t.Helper()
		checked++
		lo, hi := linearBounds(db)
		got := DBToLinear(db)
		if !(lo <= got && got <= hi) || hi/lo > maxRatio || lo <= 0 {
			t.Fatalf("db=%v: bracket [%v, %v] around DBToLinear %v (ratio %v)", db, lo, hi, got, hi/lo)
		}
	}
	const stepDB = dBPerOctave / 256 // one table step in dB
	maxDB := linBoundMaxY / ln10div10
	for n := -256 * 8; n <= 256*8; n++ {
		db := float64(n) * stepDB
		check(db)
		check(math.Nextafter(db, math.Inf(-1)))
		check(math.Nextafter(db, math.Inf(1)))
	}
	for n := -int(maxDB / dBPerOctave); n <= int(maxDB/dBPerOctave); n++ {
		check(float64(n) * dBPerOctave)
	}
	for _, db := range []float64{0, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, maxDB, -maxDB} {
		check(db)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		switch i % 2 {
		case 0:
			check((2*rng.Float64() - 1) * maxDB)
		default:
			check(rng.NormFloat64() * 10) // the noise excursions a run sees
		}
	}
	for _, db := range []float64{math.Nextafter(maxDB, math.Inf(1)) * 1.001, -maxDB * 1.001, 1e300, math.Inf(1), math.Inf(-1), math.NaN()} {
		if lo, hi := linearBounds(db); lo != 0 || !math.IsInf(hi, 1) {
			t.Errorf("linearBounds(%v) = [%v, %v], want the vacuous [0, +Inf]", db, lo, hi)
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
