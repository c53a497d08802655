package phy

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"fourbit/internal/sim"
)

// overheardCase is one overheard reception as resolve hands it to
// overhear: the locked-on signal power, the noise sample's two factors, the
// peak interference, the jitter draw, the frame length, and the seed of the
// receiver's stream.
type overheardCase struct {
	powerMW, staticMW, excDB, maxInterfMW, jitter float64
	frameBytes                                    int
	seed                                          uint64
}

func (c overheardCase) String() string {
	return fmt.Sprintf("power=%x static=%x exc=%x maxInterf=%x jitter=%x bytes=%d seed=%d",
		c.powerMW, c.staticMW, c.excDB, c.maxInterfMW, c.jitter, c.frameBytes, c.seed)
}

func (c overheardCase) interf() float64 {
	return float64(DefaultRadioParams().InterferenceFactor * c.maxInterfMW)
}

// outcome names the MediumStats counter a reception lands in.
func outcome(ok, collision bool) string {
	switch {
	case ok:
		return "Delivered"
	case collision:
		return "DroppedCollision"
	}
	return "DroppedBER"
}

// checkOverheard resolves c through overhear and through the exact path —
// the exact noise power, LinearToDB, Decide and the exact collision test,
// as resolve takes them for an addressee — from two copies of one stream,
// and fails unless both land in the same counter and leave the stream at
// the same position. It returns the counter.
func checkOverheard(t testing.TB, c overheardCase) string {
	t.Helper()
	tb := PRRTableFor(c.frameBytes)
	fast, exact := sim.NewCountedRand(c.seed), sim.NewCountedRand(c.seed)
	got := outcome(overhear(&reception{powerMW: c.powerMW, maxInterfMW: c.maxInterfMW},
		c.staticMW, c.excDB, c.interf(), c.jitter, tb, c.frameBytes, fast))

	noise := noiseMW(c.staticMW, c.excDB)
	sinrDB := LinearToDB(c.powerMW/(noise+c.interf())) + c.jitter
	ok := prrDecide(sinrDB, c.frameBytes, tb, exact)
	want := outcome(ok, !ok && c.maxInterfMW > noise*0.1)

	_, fastDraws, _ := fast.SnapshotState()
	_, exactDraws, _ := exact.SnapshotState()
	if got != want || fastDraws != exactDraws || fast.Int63() != exact.Int63() {
		t.Fatalf("%v: overhear counts %s after %d draws, the exact path %s after %d (SINR %v dB)",
			c, got, fastDraws, want, exactDraws, sinrDB)
	}
	return got
}

// overheardBranch names the path overhear takes on c when its reception
// draw, if it takes one, is u. It mirrors overhear's bounds, so that
// TestOverhearBranches can tell each branch was reached.
func overheardBranch(c overheardCase, u float64) string {
	tb := PRRTableFor(c.frameBytes)
	nLo, nHi := c.staticMW, c.staticMW
	if c.excDB != 0 {
		lo, hi := linearBounds(c.excDB)
		nLo, nHi = float64(c.staticMW*lo), float64(c.staticMW*hi)
	}
	if tb == nil {
		return "class"
	}
	dbLo := float64(dbLowerBound(c.powerMW/(nHi+c.interf())) + c.jitter)
	dbHi := float64(dbUpperBound(c.powerMW/(nLo+c.interf())) + c.jitter)
	if dbLo >= tb.certainDB {
		return "certain"
	}
	iLo, iHi, in := tb.subCells(dbLo, dbHi)
	if !in {
		return "class"
	}
	pLo, _ := tb.cellBounds(iLo)
	_, pHi := tb.cellBounds(iHi)
	switch {
	case u < pLo:
		return "settled/deliver"
	case u < pHi:
		return "gap"
	case c.maxInterfMW == 0:
		return "settled/drop/no-interference"
	case c.maxInterfMW > float64(nHi*0.1):
		return "settled/drop/collision"
	case c.maxInterfMW <= float64(nLo*0.1):
		return "settled/drop/ber"
	}
	return "settled/drop/ambiguous"
}

// overheardGen draws overheard receptions: a static floor around the
// default -98 dBm, a noise excursion from exc, peak interference at ratio
// times the exact noise, and the signal power that puts the pre-jitter
// SINR uniformly in [sinrLo, sinrHi] dB.
func overheardGen(sinrLo, sinrHi, jitterSigma float64, exc, ratio func(*rand.Rand) float64, frameBytes int) func(*rand.Rand) overheardCase {
	return func(r *rand.Rand) overheardCase {
		c := overheardCase{
			staticMW:   DBmToMilliwatts(-98 + r.NormFloat64()),
			excDB:      exc(r),
			jitter:     r.NormFloat64() * jitterSigma,
			frameBytes: frameBytes,
			seed:       r.Uint64(),
		}
		noise := noiseMW(c.staticMW, c.excDB)
		c.maxInterfMW = noise * ratio(r)
		sinr := sinrLo + (sinrHi-sinrLo)*r.Float64()
		c.powerMW = DBToLinear(sinr) * (noise + c.interf())
		return c
	}
}

// TestOverhearBranches drives overhear through each of its branches — the
// certain delivery, the settled draw, the gap and class fallbacks, and
// every way a drop is classified — and requires each case to match the
// exact path in counter and stream position (checkOverheard). Each row
// must reach its branch at least 20 times.
func TestOverhearBranches(t *testing.T) {
	const frameBytes = 41 // a CTP data frame
	tb := PRRTableFor(frameBytes)
	cellDB := func(i int) float64 { return prrTableMinDB + float64(i)/prrTableStepsPerDB }
	subLo, subHi := cellDB(tb.subLo)+0.1, cellDB(tb.subHi)-0.1                               // the waterfall
	half := cellDB(sort.Search(prrTableCells, func(i int) bool { return tb.val[i] >= 0.5 })) // its steepest part
	drift := func(r *rand.Rand) float64 { return r.NormFloat64() * 3 }
	burst := func(r *rand.Rand) float64 { return 10 + r.NormFloat64() }
	none := func(*rand.Rand) float64 { return 0 }
	within := func(lo, hi float64) func(*rand.Rand) float64 {
		return func(r *rand.Rand) float64 { return lo + (hi-lo)*r.Float64() }
	}
	rows := []struct {
		branch string
		gen    func(*rand.Rand) overheardCase
	}{
		{"certain", overheardGen(10, 30, 2.5, drift, within(0, 0.5), frameBytes)},
		{"certain", overheardGen(10, 30, 2.5, none, none, frameBytes)},
		{"settled/deliver", overheardGen(subLo, subHi, 0, drift, within(0, 2), frameBytes)},
		{"settled/deliver", overheardGen(subLo, subHi, 0, none, none, frameBytes)},
		{"gap", overheardGen(half-0.5, half+0.5, 0, burst, within(0, 2), frameBytes)},
		{"settled/drop/no-interference", overheardGen(subLo, subHi, 0, drift, none, frameBytes)},
		{"settled/drop/collision", overheardGen(subLo, subHi, 0, drift, within(0.2, 3), frameBytes)},
		{"settled/drop/ber", overheardGen(subLo, subHi, 0, drift, within(0.001, 0.09), frameBytes)},
		{"settled/drop/ambiguous", overheardGen(subLo, subHi, 0, drift, within(0.0998, 0.1002), frameBytes)},
		{"class", overheardGen(-60, -42, 2.5, drift, within(0, 2), frameBytes)},                       // below the table
		{"class", overheardGen(tb.certainDB-0.02, tb.certainDB+0.01, 0, drift, none, frameBytes)},     // straddles certainDB
		{"class", overheardGen(cellDB(tb.subHi), tb.certainDB, 0, drift, within(0, 0.2), frameBytes)}, // near the ==1 threshold
		{"class", overheardGen(-10, 10, 2.5, within(-2800, -2650), within(0, 0.2), frameBytes)},       // vacuous noise bracket
		{"class", overheardGen(-10, 10, 2.5, within(2650, 2800), within(0, 0.2), frameBytes)},         // vacuous noise bracket
		{"class", overheardGen(-10, 10, 2.5, drift, within(0, 0.2), prrMaxTableBytes+1)},              // no table
	}
	for i, row := range rows {
		t.Run(fmt.Sprintf("%d_%s", i, row.branch), func(t *testing.T) {
			r := rand.New(rand.NewSource(int64(i + 1)))
			hits, counters := 0, map[string]int{}
			for tries := 0; tries < 20000 && hits < 20; tries++ {
				c := row.gen(r)
				counters[checkOverheard(t, c)]++
				if overheardBranch(c, sim.NewCountedRand(c.seed).Float64()) == row.branch {
					hits++
				}
			}
			if hits < 20 {
				t.Fatalf("branch %s reached %d times, want 20 (counters %v)", row.branch, hits, counters)
			}
			t.Logf("counters %v", counters)
		})
	}
}

// FuzzOverheardResolve resolves arbitrary overheard receptions through
// overhear and through the exact path (checkOverheard): signal power,
// static noise floor and peak interference in dBm (-Inf interference is
// none), the noise excursion and jitter in dB, the frame length (128
// stands for a length no table serves) and the stream seed.
func FuzzOverheardResolve(f *testing.F) {
	f.Add(-60.0, -98.0, 0.0, math.Inf(-1), 0.0, uint8(41), uint64(1))  // certain delivery
	f.Add(-95.0, -98.0, 0.8, -110.0, 1.5, uint8(41), uint64(2))        // the waterfall
	f.Add(-88.0, -98.0, 10.0, -96.0, -2.0, uint8(11), uint64(3))       // a burst and interference
	f.Add(-100.0, -97.0, -0.3, -107.0, 0.0, uint8(41), uint64(4))      // interference near a tenth of the noise
	f.Add(-140.0, -98.0, 0.0, -90.0, 0.0, uint8(127), uint64(5))       // below the table
	f.Add(-90.0, -98.0, 3500.0, -100.0, 0.0, uint8(41), uint64(6))     // vacuous noise bracket
	f.Add(-95.0, -98.0, 0.5, math.Inf(-1), 0.0, uint8(128), uint64(7)) // no table
	f.Fuzz(func(t *testing.T, powerDBm, staticDBm, excDB, maxInterfDBm, jitter float64, n uint8, seed uint64) {
		c := overheardCase{
			powerMW:     DBmToMilliwatts(powerDBm),
			staticMW:    DBmToMilliwatts(staticDBm),
			excDB:       excDB,
			maxInterfMW: DBmToMilliwatts(maxInterfDBm),
			jitter:      jitter,
			frameBytes:  1 + int(n)%128,
			seed:        seed,
		}
		if c.frameBytes == 128 {
			c.frameBytes = prrMaxTableBytes + 1
		}
		for _, v := range []float64{c.powerMW, c.staticMW, c.interf()} {
			if !(v >= 0 && v <= math.MaxFloat64) {
				return // not a power a medium can hold
			}
		}
		if !(c.powerMW > 0 && c.staticMW > 0) || math.IsNaN(excDB) || math.IsInf(excDB, 0) || math.IsNaN(jitter) || math.IsInf(jitter, 0) {
			return
		}
		checkOverheard(t, c)
	})
}
