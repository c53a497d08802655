package phy

import "math"

// ln10div10 turns 10^(x/10) into exp(x·ln10/10): one exp instead of the
// log+exp+special-casing inside math.Pow — the conversion sits on the
// per-frame path of the medium, where it dominates without this.
const ln10div10 = math.Ln10 / 10

// DBmToMilliwatts converts dBm to linear milliwatts.
func DBmToMilliwatts(dbm float64) float64 { return math.Exp(dbm * ln10div10) }

// MilliwattsToDBm converts linear milliwatts to dBm. Zero or negative power
// maps to -infinity dBm.
func MilliwattsToDBm(mw float64) float64 {
	if mw <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(mw)
}

// DBToLinear converts a dB ratio to a linear ratio.
func DBToLinear(db float64) float64 { return math.Exp(db * ln10div10) }

// LinearToDB converts a linear ratio to dB.
func LinearToDB(lin float64) float64 {
	if lin <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(lin)
}

// dBPerOctave is 10·log10(2): the dB value of one binary exponent step.
const dBPerOctave = 10 * math.Ln2 / math.Ln10

// dbBoundSlack shaves every dbMant entry. The exact dB value of x lies at
// or above e·dBPerOctave + 10·log10(1+k/256); the slack covers the float
// rounding of the table, of the product and the sum in dbLowerBound, and
// of LinearToDB's own evaluation — all below 1e-11 dB over the whole
// float64 range — so the bound holds against the computed LinearToDB.
const dbBoundSlack = 1e-9

// dbMant[k] is 10·log10(1+k/256) minus dbBoundSlack: the dB value of the
// bottom of mantissa bucket k (the top 8 mantissa bits). dbMantHi[k] is
// the top of the bucket, 10·log10(1+(k+1)/256), plus dbBoundSlack.
var dbMant, dbMantHi = func() (lo, hi [256]float64) {
	for k := range lo {
		lo[k] = float64(10*math.Log10(1+float64(k)/256)) - dbBoundSlack
		hi[k] = float64(10*math.Log10(1+float64(k+1)/256)) + dbBoundSlack
	}
	return lo, hi
}()

// dbBucket splits a positive finite x into its binary exponent e and its
// mantissa bucket k (the top 8 mantissa bits), so that x lies in
// [2^e·(1+k/256), 2^e·(1+(k+1)/256)). A subnormal is renormalised by 2^52
// first, so its bucket brackets its true value; amd64's math.Log reads
// subnormals as (1+f)·2^-1023 and lands up to ~154 dB above the truth, which
// the bounds therefore do not follow.
func dbBucket(x float64) (e int, k uint64) {
	b := math.Float64bits(x)
	e = int(b>>52) - 1023
	if e == -1023 {
		b = math.Float64bits(x * (1 << 52))
		e = int(b>>52) - 1023 - 52
	}
	return e, b >> 44 & 0xff
}

// dbLowerBound returns a lower bound on LinearToDB(x) that is at most
// ~0.017 dB below it (one mantissa bucket, 10·log10(1+1/256)), from the
// exponent bits and a table lookup instead of a logarithm. Non-positive,
// infinite and NaN inputs bound at −Inf. The explicit float64 conversion
// rounds the product before the add, so no architecture fuses the two into
// an FMA and the bound is the same bits everywhere.
func dbLowerBound(x float64) float64 {
	if !(x > 0) || x > math.MaxFloat64 {
		return math.Inf(-1)
	}
	e, k := dbBucket(x)
	return float64(float64(e)*dBPerOctave) + dbMant[k]
}

// dbUpperBound is dbLowerBound's mirror: an upper bound on LinearToDB(x) at
// most ~0.017 dB above it, read at the top of x's mantissa bucket. Zero and
// negative inputs bound at −Inf (where LinearToDB is −Inf); +Inf and NaN
// bound at +Inf.
func dbUpperBound(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	if !(x <= math.MaxFloat64) {
		return math.Inf(1)
	}
	e, k := dbBucket(x)
	return float64(float64(e)*dBPerOctave) + dbMantHi[k]
}

// linBoundSteps is 256·log2(e): DBToLinear(db) = exp(y) = 2^(y·log2(e)) for
// y = db·ln10div10, so y·linBoundSteps counts 1/256-octave steps.
const linBoundSteps = 256 * math.Log2E

// linBoundMaxY bounds |y| where linearBounds brackets: e^±600 and its table
// scaling stay well inside the normal float64 range, and the rounding of
// y·linBoundSteps stays below 1e-10 steps.
const linBoundMaxY = 600

// linBoundSlack widens every linLo/linHi entry, relatively. It covers the
// rounding of y·linBoundSteps (≤ 1e-10 of a step, ~3e-13 relative), of
// the table entries, and math.Exp's own error of a few ulps — so the
// bracket holds against the computed DBToLinear, not only the exact one.
const linBoundSlack = 1e-9

// linLo[k] is 2^(k/256)·(1−linBoundSlack) and linHi[k] is
// 2^((k+1)/256)·(1+linBoundSlack): the bottom and top of step k of an
// octave.
var linLo, linHi = func() (lo, hi [256]float64) {
	for k := range lo {
		lo[k] = float64(math.Exp2(float64(k)/256) * (1 - linBoundSlack))
		hi[k] = float64(math.Exp2(float64(k+1)/256) * (1 + linBoundSlack))
	}
	return lo, hi
}()

// linearBounds returns lo ≤ DBToLinear(db) ≤ hi, at most a factor
// 2^(1/256) (~0.27%, 0.012 dB) apart, from a table lookup and the exponent
// bits instead of an exponential. Where |db·ln10div10| exceeds
// linBoundMaxY, and for NaN, it returns the vacuous bracket (0, +Inf).
// Both results are a table entry times a power of two, which is exact.
func linearBounds(db float64) (lo, hi float64) {
	y := db * ln10div10 // the argument DBToLinear hands to math.Exp
	if !(math.Abs(y) <= linBoundMaxY) {
		return 0, math.Inf(1)
	}
	s := y * linBoundSteps
	n := int(s)
	if float64(n) > s { // int truncates toward zero; take the floor
		n--
	}
	p := math.Float64frombits(uint64(n>>8+1023) << 52) // 2^floor(n/256)
	return linLo[n&0xff] * p, linHi[n&0xff] * p
}
