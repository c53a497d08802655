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
// bottom of mantissa bucket k (the top 8 mantissa bits).
var dbMant = func() (t [256]float64) {
	for k := range t {
		t[k] = float64(10*math.Log10(1+float64(k)/256)) - dbBoundSlack
	}
	return t
}()

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
	b := math.Float64bits(x)
	e := int(b>>52) - 1023
	if e == -1023 { // subnormal: renormalise by 2^52
		b = math.Float64bits(x * (1 << 52))
		e = int(b>>52) - 1023 - 52
	}
	return float64(float64(e)*dBPerOctave) + dbMant[b>>44&0xff]
}
