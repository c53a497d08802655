package phy

import (
	"math"
	"testing"

	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// sparseTestParams returns a parameterization whose cutoff radius is small
// relative to the test areas (high path-loss exponent), so the reference
// tests exercise all three construction regimes: precomputed near pairs,
// beyond-cutoff pairs culled by the certified bound, and beyond-cutoff
// pairs whose shadowing draw defeats the bound's headroom and fall back to
// the exact per-pair evaluation.
func sparseTestParams() Params {
	p := DefaultParams()
	p.PathLossExponent = 4.5
	return p
}

// refChannel is the brute-force n×n reference the audible-set CSR is
// pinned against: every directed static gain, computed from the geometry
// directly with the per-seed draws the channel makes, in the same order
// from the same "phy/static" stream, plus one OU fading state per
// unordered pair on its own copy of the "phy/fade" stream.
type refChannel struct {
	n       int
	p       Params
	gainDB  []float64 // n*n, tx→rx
	fade    []ouState // per unordered pair at [a*n+b], a < b
	fadeRng *sim.Rand
	fadeCo  ouCoeffs
}

func newRefChannel(g Geometry, p Params, seed uint64) *refChannel {
	n := g.N()
	seeds := sim.NewSeedSpace(seed)
	ref := &refChannel{
		n:       n,
		p:       p,
		gainDB:  make([]float64, n*n),
		fade:    make([]ouState, n*n),
		fadeRng: seeds.Stream("phy/fade"),
	}
	static := seeds.Stream("phy/static")
	txOff := make([]float64, n)
	for i := 0; i < n; i++ {
		txOff[i] = static.Normal(0, p.TxVarSigmaDB)
		static.Normal(0, p.NoiseFigSigmaDB)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := g.Distance(i, j)
			if d < 0.5 {
				d = 0.5
			}
			pl := p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
			pl += static.Normal(0, p.ShadowSigmaDB)
			pl += g.ExtraLossDB(i, j)
			ref.gainDB[i*n+j] = -pl + txOff[i]
			ref.gainDB[j*n+i] = -pl + txOff[j]
		}
	}
	return ref
}

// GainDB is the reference's instantaneous gain: static gain plus the
// pair's shared fading process.
func (r *refChannel) GainDB(tx, rx int, t sim.Time) float64 {
	g := r.gainDB[tx*r.n+rx]
	if r.p.FadeSigmaDB > 0 {
		a, b := min(tx, rx), max(tx, rx)
		g += r.fade[a*r.n+b].sample(t, r.p.FadeTau, r.p.FadeSigmaDB, r.fadeRng, &r.fadeCo)
	}
	return g
}

// buildPair instantiates the channel and the reference over the same
// topology and seed.
func buildPair(tp *topo.Topology, p Params, seed uint64) (*Channel, *refChannel) {
	return PrecomputeGeo(tp, p).NewChannel(sim.NewSeedSpace(seed)), newRefChannel(tp, p, seed)
}

// TestSparseDenseChannelIdentical pins the audible-set CSR against the
// brute-force n×n reference: over a topology with many beyond-cutoff
// pairs, the channel must store exactly the pairs whose drawn static gain
// clears the floor in either direction — the reference's candidate
// superset — with bit-identical gains, and its lazily-sampled fading must
// consume the fade stream in exact lockstep with the reference's per-pair
// OU states.
func TestSparseDenseChannelIdentical(t *testing.T) {
	const n = 500
	tp := topo.UniformRandom(n, 600, 600, 7)
	p := sparseTestParams()
	ch, ref := buildPair(tp, p, 42)

	// The area must actually reach beyond the cutoff or the certified
	// bound path went unexercised.
	maxD := 0.0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d := tp.Distance(i, j); d > maxD {
				maxD = d
			}
		}
	}
	if cut := p.CutoffRadiusM(); maxD <= cut {
		t.Fatalf("topology diameter %.0f m inside cutoff %.0f m: bound path unexercised", maxD, cut)
	}

	const floor = audibleFloorDB
	stored, culled, farStored := 0, 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gij := ref.gainDB[i*n+j]
			gji := ref.gainDB[j*n+i]
			slot := ch.slotOf(i, j)
			want := gij >= floor || gji >= floor
			if got := slot >= 0; got != want {
				t.Fatalf("pair (%d,%d): stored=%v want %v (gains %.2f/%.2f, floor %.2f)",
					i, j, got, want, gij, gji, floor)
			}
			if slot < 0 {
				culled++
				continue
			}
			stored++
			if tp.Distance(i, j) > ch.p.CutoffRadiusM() {
				farStored++
			}
			rev := ch.slotOf(j, i)
			if ch.adjGainDB[slot] != gij || ch.adjGainDB[rev] != gji {
				t.Fatalf("pair (%d,%d): stored gains %x/%x want %x/%x", i, j,
					math.Float64bits(ch.adjGainDB[slot]), math.Float64bits(ch.adjGainDB[rev]),
					math.Float64bits(gij), math.Float64bits(gji))
			}
			if ch.adjGainLin[slot] != DBToLinear(gij) {
				t.Fatalf("pair (%d,%d): linear mirror mismatch", i, j)
			}
		}
	}
	if stored == 0 || culled == 0 {
		t.Fatalf("degenerate audible set: %d stored, %d culled", stored, culled)
	}
	t.Logf("n=%d: %d pairs stored (%d beyond cutoff), %d culled", n, stored, farStored, culled)

	// Fade-stream lockstep: sample every stored link at advancing times in
	// identical order on the channel and the reference; values must match
	// bit-for-bit, and afterwards the two fade streams must sit at the same
	// position (their next raw draws agree).
	for pass, at := range []sim.Time{sim.Second, 2 * sim.Second, 5 * sim.Second} {
		for i := 0; i < n; i++ {
			for s := ch.adjOff[i]; s < ch.adjOff[i+1]; s++ {
				j := int(ch.adjNbr[s])
				if gs, gr := ch.GainDB(i, j, at), ref.GainDB(i, j, at); gs != gr {
					t.Fatalf("pass %d GainDB(%d,%d): channel %v reference %v", pass, i, j, gs, gr)
				}
			}
		}
	}
	if a, b := ch.fadeRng.Float64(), ref.fadeRng.Float64(); a != b {
		t.Fatalf("fade streams out of lockstep: next draws %v vs %v", a, b)
	}
	// Culled links read as nothing, without touching any stream.
	for i := 0; i < n && culled > 0; i++ {
		for j := i + 1; j < n; j++ {
			if ch.slotOf(i, j) < 0 {
				if g := ch.GainDB(i, j, 9*sim.Second); !math.IsInf(g, -1) {
					t.Fatalf("culled link (%d,%d) GainDB = %v, want -Inf", i, j, g)
				}
				if g := ch.GainLin(i, j, 9*sim.Second); g != 0 {
					t.Fatalf("culled link (%d,%d) GainLin = %v, want 0", i, j, g)
				}
				i = n // one is enough
				break
			}
		}
	}
}

// TestSparseDenseMultiFloorIdentical repeats the reference comparison
// over a multi-storey layout, where the near-pair filter's obstruction term
// matters: floor slabs (14 dB each) push many pairs inside the cutoff
// radius past the deterministic loss bound, so they are excluded from the
// precomputed near set and must flow through the certified-bound/exact
// fallback instead — with the stored audible set still exactly matching the
// reference's criterion.
func TestSparseDenseMultiFloorIdentical(t *testing.T) {
	const n = 600
	tp := topo.MultiFloor(n, 6, 120, 80, 13)
	p := sparseTestParams()
	ch, ref := buildPair(tp, p, 77)

	// The obstruction-exclusion branch must actually fire: count pairs
	// within the cutoff radius whose distance-plus-slab loss exceeds the
	// bound (the test's own reimplementation of the filter).
	cut := p.CutoffRadiusM()
	plAtCutoff := p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(cut)
	obstructedNear := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := tp.Distance(i, j)
			if d > cut {
				continue
			}
			if d < 0.5 {
				d = 0.5
			}
			base := p.PathLossRefDB + 10*p.PathLossExponent*math.Log10(d)
			if base+tp.ExtraLossDB(i, j) > plAtCutoff {
				obstructedNear++
			}
		}
	}
	if obstructedNear == 0 {
		t.Fatal("no obstructed within-radius pairs: the obstruction filter went unexercised")
	}

	const floor = audibleFloorDB
	stored, culled := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			gij := ref.gainDB[i*n+j]
			gji := ref.gainDB[j*n+i]
			slot := ch.slotOf(i, j)
			want := gij >= floor || gji >= floor
			if got := slot >= 0; got != want {
				t.Fatalf("pair (%d,%d): stored=%v want %v (gains %.2f/%.2f, floor %.2f)",
					i, j, got, want, gij, gji, floor)
			}
			if slot < 0 {
				culled++
				continue
			}
			stored++
			rev := ch.slotOf(j, i)
			if ch.adjGainDB[slot] != gij || ch.adjGainDB[rev] != gji {
				t.Fatalf("pair (%d,%d): gain mismatch against the reference", i, j)
			}
		}
	}
	if stored == 0 || culled == 0 {
		t.Fatalf("degenerate audible set: %d stored, %d culled", stored, culled)
	}
	t.Logf("n=%d floors=6: %d stored, %d culled, %d obstructed within-radius pairs excluded from the near set",
		n, stored, culled, obstructedNear)
}

// TestCutoffCertifiedConservative is the conservativeness proof for the
// audibility floor: for every culled pair, the link's best case — maximum
// plausible transmit power, the model's full fade margin on top of the
// actually-drawn static gain — still lands below the radio's detection
// threshold (the medium drops it before any reception draw or interference
// accounting), and the SINR it could present against a generously
// best-case noise floor sits in a PRR-table cell whose certified upper
// bound is zero at the table's resolution. No culled receiver could have
// decoded a frame or contributed interference.
func TestCutoffCertifiedConservative(t *testing.T) {
	const n = 500
	tp := topo.UniformRandom(n, 600, 600, 11)
	p := sparseTestParams()
	ch, ref := buildPair(tp, p, 1234)
	rp := DefaultRadioParams()
	const floor = audibleFloorDB

	// Best-case noise: thermal floor minus a 6 dB allowance, beyond 5σ of
	// the combined noise-figure (σ=0.9) and drift (σ=0.8) excursions.
	const bestNoiseAllowanceDB = 6
	// The table for the longest frame the CTP stack sends (the PRR bound
	// loosens with shorter frames only far above this SINR regime; check a
	// short frame too).
	tables := []*PRRTable{PRRTableFor(40), PRRTableFor(20)}

	culled := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if ch.slotOf(i, j) >= 0 {
				continue
			}
			culled++
			for _, dir := range [2][2]int{{i, j}, {j, i}} {
				g := ref.gainDB[dir[0]*n+dir[1]]
				if g >= floor {
					t.Fatalf("culled link %v has gain %.2f above floor %.2f", dir, g, floor)
				}
				worstPowDBm := audibleMaxTxPowerDBm + g + audibleFadeMarginDB
				if worstPowDBm >= rp.DetectionDBm-0.4 {
					t.Fatalf("culled link %v best-case power %.2f dBm within guard of detection %.2f dBm",
						dir, worstPowDBm, rp.DetectionDBm)
				}
				sinrDB := worstPowDBm - (p.NoiseFloorDBm - bestNoiseAllowanceDB)
				for _, tb := range tables {
					if ub := tb.CertifiedUpperPRR(sinrDB); ub > 2*prrBoundsEps {
						t.Fatalf("culled link %v: certified PRR upper bound %g at SINR %.2f dB (frame %d) above table resolution",
							dir, ub, sinrDB, tb.FrameBytes())
					}
				}
			}
		}
	}
	if culled == 0 {
		t.Fatal("no culled pairs: conservativeness untested")
	}
	t.Logf("certified %d culled pairs conservative", culled)
}

// TestPrecomputeGeoRejectsNonPositiveExponent pins the panic that guards
// the cutoff bound: with a path-loss exponent that is not positive, loss
// does not grow with distance and the certified culling would be wrong.
func TestPrecomputeGeoRejectsNonPositiveExponent(t *testing.T) {
	for _, e := range []float64{0, -1, math.NaN()} {
		p := DefaultParams()
		p.PathLossExponent = e
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PrecomputeGeo accepted PathLossExponent %v", e)
				}
			}()
			PrecomputeGeo(topo.Line(3, 10), p)
		}()
	}
}
