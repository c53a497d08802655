package phy

import (
	"fmt"
	"sync"

	"fourbit/internal/sim"
)

// This file implements the reception-path fast kernel: a quantized
// SINR→PRR lookup table in the tradition of TOSSIM and Zuniga &
// Krishnamachari's link-model tooling, which precompute reception curves
// because the analytic 802.15.4 BER series (15 math.Exp calls plus a
// math.Pow per evaluation) dominates per-packet cost.
//
// Unlike a plain lookup table, the table's decision path is *certified
// exact*: the exact PRR samples at a cell's two grid edges, widened by
// prrBoundsEps, are rigorous lower/upper bounds on the analytic PRR over
// that cell, and the reception draw compares the uniform sample against
// the bounds first. Only when the sample lands inside the bounds
// gap (probability = the cell's PRR span, <2.5% in the waterfall and ~0
// elsewhere) does the kernel fall back to the analytic function — so the
// Bernoulli outcome, and the number of random draws consumed, are
// bit-identical to evaluating the analytic PRR on every packet. Figure
// outputs do not move by one bit; see TestGoldenRunFingerprints.
//
// The interpolated Lookup path is the conventional approximate query
// (linear interpolation between exact grid samples, error ≤ ~2.5e-4, see
// TestPRRTableLookupAccuracy); it serves analysis tooling that wants
// cheap curve evaluation and is not used for reception decisions.

const (
	// Table domain. Above prrTableMaxDB the BER series underflows so far
	// that PRR is exactly 1.0 in float64 for any frame length the table
	// accepts (the build panics otherwise); below prrTableMinDB the
	// kernel falls back to the analytic function (receptions jammed that
	// deep are rare — heavy same-cell collisions only).
	prrTableMinDB      = -40.0
	prrTableMaxDB      = 8.0
	prrTableStepsPerDB = 128 // 1/128 dB cells: exactly representable, shift-friendly
	prrTableCells      = int((prrTableMaxDB - prrTableMinDB) * prrTableStepsPerDB)

	// prrBoundsEps widens every certified bound beyond the float-level
	// error of the analytic evaluation (relative error ~1e-13; see the
	// error budget in docs/ARCHITECTURE.md). Widening costs only fallback
	// probability, never correctness.
	prrBoundsEps = 1e-9

	// prrMaxTableBytes bounds the frame lengths served by tables. Beyond
	// it (no real 802.15.4 frame is within two orders of magnitude) the
	// medium uses the analytic path directly.
	prrMaxTableBytes = 4096
)

// PRRTable is the precomputed reception curve for one frame length. Its
// cells fall into three decision classes, fixed by two grid indices:
// cells at or above oneAt certainly deliver (no draw); cells in
// [subLo, subHi) are certainly strictly between 0 and 1 (one draw,
// resolved against the cell's bounds); every other cell sits in the
// neighborhood of the ==1.0 or ==0.0 threshold and takes the analytic
// path. certainDB is the SINR from which Decide returns true without a
// draw: the bottom edge of cell oneAt, or the domain top if that is lower.
type PRRTable struct {
	frameBytes   int
	val          []float64 // exact PRR at the prrTableCells+1 grid points
	oneAt        int
	subLo, subHi int
	certainDB    float64
}

// FrameBytes returns the frame length this table was built for.
func (t *PRRTable) FrameBytes() int { return t.frameBytes }

// buildPRRTable samples the analytic PRR over the grid and fixes the
// decision classes. PRR is strictly increasing in SINR, so the exact values
// at a cell's edges bound the analytic function over the cell (see
// cellBounds); prrBoundsEps absorbs the evaluation's own float error.
func buildPRRTable(frameBytes int) *PRRTable {
	t := &PRRTable{
		frameBytes: frameBytes,
		val:        make([]float64, prrTableCells+1),
	}
	const step = 1.0 / prrTableStepsPerDB
	for g := range t.val {
		t.val[g] = PRR(prrTableMinDB+float64(g)*step, frameBytes)
	}
	if t.val[prrTableCells] != 1 {
		// Analytically impossible for frameBytes <= prrMaxTableBytes (the
		// BER series is below 2^-54 above +8 dB); a failure here means the
		// golden reference changed and the domain must be revisited.
		panic(fmt.Sprintf("phy: PRR(%v dB, %d bytes) = %v, table domain does not saturate",
			prrTableMaxDB, frameBytes, t.val[prrTableCells]))
	}
	// oneFrom is the lowest grid index from which every sampled value is
	// exactly 1.0. The true ==1.0 threshold of the float function lies
	// within one cell of it (BER moves ~7% per cell near the threshold,
	// vastly above its ~1e-13 relative evaluation noise), so cells two or
	// more grid steps away are certified; the neighborhood stays exact.
	oneFrom := prrTableCells
	for oneFrom > 0 && t.val[oneFrom-1] == 1 {
		oneFrom--
	}
	// zeroTo is the highest grid index whose sampled value is exactly 0
	// (−1 if the curve is positive over the whole domain; long frames
	// underflow to 0 where BER clamps at 0.5). The symmetric concern to
	// the ==1.0 threshold: Bernoulli(0) consumes no draw, so any cell
	// that might contain an exact zero must stay on the analytic path.
	// Cells two or more grid steps above zeroTo are certified strictly
	// positive by the same monotonicity-vs-float-noise argument as above.
	zeroTo := -1
	for zeroTo+1 <= prrTableCells && t.val[zeroTo+1] == 0 {
		zeroTo++
	}
	t.oneAt = oneFrom + 2
	t.subLo, t.subHi = zeroTo+2, oneFrom-2
	// The edge is a dyadic rational that float64 holds exactly, and float
	// subtraction and the power-of-two scale in Decide are monotone, so any
	// sinrDB at or above it lands in a cell ≥ oneAt (or at the domain top).
	t.certainDB = min(prrTableMinDB+float64(float64(t.oneAt)*step), prrTableMaxDB)
	return t
}

// cellBounds returns the certified bounds on the analytic PRR over cell i:
// its edge samples widened by prrBoundsEps and clamped to [0, 1].
func (t *PRRTable) cellBounds(i int) (lo, hi float64) {
	return max(t.val[i]-prrBoundsEps, 0), min(t.val[i+1]+prrBoundsEps, 1)
}

// Lookup returns the linearly-interpolated PRR at sinrDB — the cheap
// approximate query for analysis and planning tools. Its error against the
// analytic PRR is bounded by the curve's curvature over one 1/128 dB cell
// (≤ ~2.5e-4; pinned to 1e-3 by TestPRRTableLookupAccuracy). Reception
// decisions never use it; they go through Decide.
func (t *PRRTable) Lookup(sinrDB float64) float64 {
	if sinrDB >= prrTableMaxDB {
		return 1
	}
	if sinrDB <= prrTableMinDB {
		return t.val[0]
	}
	pos := (sinrDB - prrTableMinDB) * prrTableStepsPerDB
	i := int(pos)
	if i >= prrTableCells { // guard the rounding edge at the domain top
		i = prrTableCells - 1
	}
	frac := pos - float64(i)
	return t.val[i] + frac*(t.val[i+1]-t.val[i])
}

// Decide performs the reception Bernoulli draw for a frame heard at
// sinrDB, bit-identical to rng.Bernoulli(PRR(sinrDB, frameBytes)) in both
// outcome and random-stream consumption: certainly-delivered cells consume
// no draw (as Bernoulli(1) does not), certainly-sub-one cells consume
// exactly one draw and resolve it against the certified bounds, and only
// draws landing inside a cell's bounds gap — or SINRs outside the table
// domain — pay for the analytic function.
func (t *PRRTable) Decide(sinrDB float64, rng *sim.Rand) bool {
	if sinrDB >= prrTableMaxDB {
		return true // PRR is exactly 1.0 here; Bernoulli(1) draws nothing
	}
	if sinrDB < prrTableMinDB {
		return rng.Bernoulli(PRR(sinrDB, t.frameBytes))
	}
	i := cellOf(sinrDB)
	if i >= t.oneAt {
		return true
	}
	if i < t.subLo || i >= t.subHi {
		return rng.Bernoulli(PRR(sinrDB, t.frameBytes))
	}
	return t.settle(i, sinrDB, rng.Float64())
}

// cellOf returns the grid cell of an SINR in [prrTableMinDB,
// prrTableMaxDB). The index is monotone in sinrDB: the subtraction and the
// power-of-two scale round monotonically, and int truncates.
func cellOf(sinrDB float64) int {
	return min(int((sinrDB-prrTableMinDB)*prrTableStepsPerDB), prrTableCells-1)
}

// settle resolves the reception draw u for an SINR in the certainly-sub-one
// cell i: against the cell's certified bounds, and against the analytic
// PRR only when u lands between them.
func (t *PRRTable) settle(i int, sinrDB, u float64) bool {
	lo, hi := t.cellBounds(i)
	if u < lo {
		return true
	}
	if u >= hi {
		return false
	}
	return u < PRR(sinrDB, t.frameBytes)
}

// subCells returns the cells of lo and hi when every SINR in [lo, hi] lies
// in a certainly-sub-one cell, where Decide takes exactly one draw and
// settles it; ok is false otherwise. For a draw u, every SINR in the
// interval delivers when u is below the lower bound of cell iLo and drops
// when u is at or above the upper bound of cell iHi: the bounds are
// certified over their cells and PRR increases with SINR.
func (t *PRRTable) subCells(lo, hi float64) (iLo, iHi int, ok bool) {
	if !(lo >= prrTableMinDB && hi < prrTableMaxDB) {
		return 0, 0, false
	}
	iLo, iHi = cellOf(lo), cellOf(hi)
	return iLo, iHi, iLo >= t.subLo && iHi < t.subHi
}

// CertifiedUpperPRR returns a certified upper bound on the analytic
// reception probability at sinrDB. PRR is strictly increasing in SINR, so
// the containing cell's certified upper bound (upper grid edge + prrBoundsEps,
// covering the analytic evaluation's own float error) bounds the function
// over the cell; below the table domain the domain floor's bound applies,
// at or above the saturation point the bound is 1. The spatial-culling
// conservativeness test uses this to certify that no culled link's
// best-case SINR could ever decode a frame above the table's resolution.
func (t *PRRTable) CertifiedUpperPRR(sinrDB float64) float64 {
	if sinrDB >= prrTableMaxDB {
		return 1
	}
	if sinrDB < prrTableMinDB {
		sinrDB = prrTableMinDB
	}
	_, hi := t.cellBounds(cellOf(sinrDB))
	return hi
}

// prrTableCache shares built tables process-wide: the curve depends only
// on the frame length, so concurrent experiment runs (and every run of a
// sweep) reuse one table per length instead of rebuilding ~50 KB of curve
// per Medium.
var prrTableCache sync.Map // int → *PRRTable

// PRRTableFor returns the shared reception-curve table for frameBytes,
// building it on first use, or nil when the length is out of the table
// range (non-positive, or beyond prrMaxTableBytes) and callers must use
// the analytic PRR.
func PRRTableFor(frameBytes int) *PRRTable {
	if frameBytes <= 0 || frameBytes > prrMaxTableBytes {
		return nil
	}
	if t, ok := prrTableCache.Load(frameBytes); ok {
		return t.(*PRRTable)
	}
	t, _ := prrTableCache.LoadOrStore(frameBytes, buildPRRTable(frameBytes))
	return t.(*PRRTable)
}
