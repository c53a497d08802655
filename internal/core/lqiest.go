package core

import "fourbit/internal/sim"

// AdjustLQI converts a received frame's LQI into the link-cost increment,
// exactly as the TinyOS MultiHopLQI implementation does: a cubic penalty in
// (80 - (lqi - 50)) that makes low-LQI hops rapidly unattractive. It lives
// here because it is estimation logic, not routing logic: both the
// MultiHopLQI router (internal/lqirouter) and the lqi kind below derive
// their cost quantity from it.
func AdjustLQI(lqi uint8) uint16 {
	v := 80 - (int(lqi) - 50)
	if v < 1 {
		v = 1
	}
	cost := ((v * v) >> 3) * v >> 3
	if cost > 0xFFFE {
		cost = 0xFFFE
	}
	if cost < 1 {
		cost = 1
	}
	return uint16(cost)
}

// adjustLQIUnit is AdjustLQI at a saturated LQI (110, the CC2420 maximum):
// the normalizer that anchors a perfect link at ETX 1.
var adjustLQIUnit = float64(AdjustLQI(110))

// ETXFromLQI maps a (possibly fractional, from a moving average) LQI value
// onto the ETX-comparable cost scale: the MultiHopLQI cubic normalized so a
// saturated-LQI link costs exactly 1, clamped at maxETX.
func ETXFromLQI(lqi float64, maxETX float64) float64 {
	if lqi < 0 {
		lqi = 0
	}
	if lqi > 255 {
		lqi = 255
	}
	etx := float64(AdjustLQI(uint8(lqi+0.5))) / adjustLQIUnit
	if etx < 1 {
		etx = 1
	}
	if etx > maxETX {
		etx = maxETX
	}
	return etx
}

// The lqi kind is a pure physical-layer estimator: an EWMA (weight
// Config.PRRAlpha on history) over the LQI of received frames, mapped to
// the ETX scale through the MultiHopLQI cubic. It is the estimation logic
// of internal/lqirouter lifted into the pluggable framework — with a
// neighbor table, so a table-driven router (CTP) can run on it.
//
// By construction it shares MultiHopLQI's blindspot (the paper's Figure
// 3): only *received* frames produce samples, so a link that drops most
// packets but delivers the survivors at high LQI looks nearly perfect.
// Missed beacons, failed unicasts and reverse-path asymmetry are all
// invisible — it honours no feature bit, so TxResult is a strict no-op,
// and footers are neither sent nor read. Silence is the one failure it
// reacts to: Age doubles the cost of neighbors not heard within the
// silence budget.

// hearLQI folds the LQI of one frame from e's neighbor into the entry's
// moving average (kept in prrEwma, on the raw LQI scale instead of a
// reception ratio — the kind advertises no footers, so the value never
// leaves the node) and republishes the mapped ETX.
func (est *Estimator) hearLQI(e *Entry, lqi uint8, now sim.Time) {
	e.lastHeard = now
	est.foldPRR(e, float64(lqi))
	e.etxInit = true
	e.etx = ETXFromLQI(e.prrEwma, est.cfg.MaxETX)
}

// ageLQI doubles a silent entry's cost, up to maxETX. Without this a dead
// neighbor would keep its last — typically excellent — estimate forever
// and the router could never abandon it.
func ageLQI(e *Entry, maxETX float64) {
	e.etx *= 2
	if e.etx > maxETX {
		e.etx = maxETX
	}
}
