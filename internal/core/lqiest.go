package core

import (
	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// AdjustLQI converts a received frame's LQI into the link-cost increment,
// exactly as the TinyOS MultiHopLQI implementation does: a cubic penalty in
// (80 - (lqi - 50)) that makes low-LQI hops rapidly unattractive. It lives
// here because it is estimation logic, not routing logic: both the
// MultiHopLQI router (internal/lqirouter) and the pure-LQI table estimator
// below derive their cost quantity from it.
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

// LQIEstimator is a pure physical-layer estimator: an EWMA (weight
// Config.PRRAlpha on history) over the LQI of received frames, mapped to
// the ETX scale through the MultiHopLQI cubic. It is the estimation logic
// of internal/lqirouter lifted into the pluggable framework — with a
// neighbor table, so a table-driven router (CTP) can run on it.
//
// By construction it shares MultiHopLQI's blindspot (the paper's Figure
// 3): only *received* frames produce samples, so a link that drops most
// packets but delivers the survivors at high LQI looks nearly perfect.
// Missed beacons, failed unicasts and reverse-path asymmetry are all
// invisible — TxResult is a strict no-op and footers are neither sent nor
// read. Silence is the one failure it reacts to: Age doubles the cost of
// neighbors not heard within the silence budget.
type LQIEstimator struct {
	tableView
	cfg Config
	rng *sim.Rand

	beaconSeq     uint16
	beaconScratch packet.LEFrame // MakeBeacon's reusable envelope

	stats Stats
}

var _ LinkEstimator = (*LQIEstimator)(nil)

// NewLQIEstimator builds a pure-LQI moving-average estimator for node self.
func NewLQIEstimator(self packet.Addr, cfg Config, rng *sim.Rand) *LQIEstimator {
	if err := cfg.Validate(); err != nil {
		panic("core: invalid estimator config: " + err.Error())
	}
	return &LQIEstimator{
		tableView: tableView{table: newTable(cfg.TableSize), self: self},
		cfg:       cfg,
		rng:       rng,
	}
}

// SetComparer implements LinkEstimator; ignored (physical layer only).
func (est *LQIEstimator) SetComparer(cmp Comparer) {}

// Counters implements LinkEstimator.
func (est *LQIEstimator) Counters() Stats { return est.stats }

// MakeBeacon implements LinkEstimator: the envelope carries a sequence
// number (receivers of other kinds may count it) but no footer — pure-LQI
// estimation keeps no reception statistics to advertise.
func (est *LQIEstimator) MakeBeacon(netPayload []byte) *packet.LEFrame {
	est.beaconSeq++
	est.beaconScratch = packet.LEFrame{Seq: est.beaconSeq, NetPayload: netPayload,
		Entries: est.beaconScratch.Entries[:0]}
	return &est.beaconScratch
}

// OnBeacon implements LinkEstimator: the beacon's own LQI is the sample,
// exactly as MultiHopLQI judges the link by the beacon that carried the
// advertisement.
func (est *LQIEstimator) OnBeacon(src packet.Addr, le *packet.LEFrame, meta RxMeta, now sim.Time) ([]byte, bool) {
	if le == nil {
		return nil, false
	}
	est.stats.BeaconsIn++
	e := est.table.Find(src)
	if e == nil {
		e = admit(&est.tableView, est.rng, &est.cfg, &est.stats, src, nil, nil)
	}
	if e != nil {
		e.lastHeard = now
		est.fold(e, meta.LQI)
	}
	return le.NetPayload, true
}

// OnOverhear feeds the LQI of any other received frame into an *existing*
// entry — data traffic refines the estimate at data cadence, but table
// admission stays beacon-driven (a unicast sender is already a neighbor).
func (est *LQIEstimator) OnOverhear(src packet.Addr, meta RxMeta, now sim.Time) {
	if e := est.table.Find(src); e != nil {
		e.lastHeard = now
		est.fold(e, meta.LQI)
	}
}

// fold pushes one LQI sample into the entry's moving average (kept in
// prrEwma, on the raw LQI scale) and republishes the mapped ETX.
func (est *LQIEstimator) fold(e *Entry, lqi uint8) {
	sample := float64(lqi)
	if !e.prrInit {
		e.prrInit = true
		e.prrEwma = sample
	} else {
		a := est.cfg.PRRAlpha
		e.prrEwma = float64(a*e.prrEwma) + float64((1-a)*sample)
	}
	e.windows++
	est.stats.BeaconWindows++
	e.etxInit = true
	e.etx = ETXFromLQI(e.prrEwma, est.cfg.MaxETX)
}

// TxResult implements LinkEstimator as a strict no-op — the defining
// blindness: no feedback from the data path ever reaches the estimate.
func (est *LQIEstimator) TxResult(dest packet.Addr, acked bool) {}

// Age implements the router's silence feedback: every entry not heard
// within the budget has its cost doubled (up to MaxETX). Without this a
// dead neighbor would keep its last — typically excellent — estimate
// forever and the router could never abandon it.
func (est *LQIEstimator) Age(maxSilence sim.Time, now sim.Time) {
	for _, e := range est.table.Entries() {
		if !e.etxInit || now-e.lastHeard <= maxSilence {
			continue
		}
		e.lastHeard = now
		est.stats.AgedMisses++
		e.etx *= 2
		if e.etx > est.cfg.MaxETX {
			e.etx = est.cfg.MaxETX
		}
	}
}
