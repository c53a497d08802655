package core

import (
	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Stats counts estimator-internal events. Every LinkEstimator kind reports
// through the same counter set (counters a kind cannot produce stay zero:
// only the four-bit family asks compare-bit questions or completes unicast
// windows), so estimator-internal behavior is comparable across sweeps.
type Stats struct {
	BeaconsIn      uint64 // routing beacons processed
	Inserted       uint64 // entries inserted into free slots
	Replaced       uint64 // entries inserted via eviction (all policies)
	RejectedFull   uint64 // beacons from unknown neighbors dropped, table full
	LotteryWins    uint64 // of Replaced: slots claimed through the FREQUENCY lottery
	CompareAsked   uint64 // compare bit requests to the network layer
	CompareTrue    uint64
	BeaconWindows  uint64 // completed beacon windows (PRR samples)
	UnicastWindows uint64 // completed unicast windows (ack-bit samples)
	AgedMisses     uint64 // synthetic misses injected for silent neighbors
}

// add accumulates other into s (for network-wide aggregation).
func (s *Stats) add(other Stats) {
	s.BeaconsIn += other.BeaconsIn
	s.Inserted += other.Inserted
	s.Replaced += other.Replaced
	s.RejectedFull += other.RejectedFull
	s.LotteryWins += other.LotteryWins
	s.CompareAsked += other.CompareAsked
	s.CompareTrue += other.CompareTrue
	s.BeaconWindows += other.BeaconWindows
	s.UnicastWindows += other.UnicastWindows
	s.AgedMisses += other.AgedMisses
}

// SumStats aggregates the counters of a set of estimators (a network).
func SumStats(ests []LinkEstimator) Stats {
	var sum Stats
	for _, e := range ests {
		sum.add(e.Counters())
	}
	return sum
}

// Estimator is the beacon-counting link estimator: the paper's four-bit
// hybrid (with its Figure 6 ablations via Config.Features) and the
// beacon-only wmewma and pdr kinds, which differ from it only in what
// derive sets. It acts as a layer 2.5: routing beacons pass through
// MakeBeacon / OnBeacon, which add and strip the LE envelope.
type Estimator struct {
	tableView
	kind EstimatorKind
	cfg  Config // as configured; snapshots carry it verbatim
	cmp  Comparer
	rng  *sim.Rand

	// What the kind decides, set by derive.
	window             int      // beacons per PRR sample
	feat               Features // the feature bits the kind honours
	prrAlpha, etxAlpha float64  // the publish step's EWMA weights

	beaconSeq     uint16
	footerIdx     int
	beaconScratch packet.LEFrame // MakeBeacon's reusable envelope

	Stats Stats
}

// Estimator implements LinkEstimator.
var _ LinkEstimator = (*Estimator)(nil)

// New builds a four-bit estimator for node self. cmp supplies the compare
// bit (nil disables it, as for protocols whose network layer cannot judge
// routes).
func New(self packet.Addr, cfg Config, cmp Comparer, rng *sim.Rand) *Estimator {
	return newEstimator(KindFourBit, self, cfg, cmp, rng)
}

// newEstimator builds a beacon-counting estimator of the given kind.
func newEstimator(kind EstimatorKind, self packet.Addr, cfg Config, cmp Comparer, rng *sim.Rand) *Estimator {
	if err := cfg.Validate(); err != nil {
		panic("core: invalid estimator config: " + err.Error())
	}
	est := &Estimator{
		tableView: tableView{table: newTable(cfg.TableSize), self: self},
		kind:      kind,
		cfg:       cfg,
		cmp:       cmp,
		rng:       rng,
	}
	est.derive()
	return est
}

// derive sets the three things the kind decides from the kind and cfg:
//   - the window: BeaconWindow for 4bit, MAWindow otherwise;
//   - the bits it honours: cfg.Features for 4bit, none otherwise;
//   - the publish step: the double EWMA over cfg's alphas, or for pdr
//     both weights at 0, which publishes the window mean unsmoothed.
func (est *Estimator) derive() {
	c := &est.cfg
	est.window, est.feat = c.BeaconWindow, c.Features
	est.prrAlpha, est.etxAlpha = c.PRRAlpha, c.ETXAlpha
	if est.kind == KindFourBit {
		return
	}
	est.window, est.feat = c.maWindow(), Features{}
	if est.kind == KindPDR {
		est.prrAlpha, est.etxAlpha = 0, 0
	}
}

// SetComparer installs the network layer's compare-bit provider after
// construction (the routing engine is usually built after the estimator).
// Only a kind that honours WhiteCompare ever asks it.
func (est *Estimator) SetComparer(cmp Comparer) { est.cmp = cmp }

// Counters implements LinkEstimator.
func (est *Estimator) Counters() Stats { return est.Stats }

// OnOverhear implements LinkEstimator as a strict no-op: the 4B design
// deliberately takes nothing from non-beacon receptions beyond the ack bit
// (TxResult); overheard-frame metadata is a physical-layer signal the
// hybrid estimator does not consume.
func (est *Estimator) OnOverhear(src packet.Addr, meta RxMeta, now sim.Time) {}

// MakeBeacon wraps the network layer's beacon payload in the LE envelope:
// it assigns the next beacon sequence number and attaches a round-robin
// subset of the table's inbound qualities as the footer.
func (est *Estimator) MakeBeacon(netPayload []byte) *packet.LEFrame {
	est.beaconSeq++
	buildBeacon(&est.beaconScratch, est.table, est.beaconSeq, &est.footerIdx, est.cfg.FooterEntries, netPayload)
	return &est.beaconScratch
}

// OnBeacon processes a received routing beacon (already stripped of its MAC
// frame): sequence-number accounting for the inbound PRR window, footer
// processing for reverse quality, and table admission — with the
// white/compare step of §3.3 when the kind honours WhiteCompare. It
// returns the network payload for delivery upward, and false if the beacon
// was malformed.
func (est *Estimator) OnBeacon(src packet.Addr, le *packet.LEFrame, meta RxMeta, now sim.Time) ([]byte, bool) {
	if le == nil {
		return nil, false
	}
	est.Stats.BeaconsIn++
	e := est.table.Find(src)
	if e == nil {
		var cmp Comparer
		if est.feat.WhiteCompare && meta.White {
			cmp = est.cmp
		}
		e = admit(&est.tableView, est.rng, &est.cfg, &est.Stats, src, cmp, le.NetPayload)
	}
	if e != nil {
		accountSeq(e, le.Seq, est.cfg.MaxSeqGap, now)
		scanFooter(e, le, est.self)
		est.completeBeaconWindow(e)
	}
	return le.NetPayload, true
}

// completeBeaconWindow folds a finished beacon window into the PRR EWMA and
// pushes the resulting ETX sample into the hybrid estimate, per Figure 5.
func (est *Estimator) completeBeaconWindow(e *Entry) {
	if e.rcvd+e.missed < est.window {
		return
	}
	sample := float64(e.rcvd) / float64(e.rcvd+e.missed)
	e.rcvd, e.missed = 0, 0
	e.windows++
	if !e.prrInit {
		e.prrInit = true
		e.prrEwma = sample
	} else {
		a := est.prrAlpha
		e.prrEwma = float64(a*e.prrEwma) + float64((1-a)*sample)
	}
	est.Stats.BeaconWindows++

	// Convert the smoothed reception ratio into an ETX sample. With the
	// ack bit available the beacon stream is unidirectional bootstrap
	// (§3.3: incoming estimates only); without it, the classic broadcast
	// estimator needs the neighbor-reported reverse quality.
	var etxSample float64
	if est.feat.AckBit {
		etxSample = invQuality(e.prrEwma, est.cfg.MaxETX)
	} else {
		if !e.outValid {
			return
		}
		etxSample = invQuality(e.prrEwma*e.outQuality, est.cfg.MaxETX)
	}
	foldETX(e, etxSample, est.etxAlpha, est.cfg.MaxETX)
}

// TxResult feeds the ack bit for one unicast transmission to dest (§3.1:
// one bit per transmitted packet). Kinds and variants without the ack bit
// ignore it.
func (est *Estimator) TxResult(dest packet.Addr, acked bool) {
	if !est.feat.AckBit {
		return
	}
	e := est.table.Find(dest)
	if e == nil {
		return
	}
	e.uTotal++
	if acked {
		e.uAcked++
		e.failsSince = 0
	} else {
		e.failsSince++
	}
	if e.uTotal < est.cfg.UnicastWindow {
		return
	}
	var sample float64
	if e.uAcked > 0 {
		sample = float64(e.uTotal) / float64(e.uAcked)
	} else {
		// ku consecutive failures: the estimate is the number of failed
		// deliveries since the last success (grows each barren window).
		sample = float64(e.failsSince)
	}
	e.uTotal, e.uAcked = 0, 0
	est.Stats.UnicastWindows++
	foldETX(e, sample, est.cfg.ETXAlpha, est.cfg.MaxETX)
}

// Age injects one synthetic missed beacon into every entry silent for
// longer than maxSilence, letting the broadcast stream notice dead
// neighbors that send nothing (the routing engine calls this at its own
// beacon cadence). Pinned entries age too — the route through them should
// look worse — but are never evicted here.
func (est *Estimator) Age(maxSilence sim.Time, now sim.Time) {
	for _, e := range est.table.Entries() {
		if !e.seqInit || now-e.lastHeard <= maxSilence {
			continue
		}
		e.missed++
		e.lastHeard = now
		est.Stats.AgedMisses++
		est.completeBeaconWindow(e)
	}
}
