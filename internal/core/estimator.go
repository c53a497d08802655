package core

import (
	"fourbit/internal/packet"
	"fourbit/internal/probe"
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

// Estimator is the link estimator of every registered kind: the paper's
// four-bit hybrid (with its Figure 6 ablations via Config.Features), the
// beacon-only wmewma and pdr kinds, and the pure-LQI lqi kind, which differ
// only in what derive sets. It acts as a layer 2.5: routing beacons pass
// through MakeBeacon / OnBeacon, which add and strip the LE envelope.
type Estimator struct {
	table  *Table
	self   packet.Addr
	probes *probe.Bus
	kind   EstimatorKind
	cfg    Config // as configured; snapshots carry it verbatim
	cmp    Comparer
	rng    *sim.Rand

	// What the kind decides, set by derive.
	lqiSamples         bool     // samples are frame LQIs, not beacon windows
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

// newEstimator builds an estimator of the given kind.
func newEstimator(kind EstimatorKind, self packet.Addr, cfg Config, cmp Comparer, rng *sim.Rand) *Estimator {
	if err := cfg.Validate(); err != nil {
		panic("core: invalid estimator config: " + err.Error())
	}
	est := &Estimator{
		table: newTable(cfg.TableSize),
		self:  self,
		kind:  kind,
		cfg:   cfg,
		cmp:   cmp,
		rng:   rng,
	}
	est.derive()
	return est
}

// derive sets the four things the kind decides from the kind and cfg, so
// no per-call path looks at the kind itself:
//   - the sample source: beacon windows, or for lqi the LQI of every
//     beacon and of every overheard frame from a tabled neighbour;
//   - the window: BeaconWindow for 4bit, MAWindow for wmewma and pdr;
//   - the bits it honours: cfg.Features for 4bit, none otherwise;
//   - the publish step: the double EWMA over cfg's alphas; for pdr both
//     weights at 0, which publishes the window mean unsmoothed; for lqi
//     ETXFromLQI over the PRRAlpha EWMA of the samples.
func (est *Estimator) derive() {
	c := &est.cfg
	est.lqiSamples = est.kind == KindLQI
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

// SetProbes implements LinkEstimator: it installs the run's probe bus,
// into which the estimator emits its table admission/eviction events.
// Estimators are built without a clock, so unlike the other layers they
// receive the bus explicitly (node wiring calls this right after NewKind).
func (est *Estimator) SetProbes(b *probe.Bus) { est.probes = b }

// Counters implements LinkEstimator.
func (est *Estimator) Counters() Stats { return est.Stats }

// Table exposes the link table for inspection (routing, metrics, tests).
func (est *Estimator) Table() *Table { return est.table }

// Quality returns the current bidirectional ETX estimate for addr. ok is
// false while no estimate exists (unknown neighbor, or still bootstrapping).
func (est *Estimator) Quality(addr packet.Addr) (etx float64, ok bool) {
	e := est.table.Find(addr)
	if e == nil || !e.etxInit {
		return 0, false
	}
	return e.etx, true
}

// Pin sets the pin bit on addr (network layer: "this link is in use").
func (est *Estimator) Pin(addr packet.Addr) bool { return est.table.Pin(addr) }

// Unpin clears the pin bit on addr.
func (est *Estimator) Unpin(addr packet.Addr) bool { return est.table.Unpin(addr) }

// Neighbors returns the addresses currently in the table.
func (est *Estimator) Neighbors() []packet.Addr {
	out := make([]packet.Addr, 0, est.table.Len())
	for _, e := range est.table.Entries() {
		out = append(out, e.Addr)
	}
	return out
}

// OnOverhear feeds the LQI of a received non-beacon frame into the
// sender's existing entry for the lqi kind: data traffic refines its
// estimate at data cadence, while admission stays beacon-driven (a unicast
// sender is already a neighbor). For every other kind it is a strict
// no-op: the 4B design deliberately takes nothing from non-beacon
// receptions beyond the ack bit (TxResult).
func (est *Estimator) OnOverhear(src packet.Addr, meta RxMeta, now sim.Time) {
	if !est.lqiSamples {
		return
	}
	if e := est.table.Find(src); e != nil {
		est.hearLQI(e, meta.LQI, now)
	}
}

// MakeBeacon wraps the network layer's beacon payload in the LE envelope:
// it assigns the next beacon sequence number and attaches a round-robin
// subset of the table's inbound qualities as the footer. The lqi kind
// keeps no reception ratios to advertise, so its envelope carries the
// sequence number (receivers of other kinds may count it) and no footer,
// and its footer cursor never moves.
func (est *Estimator) MakeBeacon(netPayload []byte) *packet.LEFrame {
	est.beaconSeq++
	le := &est.beaconScratch
	if est.lqiSamples {
		le.Seq, le.NetPayload, le.Entries = est.beaconSeq, netPayload, le.Entries[:0]
		return le
	}
	buildBeacon(le, est.table, est.beaconSeq, &est.footerIdx, est.cfg.FooterEntries, netPayload)
	return le
}

// OnBeacon processes a received routing beacon (already stripped of its MAC
// frame): table admission — with the white/compare step of §3.3 when the
// kind honours WhiteCompare — then the kind's sample. For the beacon-
// counting kinds that is sequence-number accounting for the inbound PRR
// window and footer processing for reverse quality; for lqi it is the
// beacon's own LQI, exactly as MultiHopLQI judges the link by the beacon
// that carried the advertisement. It returns the network payload for
// delivery upward, and false if the beacon was malformed.
func (est *Estimator) OnBeacon(src packet.Addr, le *packet.LEFrame, meta RxMeta, now sim.Time) ([]byte, bool) {
	if le == nil {
		return nil, false
	}
	est.Stats.BeaconsIn++
	e := est.table.Find(src)
	if e == nil {
		e = est.admit(src, meta.White, le.NetPayload)
	}
	switch {
	case e == nil: // the full table turned the newcomer away
	case est.lqiSamples:
		est.hearLQI(e, meta.LQI, now)
	default:
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
	est.foldPRR(e, sample)

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

// Age makes silence visible: every entry not heard for longer than
// maxSilence takes one synthetic missed beacon, so the broadcast stream
// notices dead neighbors that send nothing (the routing engine calls this
// at its own beacon cadence). An entry ages once it has a beacon window
// running; for the lqi kind, once it has an estimate, whose cost then
// doubles (see ageLQI). Pinned entries age too — the route through them
// should look worse — but are never evicted here.
func (est *Estimator) Age(maxSilence sim.Time, now sim.Time) {
	for _, e := range est.table.Entries() {
		started := e.seqInit
		if est.lqiSamples {
			started = e.etxInit
		}
		if !started || now-e.lastHeard <= maxSilence {
			continue
		}
		e.lastHeard = now
		est.Stats.AgedMisses++
		if est.lqiSamples {
			ageLQI(e, est.cfg.MaxETX)
			continue
		}
		e.missed++
		est.completeBeaconWindow(e)
	}
}

// foldPRR pushes one sample into the entry's inner EWMA (weight prrAlpha
// on history) and counts the completed window: a beacon window's reception
// ratio, or for the lqi kind one frame's LQI.
func (est *Estimator) foldPRR(e *Entry, sample float64) {
	e.windows++
	if !e.prrInit {
		e.prrInit = true
		e.prrEwma = sample
	} else {
		a := est.prrAlpha
		e.prrEwma = float64(a*e.prrEwma) + float64((1-a)*sample)
	}
	est.Stats.BeaconWindows++
}
