package core

import (
	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Table mechanics every kind shares: admission and eviction by one
// Woo-style policy (admit), and the LE beacon envelope's sequence window,
// footer scan and footer build.

// effETX is the eviction-policy view of an entry, shared by every
// estimator kind: its estimate if initialized; MaxETX for a mature
// estimate-less squatter (the maturity rule of Woo et al.); 0 — not
// evictable — while warming up. A plain function rather than a per-kind
// closure so the admission scans, the hottest loops of the whole
// simulator, inline it. (The lqi kind publishes on the first sample, so
// its entries never hit the squatter clause — behavior is identical for
// all kinds.)
func effETX(e *Entry, maxETX float64) float64 {
	if e.etxInit {
		return e.etx
	}
	if e.windows >= matureWindows {
		return maxETX
	}
	return 0
}

// evictWorst removes the unpinned entry with the highest effective ETX if
// that ETX reaches the eviction threshold, naming the victim and reporting
// whether a slot was freed. Mature entries without an estimate count as
// maxETX (see effETX).
func evictWorst(t *Table, maxETX, threshold float64) (packet.Addr, bool) {
	var victim packet.Addr
	worst := -1.0
	for _, e := range t.entries {
		if e.Pinned {
			continue
		}
		etx := effETX(e, maxETX)
		if etx > worst {
			worst = etx
			victim = e.Addr
		}
	}
	if worst < threshold {
		return 0, false
	}
	return victim, t.Remove(victim)
}

// evictForReplacement frees a slot for a qualified newcomer: the unpinned
// entry with the worst effective ETX goes (mirroring the TinyOS 4-bit
// estimator, which replaces its worst mature neighbor on a set compare
// bit); if every unpinned entry is still warming up, a random one goes
// instead. Evicting the *best* links here would churn the table faster
// than estimates mature — the failure mode the maturity rules of Woo et
// al. exist to prevent. The victim is named so callers can report the
// eviction.
func evictForReplacement(t *Table, maxETX float64, rng *sim.Rand) (packet.Addr, bool) {
	var victim packet.Addr
	worst := 0.0
	for _, e := range t.entries {
		if e.Pinned {
			continue
		}
		if etx := effETX(e, maxETX); etx > worst {
			worst = etx
			victim = e.Addr
		}
	}
	if worst > 0 {
		return victim, t.Remove(victim)
	}
	return t.evictRandomUnpinned(rng)
}

// matureWindows is the number of completed estimation windows after which
// an entry that still has no estimate counts as a squatter (effective ETX
// = MaxETX) for eviction purposes — the maturity rule of Woo et al.,
// shared by every kind's effectiveETX.
const matureWindows = 3

func mustInsert(t *Table, src packet.Addr) *Entry {
	e := t.Insert(src)
	if e == nil {
		panic("core: insert failed after eviction")
	}
	return e
}

// admit decides whether a beacon from an unknown neighbor earns a table
// slot; it is the admission policy of every kind. Free slots are always
// granted (Woo et al.). With a full table, the standard replacement policy
// lets a newcomer displace the unpinned entry with the worst effective ETX
// when that entry is bad enough to be useless. Next, only for a white
// beacon when the kind honours WhiteCompare and a comparer is installed,
// comes the white/compare step unique to the 4B design (§3.3): the network
// layer is asked whether src offers a better route, and a yes evicts for
// it. Last, the FREQUENCY lottery. Admission outcomes are emitted as table
// events through the estimator's probe bus.
func (est *Estimator) admit(src packet.Addr, white bool, netPayload []byte) *Entry {
	t, cfg, stats := est.table, &est.cfg, &est.Stats
	if e := t.Insert(src); e != nil {
		stats.Inserted++
		est.probes.Table(est.self, src, probe.OpInsert)
		return e
	}
	// Standard policy first: displace a demonstrably useless entry. This
	// keeps squatters from poisoning the white/compare path below.
	if victim, ok := evictWorst(t, cfg.MaxETX, cfg.EvictETX); ok {
		stats.Replaced++
		est.emitReplace(victim, src)
		return mustInsert(t, src)
	}
	if est.feat.WhiteCompare && white && est.cmp != nil {
		stats.CompareAsked++
		if est.cmp.CompareBit(src, netPayload) {
			stats.CompareTrue++
			if victim, ok := evictForReplacement(t, cfg.MaxETX, est.rng); ok {
				stats.Replaced++
				est.emitReplace(victim, src)
				return mustInsert(t, src)
			}
		}
	}
	// FREQUENCY lottery (Woo et al.): persistent senders eventually win a
	// slot even when every incumbent looks individually fine. The victim
	// is the worst unpinned entry, never a random good one — otherwise
	// rarely-heard phantom neighbors (one lucky fade per hour) would
	// erode real links in sparse low-power networks.
	if est.rng.Bernoulli(cfg.LotteryProb) {
		if victim, ok := evictForReplacement(t, cfg.MaxETX, est.rng); ok {
			stats.Replaced++
			stats.LotteryWins++
			est.emitReplace(victim, src)
			return mustInsert(t, src)
		}
	}
	stats.RejectedFull++
	est.probes.Table(est.self, src, probe.OpReject)
	return nil
}

// emitReplace reports an eviction-for-admission pair on the probe bus.
func (est *Estimator) emitReplace(victim, newcomer packet.Addr) {
	est.probes.Table(est.self, victim, probe.OpEvict)
	est.probes.Table(est.self, newcomer, probe.OpReplace)
}

// accountSeq folds a received beacon's sequence number into the entry's
// reception window: gaps count as misses, wraparound is handled by uint16
// arithmetic, and implausibly long silences restart the window.
func accountSeq(e *Entry, seq uint16, maxSeqGap int, now sim.Time) {
	e.lastHeard = now
	if !e.seqInit {
		e.seqInit = true
		e.lastSeq = seq
		e.rcvd = 1
		return
	}
	gap := int(seq - e.lastSeq) // uint16 arithmetic handles wraparound
	e.lastSeq = seq
	switch {
	case gap == 0:
		// Duplicate delivery; ignore.
	case gap > maxSeqGap || gap < 0:
		// Too long a silence (or a rebooted neighbor): restart the window
		// rather than recording an implausible miss burst.
		e.rcvd, e.missed = 1, 0
	default:
		e.missed += gap - 1
		e.rcvd++
	}
}

// scanFooter records the reverse (outbound) quality the neighbor advertises
// for us in its beacon footer.
func scanFooter(e *Entry, le *packet.LEFrame, self packet.Addr) {
	for _, ent := range le.Entries {
		if ent.Addr == self {
			e.outQuality = float64(ent.InQuality) / 255
			e.outValid = true
		}
	}
}

// buildBeacon assembles the LE envelope around a network payload: the given
// sequence number plus a round-robin subset of the table's inbound
// qualities as the footer. It fills le in place — the estimator's scratch
// frame, whose Entries backing array is reused beacon after beacon.
func buildBeacon(le *packet.LEFrame, t *Table, seq uint16, footerIdx *int, footerEntries int, netPayload []byte) {
	le.Seq, le.NetPayload, le.Entries = seq, netPayload, le.Entries[:0]
	entries := t.Entries()
	n := len(entries)
	max := footerEntries
	if max > packet.MaxLinkEntries {
		max = packet.MaxLinkEntries
	}
	for i := 0; i < n && len(le.Entries) < max; i++ {
		e := entries[(*footerIdx+i)%n]
		if !e.prrInit {
			continue
		}
		le.Entries = append(le.Entries, packet.LinkEntry{
			Addr:      e.Addr,
			InQuality: uint8(float64(e.prrEwma*255) + 0.5),
		})
	}
	if n > 0 {
		*footerIdx = (*footerIdx + 1) % n
	}
}

// invQuality converts a delivery ratio into an ETX-comparable cost.
func invQuality(q, maxETX float64) float64 {
	if q <= 1/maxETX {
		return maxETX
	}
	return 1 / q
}

// foldETX pushes one clamped ETX sample into the entry's published
// estimate through the outer EWMA (alpha 1 reduces to initialization-only;
// alpha is the weight on the old value).
func foldETX(e *Entry, sample, alpha, maxETX float64) {
	if sample < 1 {
		sample = 1
	}
	if sample > maxETX {
		sample = maxETX
	}
	if !e.etxInit {
		e.etxInit = true
		e.etx = sample
		return
	}
	e.etx = float64(alpha*e.etx) + float64((1-alpha)*sample)
}
