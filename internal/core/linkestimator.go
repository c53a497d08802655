package core

import (
	"fmt"

	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// LinkEstimator is the router-facing contract every link estimator
// implements. Estimator, the one implementation in this package, is every
// registered kind: the paper's four-bit hybrid, the competing
// beacon-counting kinds (KindWMEWMA, KindPDR) and the pure physical-layer
// moving average (KindLQI). All plug into the same router, so estimator
// choice becomes an experiment axis instead of a protocol fork. The
// interface stays for the decorators that node.EnvConfig.WrapEstimator
// installs (serve.FeedRecorder, perfbench's timing wrapper).
//
// The contract has four parts:
//
//   - Neighbor table access: every estimator manages a shared *Table whose
//     entries publish an ETX-comparable cost through Entry.ETX. Quality is
//     the keyed lookup; Pin/Unpin are the network layer's pin bit.
//
//   - Feedback hooks: OnBeacon consumes received routing beacons (and strips
//     the layer-2.5 envelope), TxResult consumes the link layer's ack bit
//     for unicast transmissions, OnOverhear consumes physical-layer metadata
//     from non-beacon frames the node happens to receive, and Age lets the
//     router inject silence at its own beacon cadence. Implementations are
//     free to ignore any hook (the four-bit kind ignores OnOverhear; the
//     LQI kind ignores TxResult) — a hook call must then be a strict
//     no-op, consuming no randomness.
//
//   - Cost quantity: Quality reports a bidirectional-ETX-comparable value
//     (1 = perfect link, larger is worse, clamped at Config.MaxETX), so the
//     router's additive path cost works unchanged under every estimator.
//
//   - Envelope: MakeBeacon wraps the network layer's beacon payload in the
//     estimator's wire envelope (packet.LEFrame); OnBeacon unwraps it and
//     returns the network payload for delivery upward. Estimators that need
//     no footer still speak the envelope so variants interoperate on the
//     wire. The returned frame is estimator-owned scratch, valid only
//     until the next MakeBeacon call — callers serialize it immediately
//     (the beacon path does) rather than retaining it.
//
// RNG-stream discipline: an estimator draws only from the *sim.Rand it was
// constructed with (the per-node "est/<addr>" stream), and only inside
// feedback hooks that the four-bit estimator would also be called on.
// That keeps every other stream in the simulation untouched by estimator
// choice, which is what makes estimator sweeps comparable seed-for-seed.
type LinkEstimator interface {
	// Neighbor table access.
	Table() *Table
	Quality(addr packet.Addr) (etx float64, ok bool)
	Pin(addr packet.Addr) bool
	Unpin(addr packet.Addr) bool
	Neighbors() []packet.Addr

	// Feedback hooks.
	OnBeacon(src packet.Addr, le *packet.LEFrame, meta RxMeta, now sim.Time) ([]byte, bool)
	TxResult(dest packet.Addr, acked bool)
	OnOverhear(src packet.Addr, meta RxMeta, now sim.Time)
	Age(maxSilence sim.Time, now sim.Time)

	// Envelope and wiring.
	MakeBeacon(netPayload []byte) *packet.LEFrame
	SetComparer(cmp Comparer)
	// SetProbes installs the run's probe bus; the estimator emits its
	// table admission/eviction events into it. A nil bus (the default)
	// silences the events. Like SetComparer it exists for post-construction
	// wiring — estimators are built without a clock, so they cannot find
	// the bus themselves.
	SetProbes(b *probe.Bus)

	// Counters returns the estimator-internal event counts.
	Counters() Stats

	// Snapshot serializes the estimator's complete state — table entries in
	// insertion order, window accounting, wire-envelope cursors, counters,
	// and the rng stream position — such that RestoreKind (or Restore on a
	// fresh instance of the same kind) continues bit-identically: every
	// subsequent estimate, admission decision, and beacon footer matches
	// what the un-snapshotted estimator would have produced. It fails for
	// estimators built over plain (uncounted) rng streams, whose position
	// is unobservable; long-running instances use sim.NewCountedRand.
	Snapshot() (*EstimatorSnapshot, error)
	// Restore replaces the estimator's state with the snapshot's. The
	// snapshot must carry the receiver's kind and a supported version;
	// installed probe buses and comparers survive the restore.
	Restore(snap *EstimatorSnapshot) error
}

// EstimatorKind names a pluggable estimator implementation. The zero value
// selects the four-bit hybrid, so existing configurations are unchanged.
type EstimatorKind string

// The registered estimator kinds.
const (
	// KindFourBit is the paper's hybrid estimator (beacon-driven windowed
	// EWMA bootstrap + unicast ack-bit windows + white/compare admission),
	// including its Figure 6 ablations via Config.Features.
	KindFourBit EstimatorKind = "4bit"
	// KindWMEWMA is the Woo-style beacon-only estimator (the WMEWMA of
	// "Taming the Underlying Challenges of Reliable Multihop Routing in
	// Sensor Networks"): the inbound beacon reception ratio over a window
	// of Config.MAWindow beacons is smoothed by an EWMA, combined with the
	// neighbor-advertised reverse quality from beacon footers, and
	// inverted into a bidirectional ETX through the outer EWMA. It is the
	// four-bit Estimator with its own window length and no feature bit
	// honoured, whatever Config.Features says — the paper's "CTP without
	// the unicast bit" baseline. TxResult and OnOverhear are strict
	// no-ops and admission never asks the compare bit, so its window
	// turns over only at beacon cadence, which Trickle decays to minutes:
	// the estimator the paper argues is too sluggish to track data-path
	// failures.
	KindWMEWMA EstimatorKind = "wmewma"
	// KindPDR is a windowed-mean packet-delivery-ratio estimator, the
	// simple-moving-average family studied by "On the Accuracy and
	// Precision of Moving Averages to Estimate Wi-Fi Link Quality"
	// (arXiv:2411.12265). It is KindWMEWMA with both EWMA weights at zero:
	// the latest MAWindow-beacon reception ratio is the estimate (and is
	// advertised verbatim in footers), combined with the footer reverse
	// quality into a bidirectional ETX. Against KindWMEWMA it trades
	// precision for accuracy under change: a link shift is fully
	// reflected after one window, but every estimate carries the full
	// sampling noise of a MAWindow-packet Bernoulli trial.
	KindPDR EstimatorKind = "pdr"
	// KindLQI is a pure physical-layer estimator: an EWMA over the LQI of
	// received frames, mapped to an ETX-comparable cost by the MultiHopLQI
	// cubic. It never sees missed packets — the blindness the paper's
	// Figure 3 documents.
	KindLQI EstimatorKind = "lqi"
)

// EstimatorKinds lists the registered kinds in presentation order.
func EstimatorKinds() []EstimatorKind {
	return []EstimatorKind{KindFourBit, KindWMEWMA, KindPDR, KindLQI}
}

// ParseEstimatorKind resolves a kind name; the empty string is the default
// (four-bit).
func ParseEstimatorKind(s string) (EstimatorKind, error) {
	if s == "" {
		return KindFourBit, nil
	}
	for _, k := range EstimatorKinds() {
		if string(k) == s {
			return k, nil
		}
	}
	return "", fmt.Errorf("core: unknown estimator kind %q (kinds: %v)", s, EstimatorKinds())
}

// NewKind constructs an estimator of the given kind. The empty kind means
// KindFourBit, so callers can pass a selector through unset. cmp may be nil;
// routers that provide the compare bit install it via SetComparer.
func NewKind(kind EstimatorKind, self packet.Addr, cfg Config, cmp Comparer, rng *sim.Rand) (LinkEstimator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch kind {
	case "", KindFourBit:
		return New(self, cfg, cmp, rng), nil
	case KindWMEWMA, KindPDR, KindLQI:
		return newEstimator(kind, self, cfg, cmp, rng), nil
	default:
		_, err := ParseEstimatorKind(string(kind))
		return nil, err
	}
}
