package core

import (
	"errors"
	"fmt"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Estimator snapshot/restore: the serializable form of a LinkEstimator's
// complete state. A snapshot taken mid-stream and restored into a fresh
// process continues bit-identically — same estimates, same admission
// decisions, same beacon footers — because it captures everything the
// estimator's future behavior depends on: every table entry field in
// insertion order (the footer round-robin, eviction scans, and
// random-victim draws all observe that order), the window accounting in
// progress, the wire-envelope cursors, the counters, and the rng stream
// position (seed + draw count of a counted stream; see sim.NewCountedRand).
//
// The format is JSON-friendly: Go's float64 encoding is shortest-round-trip
// exact, so estimates survive marshal/unmarshal bit-for-bit. Version gates
// the schema — a snapshot from a different schema is refused, never
// misinterpreted.

// SnapshotVersion is the current estimator snapshot schema version.
// Restore refuses any other value.
const SnapshotVersion = 1

// maxRestoreDraws bounds the rng position a snapshot may carry. Restore
// replays the stream one draw at a time (about a second at this bound), so
// an unbounded position in an untrusted snapshot would pin a CPU.
const maxRestoreDraws = 1 << 28

// Snapshot/restore errors. Callers branch on these with errors.Is.
var (
	// ErrSnapshotRNG: the estimator draws from a plain stream whose
	// position cannot be observed (simulation wiring); only estimators
	// built over sim.NewCountedRand streams are snapshotable.
	ErrSnapshotRNG = errors.New("core: estimator rng stream is not snapshotable (use sim.NewCountedRand)")
	// ErrSnapshotVersion: the snapshot's schema version is not supported.
	ErrSnapshotVersion = errors.New("core: unsupported estimator snapshot version")
	// ErrSnapshotKind: the snapshot's kind does not match the estimator
	// (or names no registered kind).
	ErrSnapshotKind = errors.New("core: estimator snapshot kind mismatch")
	// ErrSnapshotState: the snapshot's payload is structurally invalid
	// (more entries than the table holds, duplicate addresses, bad config).
	ErrSnapshotState = errors.New("core: invalid estimator snapshot state")
)

// EntrySnapshot is the serialized form of one table Entry — every field,
// including the unexported window accounting, so a restored entry resumes
// its in-progress windows exactly.
type EntrySnapshot struct {
	Addr   packet.Addr `json:"addr"`
	Pinned bool        `json:"pinned,omitempty"`

	SeqInit   bool     `json:"seq_init,omitempty"`
	LastSeq   uint16   `json:"last_seq,omitempty"`
	Rcvd      int      `json:"rcvd,omitempty"`
	Missed    int      `json:"missed,omitempty"`
	PRRInit   bool     `json:"prr_init,omitempty"`
	PRREwma   float64  `json:"prr_ewma,omitempty"`
	LastHeard sim.Time `json:"last_heard,omitempty"`

	OutQuality float64 `json:"out_quality,omitempty"`
	OutValid   bool    `json:"out_valid,omitempty"`

	UTotal     int `json:"u_total,omitempty"`
	UAcked     int `json:"u_acked,omitempty"`
	FailsSince int `json:"fails_since,omitempty"`

	ETXInit bool    `json:"etx_init,omitempty"`
	ETX     float64 `json:"etx,omitempty"`

	Windows int `json:"windows,omitempty"`
}

// EstimatorSnapshot is the versioned, serializable state of one estimator
// instance. Entries appear in table insertion order.
type EstimatorSnapshot struct {
	Version  int           `json:"version"`
	Kind     EstimatorKind `json:"kind"`
	Self     packet.Addr   `json:"self"`
	Config   Config        `json:"config"`
	RNGSeed  uint64        `json:"rng_seed"`
	RNGDraws uint64        `json:"rng_draws"`

	BeaconSeq uint16          `json:"beacon_seq"`
	FooterIdx int             `json:"footer_idx,omitempty"`
	Stats     Stats           `json:"stats"`
	Entries   []EntrySnapshot `json:"entries"`
}

// snapshot serializes one entry.
func (e *Entry) snapshot() EntrySnapshot {
	return EntrySnapshot{
		Addr: e.Addr, Pinned: e.Pinned,
		SeqInit: e.seqInit, LastSeq: e.lastSeq, Rcvd: e.rcvd, Missed: e.missed,
		PRRInit: e.prrInit, PRREwma: e.prrEwma, LastHeard: e.lastHeard,
		OutQuality: e.outQuality, OutValid: e.outValid,
		UTotal: e.uTotal, UAcked: e.uAcked, FailsSince: e.failsSince,
		ETXInit: e.etxInit, ETX: e.etx,
		Windows: e.windows,
	}
}

// restoreInto writes the snapshot's fields over a freshly-inserted entry.
func (s *EntrySnapshot) restoreInto(e *Entry) {
	e.Pinned = s.Pinned
	e.seqInit, e.lastSeq, e.rcvd, e.missed = s.SeqInit, s.LastSeq, s.Rcvd, s.Missed
	e.prrInit, e.prrEwma, e.lastHeard = s.PRRInit, s.PRREwma, s.LastHeard
	e.outQuality, e.outValid = s.OutQuality, s.OutValid
	e.uTotal, e.uAcked, e.failsSince = s.UTotal, s.UAcked, s.FailsSince
	e.etxInit, e.etx = s.ETXInit, s.ETX
	e.windows = s.Windows
}

// Snapshot implements LinkEstimator.
func (est *Estimator) Snapshot() (*EstimatorSnapshot, error) {
	seed, draws, ok := est.rng.SnapshotState()
	if !ok {
		return nil, ErrSnapshotRNG
	}
	snap := &EstimatorSnapshot{
		Version: SnapshotVersion, Kind: est.kind, Self: est.self, Config: est.cfg,
		RNGSeed: seed, RNGDraws: draws,
		BeaconSeq: est.beaconSeq, FooterIdx: est.footerIdx, Stats: est.Stats,
		Entries: make([]EntrySnapshot, 0, est.table.Len()),
	}
	for _, e := range est.table.Entries() {
		snap.Entries = append(snap.Entries, e.snapshot())
	}
	return snap, nil
}

// Restore implements LinkEstimator; what the kind decides is derived
// afresh from the restored config. The installed comparer and probe bus
// survive — they are receiver-side wiring, not estimator state.
func (est *Estimator) Restore(snap *EstimatorSnapshot) error {
	if snap == nil {
		return fmt.Errorf("%w: nil snapshot", ErrSnapshotState)
	}
	if snap.Version != SnapshotVersion {
		return fmt.Errorf("%w: snapshot has version %d, this build speaks %d",
			ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	if snap.Kind != est.kind {
		return fmt.Errorf("%w: snapshot is %q, estimator is %q", ErrSnapshotKind, snap.Kind, est.kind)
	}
	if err := snap.Config.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotState, err)
	}
	if snap.RNGDraws > maxRestoreDraws {
		return fmt.Errorf("%w: rng position %d exceeds the replay bound %d",
			ErrSnapshotState, snap.RNGDraws, uint64(maxRestoreDraws))
	}
	if len(snap.Entries) > snap.Config.TableSize {
		return fmt.Errorf("%w: %d entries exceed table size %d",
			ErrSnapshotState, len(snap.Entries), snap.Config.TableSize)
	}
	// MakeBeacon indexes the table by the footer cursor, which it keeps
	// below the table's length, so a cursor outside [0, TableSize) could
	// only come from a forged snapshot and would panic the next beacon.
	if snap.FooterIdx < 0 || snap.FooterIdx >= snap.Config.TableSize {
		return fmt.Errorf("%w: footer cursor %d outside [0, %d)",
			ErrSnapshotState, snap.FooterIdx, snap.Config.TableSize)
	}
	t := newTable(snap.Config.TableSize)
	for i := range snap.Entries {
		s := &snap.Entries[i]
		if t.Find(s.Addr) != nil {
			return fmt.Errorf("%w: duplicate entry for %v", ErrSnapshotState, s.Addr)
		}
		s.restoreInto(t.Insert(s.Addr))
	}
	est.table, est.self, est.cfg = t, snap.Self, snap.Config
	est.rng = sim.RestoreCountedRand(snap.RNGSeed, snap.RNGDraws)
	est.beaconSeq, est.footerIdx, est.Stats = snap.BeaconSeq, snap.FooterIdx, snap.Stats
	est.derive()
	return nil
}

// RestoreKind builds a fresh estimator of the snapshot's kind and restores
// the snapshot into it — the rolling-restart path: serialize with Snapshot,
// ship the JSON, RestoreKind on the other side, continue bit-identically.
// The returned estimator has no comparer or probe bus installed; callers
// re-wire those as after NewKind.
func RestoreKind(snap *EstimatorSnapshot) (LinkEstimator, error) {
	if snap == nil {
		return nil, fmt.Errorf("%w: nil snapshot", ErrSnapshotState)
	}
	if _, err := ParseEstimatorKind(string(snap.Kind)); err != nil || snap.Kind == "" {
		return nil, fmt.Errorf("%w: %q", ErrSnapshotKind, snap.Kind)
	}
	est := &Estimator{kind: snap.Kind}
	if err := est.Restore(snap); err != nil {
		return nil, err
	}
	return est, nil
}
