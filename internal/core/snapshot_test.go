package core

import (
	"encoding/json"
	"errors"
	"math"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// snapEvent is one scripted estimator input for the round-trip tests: the
// same pre-generated sequence is fed to the original and the restored
// estimator, so any divergence is snapshot loss, not script drift.
type snapEvent struct {
	kind    int // 0 beacon, 1 tx result, 2 overhear, 3 age
	now     sim.Time
	src     packet.Addr
	seq     uint16
	lqi     uint8
	white   bool
	acked   bool
	entries []packet.LinkEntry
	silence sim.Time
}

// genSnapEvents scripts a deterministic, adversarial event mix: more
// neighbors than table slots (admission, eviction, and lottery draws all
// fire), footers that include self (reverse quality), sequence gaps and
// duplicates, tx acks and failures, and periodic aging.
func genSnapEvents(seed uint64, steps int, self packet.Addr) []snapEvent {
	script := sim.NewRand(seed)
	seqs := map[packet.Addr]uint16{}
	var evs []snapEvent
	now := sim.Time(0)
	for i := 0; i < steps; i++ {
		now += sim.Time(script.Int63n(int64(sim.Second)))
		ev := snapEvent{now: now}
		switch k := script.Intn(10); {
		case k < 6: // beacon from one of 24 neighbors (> TableSize)
			src := packet.Addr(1 + script.Intn(24))
			gap := uint16(1)
			if script.Bernoulli(0.2) {
				gap = uint16(script.Intn(4)) // 0 = duplicate seq
			}
			seqs[src] += gap
			ev.kind, ev.src, ev.seq = 0, src, seqs[src]
			ev.lqi = uint8(40 + script.Intn(70))
			ev.white = script.Bernoulli(0.5)
			if script.Bernoulli(0.7) {
				ev.entries = []packet.LinkEntry{{Addr: self, InQuality: uint8(script.Intn(256))}}
			}
		case k < 8: // unicast result to a likely-known neighbor
			ev.kind, ev.src, ev.acked = 1, packet.Addr(1+script.Intn(24)), script.Bernoulli(0.6)
		case k < 9: // overheard data frame
			ev.kind, ev.src, ev.lqi = 2, packet.Addr(1+script.Intn(24)), uint8(30+script.Intn(80))
		default: // aging pass
			ev.kind, ev.silence = 3, 2*sim.Second
		}
		evs = append(evs, ev)
	}
	return evs
}

// applySnapEvents feeds the scripted events to an estimator, reusing one
// LE scratch frame as the beacon path does.
func applySnapEvents(t *testing.T, est LinkEstimator, evs []snapEvent) {
	t.Helper()
	var le packet.LEFrame
	for i := range evs {
		ev := &evs[i]
		switch ev.kind {
		case 0:
			le = packet.LEFrame{Seq: ev.seq, Entries: ev.entries}
			if _, ok := est.OnBeacon(ev.src, &le, RxMeta{White: ev.white, LQI: ev.lqi}, ev.now); !ok {
				t.Fatalf("event %d: beacon refused", i)
			}
		case 1:
			est.TxResult(ev.src, ev.acked)
		case 2:
			est.OnOverhear(ev.src, RxMeta{LQI: ev.lqi}, ev.now)
		case 3:
			est.Age(ev.silence, ev.now)
		}
	}
}

// sameEstimatorView asserts two estimators are observationally identical:
// neighbor set and order, bit-exact estimates, counters, and the next
// beacon envelope (sequence number and footer round-robin position).
func sameEstimatorView(t *testing.T, a, b LinkEstimator) {
	t.Helper()
	na, nb := a.Neighbors(), b.Neighbors()
	if len(na) != len(nb) {
		t.Fatalf("neighbor counts differ: %v vs %v", na, nb)
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("neighbor order differs at %d: %v vs %v", i, na, nb)
		}
	}
	for addr := packet.Addr(0); addr < 32; addr++ {
		qa, oka := a.Quality(addr)
		qb, okb := b.Quality(addr)
		if oka != okb || math.Float64bits(qa) != math.Float64bits(qb) {
			t.Fatalf("quality for %v differs: (%x,%v) vs (%x,%v)", addr, qa, oka, qb, okb)
		}
	}
	if a.Counters() != b.Counters() {
		t.Fatalf("counters differ:\n%+v\n%+v", a.Counters(), b.Counters())
	}
	fa := *a.MakeBeacon(nil)
	fb := *b.MakeBeacon(nil)
	if fa.Seq != fb.Seq || len(fa.Entries) != len(fb.Entries) {
		t.Fatalf("beacon envelopes differ: %+v vs %+v", fa, fb)
	}
	for i := range fa.Entries {
		if fa.Entries[i] != fb.Entries[i] {
			t.Fatalf("beacon footer entry %d differs: %+v vs %+v", i, fa.Entries[i], fb.Entries[i])
		}
	}
}

// TestSnapshotRoundTripBitIdentical is the snapshot/restore certificate:
// for every kind, an estimator snapshotted mid-stream — through a JSON
// round trip — and restored into a fresh instance continues bit-identically
// to the uninterrupted original over an adversarial second half.
func TestSnapshotRoundTripBitIdentical(t *testing.T) {
	const self = packet.Addr(0)
	for _, kind := range EstimatorKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			evs := genSnapEvents(0x5eed+uint64(len(kind)), 4000, self)
			half := len(evs) / 2

			orig, err := NewKind(kind, self, DefaultConfig(), nil, sim.NewCountedRand(77))
			if err != nil {
				t.Fatal(err)
			}
			cmp := ComparerFunc(func(src packet.Addr, _ []byte) bool { return src%3 == 0 })
			orig.SetComparer(cmp)
			applySnapEvents(t, orig, evs[:half])

			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(snap)
			if err != nil {
				t.Fatal(err)
			}
			var decoded EstimatorSnapshot
			if err := json.Unmarshal(blob, &decoded); err != nil {
				t.Fatal(err)
			}
			restored, err := RestoreKind(&decoded)
			if err != nil {
				t.Fatal(err)
			}
			restored.SetComparer(cmp)

			sameEstimatorView(t, orig, restored)
			applySnapEvents(t, orig, evs[half:])
			applySnapEvents(t, restored, evs[half:])
			sameEstimatorView(t, orig, restored)
		})
	}
}

// TestSnapshotRejectsPlainRNG: estimators over ordinary simulation streams
// refuse to snapshot instead of serializing a wrong rng position.
func TestSnapshotRejectsPlainRNG(t *testing.T) {
	est := New(0, DefaultConfig(), nil, sim.NewRand(1))
	if _, err := est.Snapshot(); !errors.Is(err, ErrSnapshotRNG) {
		t.Fatalf("err = %v, want ErrSnapshotRNG", err)
	}
}

// TestSnapshotVersionAndKindGates: the restore path refuses foreign
// versions, mismatched kinds, and structurally bad payloads with typed
// errors.
func TestSnapshotVersionAndKindGates(t *testing.T) {
	est, _ := NewKind(KindWMEWMA, 0, DefaultConfig(), nil, sim.NewCountedRand(1))
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	bad := *snap
	bad.Version = SnapshotVersion + 1
	if _, err := RestoreKind(&bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version gate: err = %v, want ErrSnapshotVersion", err)
	}
	if err := est.Restore(&bad); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("version gate (Restore): err = %v, want ErrSnapshotVersion", err)
	}

	bad = *snap
	bad.Kind = KindPDR
	if err := est.Restore(&bad); !errors.Is(err, ErrSnapshotKind) {
		t.Fatalf("kind gate: err = %v, want ErrSnapshotKind", err)
	}
	bad.Kind = "no-such-kind"
	if _, err := RestoreKind(&bad); !errors.Is(err, ErrSnapshotKind) {
		t.Fatalf("unknown kind: err = %v, want ErrSnapshotKind", err)
	}

	bad = *snap
	bad.Config.TableSize = 0
	if _, err := RestoreKind(&bad); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("bad config: err = %v, want ErrSnapshotState", err)
	}

	bad = *snap
	bad.Entries = make([]EntrySnapshot, bad.Config.TableSize+1)
	for i := range bad.Entries {
		bad.Entries[i].Addr = packet.Addr(i + 1)
	}
	if err := est.Restore(&bad); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("overfull table: err = %v, want ErrSnapshotState", err)
	}

	bad = *snap
	bad.Entries = []EntrySnapshot{{Addr: 3}, {Addr: 3}}
	if err := est.Restore(&bad); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("duplicate entries: err = %v, want ErrSnapshotState", err)
	}

	for _, idx := range []int{-1, bad.Config.TableSize} {
		bad = *snap
		bad.FooterIdx = idx
		if _, err := RestoreKind(&bad); !errors.Is(err, ErrSnapshotState) {
			t.Fatalf("footer cursor %d: err = %v, want ErrSnapshotState", idx, err)
		}
	}

	bad = *snap
	bad.RNGDraws = maxRestoreDraws + 1
	if _, err := RestoreKind(&bad); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("rng position past the replay bound: err = %v, want ErrSnapshotState", err)
	}

	if _, err := RestoreKind(nil); !errors.Is(err, ErrSnapshotState) {
		t.Fatalf("nil snapshot: err = %v, want ErrSnapshotState", err)
	}
}

// TestSnapshotPreservesWiring: Restore keeps the receiver's probe bus and
// comparer — they are wiring, not state, and rolling restarts re-install
// them before events flow.
func TestSnapshotPreservesWiring(t *testing.T) {
	est := New(0, DefaultConfig(), nil, sim.NewCountedRand(5))
	asked := false
	est.SetComparer(ComparerFunc(func(packet.Addr, []byte) bool { asked = true; return false }))
	snap, err := est.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := est.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if est.cmp == nil {
		t.Fatal("comparer lost across Restore")
	}
	_ = asked
}
