package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Regenerate (only for a deliberate, documented snapshot schema change) with:
//
//	go test ./internal/core -run TestSnapshotGoldens -update-snapshots
var updateSnapshots = flag.Bool("update-snapshots", false, "rewrite testdata/snapshot_<kind>.json from the current build")

// TestSnapshotGoldens pins snapshots across builds, where the round-trip
// test pins them only within one: for every kind, a fixed scripted feed
// over a counted rng stream must snapshot to the committed bytes, and the
// committed snapshot, restored, must continue bit-identically with the
// uninterrupted estimator. A snapshot written by an older build therefore
// restores into this one.
func TestSnapshotGoldens(t *testing.T) {
	const self = packet.Addr(0)
	cmp := ComparerFunc(func(src packet.Addr, _ []byte) bool { return src%3 == 0 })
	for _, kind := range EstimatorKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			evs := genSnapEvents(0x901d, 1000, self)
			half := len(evs) / 2

			orig, err := NewKind(kind, self, DefaultConfig(), nil, sim.NewCountedRand(19))
			if err != nil {
				t.Fatal(err)
			}
			orig.SetComparer(cmp)
			applySnapEvents(t, orig, evs[:half])
			for i := 0; i < 3; i++ { // move the envelope cursors off zero
				orig.MakeBeacon(nil)
			}
			snap, err := orig.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.MarshalIndent(snap, "", "\t")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')

			path := filepath.Join("testdata", "snapshot_"+string(kind)+".json")
			if *updateSnapshots {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s", path)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-snapshots to create): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("Snapshot() bytes diverged from %s:\ngot:\n%s", path, got)
			}

			var decoded EstimatorSnapshot
			if err := json.Unmarshal(want, &decoded); err != nil {
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
