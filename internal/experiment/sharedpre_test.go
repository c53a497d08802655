package experiment

import (
	"reflect"
	"testing"

	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The shared-precompute contract: a replica batch pays the O(n²) channel
// geometry once per (topology, phy-params) cell, every worker reads the
// same immutable precompute, and nothing about the results changes — not
// one byte — relative to each run rebuilding the channel from scratch.

func shortReplicaConfig(seed uint64) RunConfig {
	rc := DefaultRunConfig(Proto4B, topo.Mirage(seed), seed)
	rc.Duration = 90 * sim.Second
	rc.Warmup = 30 * sim.Second
	return rc
}

// TestReplicatePrecomputeOnce pins the setup-cost contract: replicating one
// config across 8 seeds builds the channel precompute exactly once, not
// once per seed.
func TestReplicatePrecomputeOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	before := phy.PrecomputeCount()
	rep := Replicate(shortReplicaConfig(21), 8)
	if got := phy.PrecomputeCount() - before; got != 1 {
		t.Errorf("Replicate(8 seeds) paid %d channel precomputes, want 1", got)
	}
	if len(rep.Runs) != 8 {
		t.Fatalf("want 8 runs, got %d", len(rep.Runs))
	}
}

// TestSweepBatchPrecomputePerCell checks the grouping key: a mixed batch
// over two topologies precomputes once per topology, and transmit power —
// which never enters channel construction — does not split a cell.
func TestSweepBatchPrecomputePerCell(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	tpA, tpB := topo.Mirage(31), topo.Mirage(32)
	var rcs []RunConfig
	for _, tp := range []*topo.Topology{tpA, tpB} {
		for _, pw := range []float64{0, -7} {
			rc := DefaultRunConfig(Proto4B, tp, 31)
			rc.TxPowerDBm = pw
			rc.Duration = 45 * sim.Second
			rc.Warmup = 15 * sim.Second
			rcs = append(rcs, rc)
		}
	}
	before := phy.PrecomputeCount()
	RunAllWorkers(rcs, 2)
	if got := phy.PrecomputeCount() - before; got != 2 {
		t.Errorf("2-topology × 2-power batch paid %d precomputes, want 2 (one per topology)", got)
	}
}

// TestReplicateWorkersSharedPreInvariance runs the same replica batch over
// an explicitly shared precompute at several worker counts and demands
// byte-identical Replicated aggregates against the serial, unshared
// baseline. Under -race this doubles as the proof that the precompute is
// genuinely read-only across the pool.
func TestReplicateWorkersSharedPreInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	rc := shortReplicaConfig(23)
	serial := ReplicateWorkers(rc, 6, 1)

	// Pre-build the immutable part once, hand it to every run explicitly.
	envCfg := resolveEnv(rc)
	envCfg.ChanPre = phy.PrecomputeGeo(rc.Topo, envCfg.Phy)
	shared := rc
	shared.Env = &envCfg

	for _, workers := range []int{1, 2, 4, 8} {
		rep := ReplicateWorkers(shared, 6, workers)
		if !reflect.DeepEqual(serial, rep) {
			t.Errorf("aggregates differ from serial baseline at %d workers over shared precompute", workers)
		}
	}
}
