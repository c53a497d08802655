package scenario

import (
	"testing"

	"fourbit/internal/phy"
)

// TestScenarioBatchesSharePrecompute pins the set-up cost of the scenario
// path: a batch builds each distinct geometry once, so the worker pool
// pays one channel precompute per geometry, not one per run. Protocol and
// transmit power never split a geometry; the placement seed does, unless
// the topology pins its own. The figure batch runs on two workers, so
// under -race it also shows the shared topology is only read.
func TestScenarioBatchesSharePrecompute(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	const minutes = 0.5
	uniform := Spec{Topology: TopoSpec{Kind: "uniform", N: 20}, Seed: 5}
	pinned := uniform
	pinned.Topology.Seed = 9
	sweep := func(sw Sweep) func() {
		sw.Base.DurationMin, sw.Base.WarmupMin = minutes, minutes/2
		return func() {
			if _, err := sw.Run(2); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		run  func()
		want uint64
	}{
		{"fig6", func() { RunFig6(1, minutes, 2) }, 1},
		{"power sweep", func() { RunPowerSweep(1, minutes, 2) }, 1},
		{"headline", func() { RunHeadline(1, minutes, 2) }, 2},
		{"protocol x txpower sweep", sweep(Sweep{Base: Spec{Seed: 3}, Axes: []Axis{
			{Param: "protocol", Strings: []string{"4B", "CTP", "MultiHopLQI"}},
			{Param: "txpower", Values: []float64{0, -10}},
		}}), 1},
		{"seed axis", sweep(Sweep{Base: uniform, Axes: []Axis{
			{Param: "seed", Values: []float64{5, 6, 5, 7}},
			{Param: "protocol", Strings: []string{"4B", "CTP"}},
		}}), 3},
		{"seed axis, pinned placement", sweep(Sweep{Base: pinned, Axes: []Axis{
			{Param: "seed", Values: []float64{5, 6, 7}},
		}}), 1},
	}
	for _, c := range cases {
		before := phy.PrecomputeCount()
		c.run()
		if got := phy.PrecomputeCount() - before; got != c.want {
			t.Errorf("%s: %d channel precomputes, want %d", c.name, got, c.want)
		}
	}
}

// TestBatchSharesTopology checks the key the sharing hangs on: specs
// that differ only in protocol or power get one topology, while a
// different kind or placement seed gets its own, and a topology seed
// equal to the scenario seed is the same placement as none.
func TestBatchSharesTopology(t *testing.T) {
	base := Spec{Topology: TopoSpec{Kind: "uniform", N: 12}, Seed: 4, DurationMin: 1}
	specs := make([]Spec, 5)
	for i := range specs {
		specs[i] = base
	}
	specs[1].Protocol, specs[1].TxPowerDBm = "CTP", -10
	specs[2].Topology.Seed = 4
	specs[3].Seed = 8
	specs[4].Topology.Kind = "corridor"
	rcs, err := BuildRuns(specs)
	if err != nil {
		t.Fatal(err)
	}
	if rcs[0].Topo != rcs[1].Topo || rcs[0].Topo != rcs[2].Topo {
		t.Error("specs on one geometry built separate topologies")
	}
	if rcs[3].Topo == rcs[0].Topo || rcs[4].Topo == rcs[0].Topo || rcs[3].Topo == rcs[4].Topo {
		t.Error("specs on different geometries share a topology")
	}
}
