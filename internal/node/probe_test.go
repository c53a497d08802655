package node_test

import (
	"testing"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/node"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
	"fourbit/internal/trace"
)

func probeWorkload() collect.Workload {
	wl := collect.DefaultWorkload()
	wl.Period = 2 * sim.Second // denser traffic so short tests converge
	return wl
}

// extraCounts tallies the two events the timeline collector does not
// count: CSMA give-ups and network-layer beacons.
type extraCounts struct {
	probe.BaseSink
	ccaGiveUps, beacons uint64
}

func (c *extraCounts) OnTx(ev probe.TxEvent) {
	if !ev.Sent {
		c.ccaGiveUps++
	}
}

func (c *extraCounts) OnBeacon(probe.BeaconEvent) { c.beacons++ }

// busTotals attaches a timeline collector and an extraCounts sink to env's
// bus; the returned function finalizes the collector and sums its windows.
func busTotals(env *node.Env) (*extraCounts, func() probe.Window) {
	col := probe.NewCollector(20 * sim.Second)
	extra := &extraCounts{}
	env.Probes.Attach(col)
	env.Probes.Attach(extra)
	return extra, func() probe.Window {
		var sum probe.Window
		for _, w := range col.Finalize(env.Clock.Now()).Windows {
			sum.Generated += w.Generated
			sum.Delivered += w.Delivered
			sum.DataTx += w.DataTx
			sum.BeaconTx += w.BeaconTx
			sum.ParentChanges += w.ParentChanges
			sum.TableInserted += w.TableInserted
			sum.TableReplaced += w.TableReplaced
			sum.TableEvicted += w.TableEvicted
			sum.TableRejected += w.TableRejected
		}
		return sum
	}
}

// The probe bus must observe exactly what the per-node Stats counters
// measure: the bus is the subscription point that replaces ad-hoc counter
// scraping, so any event it drops (or double-counts) is a bug. This test
// runs a real CTP network with the timeline collector attached and
// reconciles its window totals against the per-layer counters.
func TestProbeBusMatchesCountersCTP(t *testing.T) {
	env := node.NewEnv(topo.Grid(4, 4, 6), node.DefaultEnvConfig(7, -5))
	extra, totals := busTotals(env)
	net := node.Build(env, node.CTP(ctp.DefaultConfig(), core.DefaultConfig(), core.KindFourBit), probeWorkload())
	env.Clock.RunUntil(3 * sim.Minute)
	bus := totals()

	if bus.DataTx == 0 || bus.BeaconTx == 0 || bus.Delivered == 0 {
		t.Fatalf("no traffic observed: %+v", bus)
	}
	if got, want := bus.DataTx, net.DataTransmissions(); got != want {
		t.Errorf("bus DataTx = %d, MAC counters = %d", got, want)
	}
	if got, want := bus.BeaconTx, net.BeaconTransmissions(); got != want {
		t.Errorf("bus BeaconTx = %d, MAC counters = %d", got, want)
	}
	var ccaFails, parentChanges, beaconsSent uint64
	for _, m := range net.MACs {
		ccaFails += m.Stats.CCAFailures
	}
	for _, r := range net.Routers {
		n := r.(*ctp.Node)
		parentChanges += n.Stats.ParentChanges
		beaconsSent += n.Stats.BeaconsSent
	}
	if extra.ccaGiveUps != ccaFails {
		t.Errorf("bus CCA give-ups = %d, MAC counters = %d", extra.ccaGiveUps, ccaFails)
	}
	if bus.ParentChanges != parentChanges {
		t.Errorf("bus ParentChanges = %d, CTP counters = %d", bus.ParentChanges, parentChanges)
	}
	if extra.beacons != beaconsSent {
		t.Errorf("bus beacons = %d, CTP counters = %d", extra.beacons, beaconsSent)
	}
	est := core.SumStats(net.Ests)
	if bus.TableInserted != est.Inserted {
		t.Errorf("bus Inserted = %d, estimator counters = %d", bus.TableInserted, est.Inserted)
	}
	if bus.TableReplaced != est.Replaced {
		t.Errorf("bus Replaced = %d, estimator counters = %d", bus.TableReplaced, est.Replaced)
	}
	if bus.TableEvicted != est.Replaced {
		t.Errorf("bus Evicted = %d, want one eviction per replacement (%d)", bus.TableEvicted, est.Replaced)
	}
	if bus.TableRejected != est.RejectedFull {
		t.Errorf("bus Rejected = %d, estimator counters = %d", bus.TableRejected, est.RejectedFull)
	}
	if got, want := bus.Delivered, net.Ledger.Unique()+net.Ledger.Duplicates(); got != want {
		t.Errorf("bus Delivered = %d, ledger = %d", got, want)
	}
	if got, want := bus.Generated, net.Ledger.Generated(); got != want {
		t.Errorf("bus Generated = %d, ledger = %d", got, want)
	}
}

// The MultiHopLQI stack emits through the same bus (mac tx/ack, router
// parent changes and beacons, node deliveries, source generation).
func TestProbeBusMatchesCountersLQI(t *testing.T) {
	env := node.NewEnv(topo.Grid(4, 4, 6), node.DefaultEnvConfig(7, -5))
	extra, totals := busTotals(env)
	net := node.Build(env, node.LQI(lqirouter.DefaultConfig()), probeWorkload())
	env.Clock.RunUntil(3 * sim.Minute)
	bus := totals()

	if got, want := bus.DataTx, net.DataTransmissions(); got != want {
		t.Errorf("bus DataTx = %d, MAC counters = %d", got, want)
	}
	if got, want := bus.BeaconTx, net.BeaconTransmissions(); got != want {
		t.Errorf("bus BeaconTx = %d, MAC counters = %d", got, want)
	}
	var parentChanges, beaconsSent uint64
	for _, r := range net.Routers {
		n := r.(*lqirouter.Node)
		parentChanges += n.Stats.ParentChanges
		beaconsSent += n.Stats.BeaconsSent
	}
	if bus.ParentChanges != parentChanges {
		t.Errorf("bus ParentChanges = %d, router counters = %d", bus.ParentChanges, parentChanges)
	}
	if extra.beacons != beaconsSent {
		t.Errorf("bus beacons = %d, router counters = %d", extra.beacons, beaconsSent)
	}
	if got, want := bus.Delivered, net.Ledger.Unique()+net.Ledger.Duplicates(); got != want {
		t.Errorf("bus Delivered = %d, ledger = %d", got, want)
	}
	if bus.TableInserted != 0 {
		t.Errorf("MultiHopLQI has no link table, yet bus saw %d inserts", bus.TableInserted)
	}
}

// Attaching sinks must not perturb the simulation: same seed, with and
// without the trace recorder and a timeline collector, must produce the
// identical trajectory.
func TestProbeSinksDoNotPerturbRun(t *testing.T) {
	run := func(attach bool) (uint64, uint64, []int) {
		env := node.NewEnv(topo.Grid(4, 4, 6), node.DefaultEnvConfig(11, -5))
		if attach {
			trace.NewRecorder(env, 7*sim.Second, "purity")
			env.Probes.Attach(probe.NewCollector(15 * sim.Second))
		}
		net := node.Build(env, node.CTP(ctp.DefaultConfig(), core.DefaultConfig(), core.KindFourBit), probeWorkload())
		env.Clock.RunUntil(2 * sim.Minute)
		return env.Clock.Events(), net.DataTransmissions(), net.Parents()
	}
	ev1, tx1, par1 := run(false)
	ev2, tx2, par2 := run(true)
	if ev1 != ev2 || tx1 != tx2 {
		t.Fatalf("sinks perturbed the run: events %d vs %d, datatx %d vs %d", ev1, ev2, tx1, tx2)
	}
	for i := range par1 {
		if par1[i] != par2[i] {
			t.Fatalf("sinks perturbed routing: parents %v vs %v", par1, par2)
		}
	}
}
