package node

import (
	"testing"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/mac"
	"fourbit/internal/metrics"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// fourBitCTP and multiHopLQI are the two default router stacks.
var (
	fourBitCTP  = CTP(ctp.DefaultConfig(), core.DefaultConfig(), core.KindFourBit)
	multiHopLQI = LQI(lqirouter.DefaultConfig())
)

func fastWorkload() collect.Workload {
	wl := collect.DefaultWorkload()
	wl.Period = 2 * sim.Second // denser traffic so short tests converge
	return wl
}

// flatEnv disables the random channel components so link geometry is exact:
// 42 m hops are reliable (~2.3 dB SNR) while 84 m double-hops are dead.
func flatEnv(seed uint64, power float64) EnvConfig {
	cfg := DefaultEnvConfig(seed, power)
	cfg.Phy.ShadowSigmaDB = 0
	cfg.Phy.FadeSigmaDB = 0
	cfg.Phy.TxVarSigmaDB = 0
	cfg.Phy.NoiseDriftSigmaDB = 0
	cfg.Phy.NoiseBurstAmpDB = 0
	cfg.Phy.PacketJitterSigmaDB = 0
	return cfg
}

func TestCTPLineEndToEnd(t *testing.T) {
	tp := topo.Line(4, 42) // 42 m hops: usable links, skipping a hop impossible
	env := NewEnv(tp, flatEnv(1, 0))
	net := Build(env, fourBitCTP, fastWorkload())
	env.Clock.RunUntil(5 * sim.Minute)

	if r := net.Ledger.TotalDeliveryRatio(); r < 0.95 {
		t.Fatalf("delivery ratio = %.3f, want >= 0.95", r)
	}
	if net.Ledger.Unique() < 100 {
		t.Fatalf("only %d unique deliveries", net.Ledger.Unique())
	}
	// Line forces the routing tree 0 <- 1 <- 2 <- 3.
	depths := metrics.TreeDepths(net.Parents(), tp.Root)
	for i, want := range []int{0, 1, 2, 3} {
		if depths[i] != want {
			t.Errorf("node %d depth = %d, want %d (parents=%v)", i, depths[i], want, net.Parents())
		}
	}
}

func TestCTPGridMultihop(t *testing.T) {
	tp := topo.Grid(4, 4, 16)
	env := NewEnv(tp, DefaultEnvConfig(2, 0))
	net := Build(env, fourBitCTP, fastWorkload())
	env.Clock.RunUntil(5 * sim.Minute)

	if r := net.Ledger.TotalDeliveryRatio(); r < 0.9 {
		t.Fatalf("grid delivery ratio = %.3f, want >= 0.9", r)
	}
	depths := metrics.TreeDepths(net.Parents(), tp.Root)
	mean, connected, detached := metrics.MeanDepth(depths, tp.Root)
	if detached > 0 {
		t.Fatalf("%d nodes detached from the tree", detached)
	}
	if connected != tp.N()-1 {
		t.Fatalf("connected = %d, want %d", connected, tp.N()-1)
	}
	if mean < 1.0 || mean > 3.5 {
		t.Fatalf("mean depth = %.2f, implausible for a 4x4/16 m grid", mean)
	}
}

func TestLQILineEndToEnd(t *testing.T) {
	tp := topo.Line(4, 42)
	env := NewEnv(tp, flatEnv(3, 0))
	net := Build(env, multiHopLQI, fastWorkload())
	env.Clock.RunUntil(6 * sim.Minute)

	if r := net.Ledger.TotalDeliveryRatio(); r < 0.9 {
		t.Fatalf("delivery ratio = %.3f, want >= 0.9", r)
	}
	depths := metrics.TreeDepths(net.Parents(), tp.Root)
	for i, want := range []int{0, 1, 2, 3} {
		if depths[i] != want {
			t.Errorf("node %d depth = %d, want %d", i, depths[i], want)
		}
	}
}

func TestCTPDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64, uint64) {
		tp := topo.Grid(3, 3, 16)
		env := NewEnv(tp, DefaultEnvConfig(7, 0))
		net := Build(env, fourBitCTP, fastWorkload())
		env.Clock.RunUntil(3 * sim.Minute)
		return net.Ledger.Unique(), net.DataTransmissions(), env.Clock.Events()
	}
	u1, d1, e1 := run()
	u2, d2, e2 := run()
	if u1 != u2 || d1 != d2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%d,%d,%d) vs (%d,%d,%d)", u1, d1, e1, u2, d2, e2)
	}
}

func TestCTPDifferentSeedsDiffer(t *testing.T) {
	run := func(seed uint64) uint64 {
		tp := topo.Grid(3, 3, 16)
		env := NewEnv(tp, DefaultEnvConfig(seed, 0))
		Build(env, fourBitCTP, fastWorkload())
		env.Clock.RunUntil(2 * sim.Minute)
		return env.Clock.Events()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical event counts (suspicious)")
	}
}

func TestCTPReroutesAroundDeadLink(t *testing.T) {
	// Triangle: root R(0,0), helper A(18,0), leaf C(36,0). A 6 dB wall on
	// the direct R<->C path makes the 2-hop route via A the initial
	// choice. At t=4min the C<->A path dies completely; C must re-route
	// directly to R (lossy but workable) and keep delivering.
	tp := &topo.Topology{Name: "triangle", Positions: []topo.Point{
		{X: 0, Y: 0}, {X: 18, Y: 0}, {X: 36, Y: 0},
	}}
	env := NewEnv(tp, flatEnv(4, 0))
	env.Chan.SetModifierBoth(0, 2, constantLoss(6))
	net := Build(env, fourBitCTP, fastWorkload())

	env.Clock.At(4*sim.Minute, func() {
		env.Chan.SetModifierBoth(1, 2, constantLoss(80))
	})
	env.Clock.RunUntil(4 * sim.Minute)
	beforeUnique := net.Ledger.Unique()
	env.Clock.RunUntil(10 * sim.Minute)

	delivered := net.Ledger.Unique() - beforeUnique
	// Node 2 generates ~180 packets in the remaining 6 min; node 1 too.
	// Without re-routing node 2's share would vanish.
	if delivered < 200 {
		t.Fatalf("only %d deliveries after link death; re-routing failed", delivered)
	}
	if net.Routers[2].Parent() != 0 {
		t.Fatalf("node 2 parent = %v after link death, want 0 (direct)", net.Routers[2].Parent())
	}
	if r := net.Ledger.DeliveryRatio(2); r < 0.8 {
		t.Fatalf("node 2 delivery ratio = %.3f after re-route", r)
	}
}

type constantLoss float64

func (c constantLoss) ExtraLossDB(sim.Time) float64 { return float64(c) }

func TestFourBitAvoidsBurstyLinkLQIDoesNot(t *testing.T) {
	// The paper's central failure case (§2.1, Figure 3): node C can reach
	// the root R directly over a link that is bursty — dead 75% of the
	// time, but carrying saturated LQI when alive — or via helper A over
	// two clean hops. MultiHopLQI sees only the high LQI of received
	// beacons and keeps the direct link; 4B's beacon-gap and ack-bit
	// streams expose it.
	build := func(seed uint64) (*Env, *topo.Topology) {
		tp := &topo.Topology{Name: "bursty-triangle", Positions: []topo.Point{
			{X: 0, Y: 0}, {X: 12, Y: 5}, {X: 24, Y: 0},
		}}
		cfg := DefaultEnvConfig(seed, 0)
		cfg.Phy.ShadowSigmaDB = 0
		cfg.Phy.FadeSigmaDB = 0
		cfg.Phy.NoiseBurstAmpDB = 0
		cfg.Phy.PacketJitterSigmaDB = 0
		env := NewEnv(tp, cfg)
		ge := phy.NewGilbertElliott(50, 2500*sim.Millisecond, 7500*sim.Millisecond,
			env.Seeds.Stream("ge"))
		env.Chan.SetModifierBoth(0, 2, ge)
		return env, tp
	}

	envL, _ := build(11)
	lqiNet := Build(envL, multiHopLQI, fastWorkload())
	envL.Clock.RunUntil(12 * sim.Minute)

	env4, _ := build(11)
	ctpNet := Build(env4, fourBitCTP, fastWorkload())
	env4.Clock.RunUntil(12 * sim.Minute)

	lqiRatio := lqiNet.Ledger.DeliveryRatio(2)
	fbRatio := ctpNet.Ledger.DeliveryRatio(2)

	if lqiNet.Routers[2].Parent() != 0 {
		t.Logf("note: MultiHopLQI parent of C = %v (expected 0: blind to bursts)",
			lqiNet.Routers[2].Parent())
	}
	if ctpNet.Routers[2].Parent() != 1 {
		t.Errorf("4B parent of C = %v, want 1 (route around the bursty link)",
			ctpNet.Routers[2].Parent())
	}
	if fbRatio < 0.95 {
		t.Errorf("4B delivery ratio on bursty topology = %.3f, want >= 0.95", fbRatio)
	}
	if fbRatio < lqiRatio+0.1 {
		t.Errorf("4B (%.3f) should clearly beat MultiHopLQI (%.3f) here", fbRatio, lqiRatio)
	}
}

func TestParentsSnapshotShape(t *testing.T) {
	tp := topo.Line(3, 42)
	env := NewEnv(tp, flatEnv(5, 0))
	net := Build(env, fourBitCTP, fastWorkload())
	// Before boot: everyone routeless.
	for i, p := range net.Parents() {
		if p != -1 {
			t.Fatalf("node %d has parent %d before boot", i, p)
		}
	}
	env.Clock.RunUntil(2 * sim.Minute)
	parents := net.Parents()
	if parents[tp.Root] != -1 {
		t.Fatal("root must have no parent")
	}
	if parents[1] != 0 || parents[2] != 1 {
		t.Fatalf("parents = %v, want [_, 0, 1]", parents)
	}
}

func TestBeaconAndDataCountersAdvance(t *testing.T) {
	tp := topo.Line(3, 15)
	env := NewEnv(tp, DefaultEnvConfig(6, 0))
	net := Build(env, fourBitCTP, fastWorkload())
	env.Clock.RunUntil(3 * sim.Minute)
	if net.BeaconTransmissions() == 0 {
		t.Fatal("no beacons transmitted")
	}
	if net.DataTransmissions() == 0 {
		t.Fatal("no data transmitted")
	}
	// Data transmissions must be at least deliveries weighted by depth:
	// node1 1 hop + node2 2 hops.
	if net.DataTransmissions() < net.Ledger.Unique() {
		t.Fatal("fewer data transmissions than deliveries; counting broken")
	}
}

// deliveryCounter wraps a router and counts what reaches it as a sink —
// the Router interface is all the build loop needs, so a test can
// interpose on it.
type deliveryCounter struct {
	Router
	n *int
}

func (r deliveryCounter) OnDeliver(fn func(origin packet.Addr, hops uint8, data []byte)) {
	r.Router.OnDeliver(func(origin packet.Addr, hops uint8, data []byte) {
		*r.n++
		fn(origin, hops, data)
	})
}

// The one build loop serves several sinks under either router: a 2×6
// grid with the topology root at one corner and an extra root at the
// opposite one.
func TestBuildWithExtraRoot(t *testing.T) {
	for _, tc := range []struct {
		name      string
		newRouter RouterFunc
		ests      bool
	}{
		{"CTP", fourBitCTP, true},
		{"MultiHopLQI", multiHopLQI, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.Grid(2, 6, 42)
			const extra = 11
			cfg := flatEnv(8, 0)
			cfg.ExtraRoots = []int{extra}
			env := NewEnv(tp, cfg)
			delivered := make([]int, tp.N())
			net := Build(env, func(env *Env, i int, m *mac.MAC) (Router, core.LinkEstimator) {
				r, est := tc.newRouter(env, i, m)
				return deliveryCounter{r, &delivered[i]}, est
			}, fastWorkload())
			env.Clock.RunUntil(5 * sim.Minute)

			sinks := []int{tp.Root, extra}
			parents := net.Parents()
			for _, sink := range sinks {
				if parents[sink] != -1 {
					t.Errorf("sink %d reads parent %d, want -1", sink, parents[sink])
				}
				if delivered[sink] == 0 {
					t.Errorf("sink %d received no deliveries", sink)
				}
			}
			// Only non-sinks run sources: the ledger's origins are exactly
			// the other ten nodes.
			origins := net.Ledger.DeliveryRatios()
			if len(origins) != tp.N()-len(sinks) {
				t.Errorf("%d origins for %d nodes and %d sinks", len(origins), tp.N(), len(sinks))
			}
			for _, sink := range sinks {
				if _, ok := origins[packet.Addr(sink)]; ok {
					t.Errorf("sink %d generated traffic", sink)
				}
			}
			var txData uint64
			for _, m := range net.MACs {
				txData += m.Stats.TxData
			}
			if got := net.DataTransmissions(); got != txData || got == 0 {
				t.Errorf("DataTransmissions() = %d, MACs sum to %d", got, txData)
			}
			if tc.ests && len(net.Ests) != tp.N() {
				t.Errorf("CTP network has %d estimators for %d nodes", len(net.Ests), tp.N())
			}
			if !tc.ests && net.Ests != nil {
				t.Errorf("MultiHopLQI network has estimators: %v", net.Ests)
			}
		})
	}
}

// A network larger than the 16-bit address space would hand node 65535
// the broadcast address; NewEnv refuses it before building anything.
func TestNewEnvRejectsAddressOverflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewEnv accepted a topology past the address space")
		}
	}()
	NewEnv(topo.Line(MaxNodes+1, 1), DefaultEnvConfig(1, 0))
}
