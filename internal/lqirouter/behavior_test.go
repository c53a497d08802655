package lqirouter

import (
	"testing"

	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

type rig struct {
	clock *sim.Simulator
	med   *phy.Medium
	ch    *phy.Channel
	nodes []*Node
	macs  []*mac.MAC
}

func newRig(t *testing.T, seed uint64, positions [][2]float64, cfg Config) *rig {
	t.Helper()
	n := len(positions)
	clock := sim.New(seed)
	p := phy.DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB, p.PacketJitterSigmaDB = 0, 0
	tp := &topo.Topology{Name: "rig"}
	for _, xy := range positions {
		tp.Positions = append(tp.Positions, topo.Point{X: xy[0], Y: xy[1]})
	}
	seeds := sim.NewSeedSpace(seed)
	ch := phy.PrecomputeGeo(tp, p).NewChannel(seeds)
	med := phy.NewMedium(clock, ch, phy.DefaultRadioParams(), phy.DefaultLQIParams(), seeds)
	r := &rig{clock: clock, med: med, ch: ch}
	for i := 0; i < n; i++ {
		m := mac.New(clock, med.Radio(i), packet.Addr(i), mac.DefaultParams(), seeds.Stream("mac"))
		nd := New(clock, m, i == 0, cfg, seeds.Stream("lqi"))
		r.nodes = append(r.nodes, nd)
		r.macs = append(r.macs, m)
	}
	return r
}

func (r *rig) startAll() {
	for _, nd := range r.nodes {
		nd.Start()
	}
}

func TestRouteAdoptionAndGradient(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second // quick convergence for the test
	r := newRig(t, 1, [][2]float64{{0, 0}, {38, 0}, {76, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(30 * sim.Second)
	if r.nodes[1].Parent() != 0 || r.nodes[2].Parent() != 1 {
		t.Fatalf("parents = %v, %v; want 0, 1", r.nodes[1].Parent(), r.nodes[2].Parent())
	}
	if !(r.nodes[0].Cost() == 0 && r.nodes[1].Cost() > 0 && r.nodes[2].Cost() > r.nodes[1].Cost()) {
		t.Fatalf("cost gradient broken: %d, %d, %d",
			r.nodes[0].Cost(), r.nodes[1].Cost(), r.nodes[2].Cost())
	}
}

func TestRootIgnoresBeacons(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second
	r := newRig(t, 2, [][2]float64{{0, 0}, {20, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(20 * sim.Second)
	if r.nodes[0].Parent() != packet.None || r.nodes[0].Cost() != 0 {
		t.Fatal("root state corrupted by beacons")
	}
}

func TestChildBeaconNotAdopted(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 3, [][2]float64{{0, 0}, {20, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(sim.Second)
	// Forge a beacon from node 9 claiming node 1 as its parent: node 1
	// must not adopt its own child regardless of the advertised cost.
	b := &packet.LQIBeacon{Parent: 1, Cost: 1, Seq: 1}
	r.nodes[1].handleBeacon(9, b, phy.RxInfo{LQI: 110})
	if r.nodes[1].Parent() == 9 {
		t.Fatal("adopted own child as parent")
	}
}

func TestRoutelessSenderNotAdopted(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 4, [][2]float64{{0, 0}, {20, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(sim.Second)
	b := &packet.LQIBeacon{Parent: packet.None, Cost: noRoute, Seq: 1}
	r.nodes[1].handleBeacon(9, b, phy.RxInfo{LQI: 110})
	if r.nodes[1].Parent() == 9 {
		t.Fatal("adopted a routeless sender")
	}
}

func TestBetterCostWins(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 5, [][2]float64{{0, 0}, {20, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(sim.Second)
	n1 := r.nodes[1]
	n1.handleBeacon(7, &packet.LQIBeacon{Parent: 0, Cost: 2000, Seq: 1}, phy.RxInfo{LQI: 110})
	if n1.Parent() != 7 {
		t.Fatalf("parent = %v, want 7", n1.Parent())
	}
	costVia7 := n1.Cost()
	// A clearly cheaper route arrives.
	n1.handleBeacon(8, &packet.LQIBeacon{Parent: 0, Cost: 100, Seq: 1}, phy.RxInfo{LQI: 110})
	if n1.Parent() != 8 || n1.Cost() >= costVia7 {
		t.Fatalf("did not adopt cheaper route: parent=%v cost=%d (was %d)",
			n1.Parent(), n1.Cost(), costVia7)
	}
	// A worse one does not displace it.
	n1.handleBeacon(9, &packet.LQIBeacon{Parent: 0, Cost: 60000, Seq: 1}, phy.RxInfo{LQI: 110})
	if n1.Parent() != 8 {
		t.Fatal("adopted a worse route")
	}
}

func TestLowLQIBeaconLessAttractive(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 6, [][2]float64{{0, 0}, {20, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(sim.Second)
	n1 := r.nodes[1]
	// Same advertised cost; the high-LQI one must win.
	n1.handleBeacon(7, &packet.LQIBeacon{Parent: 0, Cost: 500, Seq: 1}, phy.RxInfo{LQI: 70})
	costLow := n1.Cost()
	n1.handleBeacon(8, &packet.LQIBeacon{Parent: 0, Cost: 500, Seq: 1}, phy.RxInfo{LQI: 110})
	if n1.Parent() != 8 || n1.Cost() >= costLow {
		t.Fatalf("high-LQI route not preferred: parent=%v", n1.Parent())
	}
}

func TestParentTimeoutInvalidatesRoute(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second
	cfg.RouteTimeout = 10 * sim.Second
	r := newRig(t, 7, [][2]float64{{0, 0}, {30, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	if r.nodes[1].Parent() != 0 {
		t.Fatal("no route formed")
	}
	// Silence the root entirely; node 1 must drop the route.
	r.ch.SetModifierBoth(0, 1, deadLink(80))
	r.clock.RunUntil(40 * sim.Second)
	if r.nodes[1].Parent() != packet.None {
		t.Fatalf("parent = %v after 30 s of silence (timeout 10 s)", r.nodes[1].Parent())
	}
	if r.nodes[1].Cost() != noRoute {
		t.Fatal("cost not invalidated")
	}
}

type deadLink float64

func (d deadLink) ExtraLossDB(sim.Time) float64 { return float64(d) }

func TestDataForwardingAndDupSuppression(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second
	r := newRig(t, 8, [][2]float64{{0, 0}, {30, 0}}, cfg)
	delivered := 0
	r.nodes[0].OnDeliver(func(origin packet.Addr, seq uint16, hops uint8, data []byte) {
		delivered++
	})
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	for i := 0; i < 10; i++ {
		r.clock.After(sim.Time(i)*sim.Second, func() { r.nodes[1].Send([]byte{1}) })
	}
	r.clock.RunUntil(30 * sim.Second)
	if delivered != 10 {
		t.Fatalf("delivered %d/10", delivered)
	}
	// Duplicate injection at the root.
	d := &packet.LQIData{Origin: 1, OriginSeq: 500}
	payload, _ := d.Encode()
	f := &packet.Frame{Type: packet.TypeData, Src: 1, Dst: 0, Payload: payload}
	r.nodes[0].handleData(f)
	r.nodes[0].handleData(f)
	if delivered != 11 {
		t.Fatalf("delivered %d, want 11 (dup suppressed)", delivered)
	}
	if r.nodes[0].Stats.DupsDropped != 1 {
		t.Fatal("dup not counted")
	}
}

func TestHopCapDropsPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second
	r := newRig(t, 9, [][2]float64{{0, 0}, {30, 0}, {60, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	d := &packet.LQIData{Origin: 9, OriginSeq: 1, HopCount: cfg.MaxHops}
	payload, _ := d.Encode()
	f := &packet.Frame{Type: packet.TypeData, Src: 2, Dst: 1, Payload: payload}
	r.nodes[1].handleData(f)
	if r.nodes[1].Stats.DropsHops != 1 {
		t.Fatalf("DropsHops = %d, want 1", r.nodes[1].Stats.DropsHops)
	}
}

func TestNoFeedbackFromAcksToRouting(t *testing.T) {
	// The defining limitation: a dead parent link does not change the
	// route until RouteTimeout, no matter how many transmissions fail.
	cfg := DefaultConfig()
	cfg.BeaconPeriod = 2 * sim.Second
	cfg.RouteTimeout = 120 * sim.Second
	r := newRig(t, 10, [][2]float64{{0, 0}, {30, 0}, {30, 20}}, cfg)
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	if r.nodes[1].Parent() != 0 {
		t.Fatal("setup: node 1 should route directly")
	}
	// Kill only the data direction 1->0; beacons 0->1 keep flowing.
	r.ch.SetModifier(1, 0, deadLink(80))
	drops0 := r.nodes[1].Stats.DropsRetry
	for i := 0; i < 10; i++ {
		r.clock.After(sim.Time(i)*sim.Second, func() { r.nodes[1].Send([]byte{1}) })
	}
	r.clock.RunUntil(40 * sim.Second)
	if r.nodes[1].Parent() != 0 {
		t.Fatalf("MultiHopLQI switched parent (%v) on ack failures — it has no such feedback",
			r.nodes[1].Parent())
	}
	if r.nodes[1].Stats.DropsRetry <= drops0 {
		t.Fatal("no retry-exhaustion drops despite dead data direction")
	}
}
