package ctp

import (
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// rig builds a CTP network over a quiet, deterministic channel with
// arbitrary node positions.
type rig struct {
	clock *sim.Simulator
	med   *phy.Medium
	ch    *phy.Channel
	nodes []*Node
	macs  []*mac.MAC
	ests  []*core.Estimator
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
		est := core.New(packet.Addr(i), core.DefaultConfig(), nil, seeds.Stream("est"))
		nd := New(clock, m, est, i == 0, cfg, seeds.Stream("ctp"))
		r.nodes = append(r.nodes, nd)
		r.macs = append(r.macs, m)
		r.ests = append(r.ests, est)
	}
	return r
}

func (r *rig) startAll() {
	for _, nd := range r.nodes {
		nd.Start()
	}
}

func TestRouteFormationOnLine(t *testing.T) {
	r := newRig(t, 1, [][2]float64{{0, 0}, {42, 0}, {84, 0}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(30 * sim.Second)
	if r.nodes[1].Parent() != 0 {
		t.Fatalf("node 1 parent = %v, want 0", r.nodes[1].Parent())
	}
	if r.nodes[2].Parent() != 1 {
		t.Fatalf("node 2 parent = %v, want 1", r.nodes[2].Parent())
	}
	c1, ok1 := r.nodes[1].Cost()
	c2, ok2 := r.nodes[2].Cost()
	if !ok1 || !ok2 {
		t.Fatal("costs not established")
	}
	if !(c2 > c1 && c1 >= 1) {
		t.Fatalf("gradient broken: cost1=%.2f cost2=%.2f", c1, c2)
	}
}

func TestRootCostIsZeroAndStable(t *testing.T) {
	r := newRig(t, 2, [][2]float64{{0, 0}, {20, 0}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(time30s())
	if c, ok := r.nodes[0].Cost(); !ok || c != 0 {
		t.Fatalf("root cost = (%v,%v), want (0,true)", c, ok)
	}
	if r.nodes[0].Parent() != packet.None {
		t.Fatal("root acquired a parent")
	}
}

func time30s() sim.Time { return 30 * sim.Second }

func TestDataDeliveryAndAckBitFeedback(t *testing.T) {
	r := newRig(t, 3, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	var got [][]byte
	r.nodes[0].OnDeliver(func(origin packet.Addr, seq uint8, thl uint8, data []byte) {
		if origin != 1 {
			t.Errorf("origin = %v", origin)
		}
		got = append(got, data)
	})
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	for i := 0; i < 20; i++ {
		r.clock.After(sim.Time(i)*sim.Second, func() { r.nodes[1].Send([]byte{byte(i)}) })
	}
	r.clock.RunUntil(40 * sim.Second)
	if len(got) != 20 {
		t.Fatalf("delivered %d/20", len(got))
	}
	// The ack bit must have produced unicast windows at node 1's estimator.
	if r.ests[1].Stats.UnicastWindows == 0 {
		t.Fatal("no unicast windows fed to the estimator")
	}
	if r.nodes[1].Stats.Forwarded != 20 {
		t.Fatalf("Forwarded = %d", r.nodes[1].Stats.Forwarded)
	}
}

func TestQueueOverflowDropsAndCounts(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueSize = 2
	r := newRig(t, 4, [][2]float64{{0, 0}, {30, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(5 * sim.Second)
	// Burst 10 sends back-to-back: queue 2 cannot hold them.
	accepted := 0
	r.clock.After(0, func() {
		for i := 0; i < 10; i++ {
			if r.nodes[1].Send([]byte{byte(i)}) {
				accepted++
			}
		}
	})
	r.clock.RunUntil(20 * sim.Second)
	if accepted == 10 {
		t.Fatal("queue of 2 accepted a burst of 10")
	}
	if r.nodes[1].Stats.DropsQueue == 0 {
		t.Fatal("no queue drops counted")
	}
}

func TestSendBeforeStartRefused(t *testing.T) {
	r := newRig(t, 5, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	if r.nodes[1].Send([]byte{1}) {
		t.Fatal("Send accepted before Start")
	}
}

func TestRootLoopback(t *testing.T) {
	r := newRig(t, 6, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	delivered := 0
	r.nodes[0].OnDeliver(func(packet.Addr, uint8, uint8, []byte) { delivered++ })
	r.startAll()
	r.clock.RunUntil(sim.Second)
	if !r.nodes[0].Send([]byte{9}) || delivered != 1 {
		t.Fatal("root self-delivery failed")
	}
}

func TestRetryExhaustionDropsPacket(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRetries = 3
	cfg.RetryDelayMin, cfg.RetryDelayMax = sim.Millisecond, 2*sim.Millisecond
	r := newRig(t, 7, [][2]float64{{0, 0}, {30, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(10 * sim.Second) // node 1 has a route now
	// Kill the link completely, then send.
	r.ch.SetModifierBoth(0, 1, constLoss(80))
	r.clock.After(0, func() { r.nodes[1].Send([]byte{1}) })
	r.clock.RunUntil(20 * sim.Second)
	if r.nodes[1].Stats.DropsRetry == 0 {
		t.Fatal("packet not dropped after retry exhaustion")
	}
	if r.nodes[1].QueueLen() != 0 {
		t.Fatal("queue not drained after drop")
	}
}

type constLoss float64

func (c constLoss) ExtraLossDB(sim.Time) float64 { return float64(c) }

func TestParentPinnedInEstimator(t *testing.T) {
	r := newRig(t, 8, [][2]float64{{0, 0}, {30, 0}, {30, 8}, {30, -8}, {22, 14}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(time30s())
	for i := 1; i < len(r.nodes); i++ {
		parent := r.nodes[i].Parent()
		if parent == packet.None {
			t.Fatalf("node %d routeless", i)
		}
		e := r.ests[i].Table().Find(parent)
		if e == nil || !e.Pinned {
			t.Fatalf("node %d's parent %v not pinned in the link table", i, parent)
		}
	}
}

func TestLoopDetectionTriggersBeacon(t *testing.T) {
	r := newRig(t, 9, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	resetsBefore := r.nodes[1].Stats.TrickleResets
	// Forge a data frame whose sender claims a cost below node 1's own:
	// a gradient inconsistency that must trigger a Trickle reset.
	d := &packet.CTPData{Origin: 9, OriginSeq: 1, ETX: 0, THL: 1}
	payload, _ := d.Encode()
	f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1, Seq: 1, Payload: payload}
	r.clock.After(0, func() { r.nodes[1].onDataFrame(f, phy.RxInfo{}) })
	r.clock.RunUntil(11 * sim.Second)
	if r.nodes[1].Stats.LoopsDetected == 0 {
		t.Fatal("inconsistency not detected")
	}
	if r.nodes[1].Stats.TrickleResets <= resetsBefore {
		t.Fatal("no Trickle reset on inconsistency")
	}
}

func TestTHLCapDropsAncientPackets(t *testing.T) {
	cfg := DefaultConfig()
	r := newRig(t, 10, [][2]float64{{0, 0}, {30, 0}, {60, 0}}, cfg)
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	d := &packet.CTPData{Origin: 9, OriginSeq: 1, ETX: 60000, THL: cfg.MaxTHL}
	payload, _ := d.Encode()
	f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 2, Dst: 1, Seq: 1, Payload: payload}
	r.clock.After(0, func() { r.nodes[1].onDataFrame(f, phy.RxInfo{}) })
	r.clock.RunUntil(11 * sim.Second)
	if r.nodes[1].Stats.DropsTHL != 1 {
		t.Fatalf("DropsTHL = %d, want 1", r.nodes[1].Stats.DropsTHL)
	}
}

func TestDuplicateSuppressionEndToEnd(t *testing.T) {
	r := newRig(t, 11, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	delivered := 0
	r.nodes[0].OnDeliver(func(packet.Addr, uint8, uint8, []byte) { delivered++ })
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	// Deliver the same forged frame to the root twice (a link-layer dup).
	d := &packet.CTPData{Origin: 1, OriginSeq: 200, ETX: 10, THL: 1}
	payload, _ := d.Encode()
	f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 1, Dst: 0, Seq: 1, Payload: payload}
	r.clock.After(0, func() {
		r.nodes[0].onDataFrame(f, phy.RxInfo{})
		r.nodes[0].onDataFrame(f, phy.RxInfo{})
	})
	r.clock.RunUntil(11 * sim.Second)
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1 (dup suppressed)", delivered)
	}
	if r.nodes[0].Stats.DupsDropped != 1 {
		t.Fatalf("DupsDropped = %d, want 1", r.nodes[0].Stats.DupsDropped)
	}
}

func TestPullFlagSpeedsUpNeighborBeacons(t *testing.T) {
	// A late-booting node with no route sends pull beacons; its routed
	// neighbor must reset Trickle in response.
	r := newRig(t, 12, [][2]float64{{0, 0}, {30, 0}, {60, 0}}, DefaultConfig())
	r.nodes[0].Start()
	r.nodes[1].Start()
	r.clock.RunUntil(60 * sim.Second) // node 1 settled, Trickle slowed
	before := r.nodes[1].Stats.TrickleResets
	r.nodes[2].Start() // boots routeless; beacons carry the pull flag
	r.clock.RunUntil(90 * sim.Second)
	if r.nodes[1].Stats.TrickleResets <= before {
		t.Fatal("pull beacon did not reset the neighbor's Trickle")
	}
	if r.nodes[2].Parent() != 1 {
		t.Fatalf("late joiner parent = %v, want 1", r.nodes[2].Parent())
	}
}

func TestCompareBitRequiresRouteInfo(t *testing.T) {
	r := newRig(t, 13, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(10 * sim.Second)
	// Garbage payload: not a decodable beacon -> false.
	if r.nodes[1].CompareBit(5, []byte{1}) {
		t.Fatal("compare bit set for undecodable beacon")
	}
	// Sender with no route (invalid ETX) -> false.
	noRoute, _ := (&packet.CTPBeacon{Parent: packet.None, ETX: 0xFFFF}).Encode()
	if r.nodes[1].CompareBit(5, noRoute) {
		t.Fatal("compare bit set for routeless sender")
	}
	// Sender that routes through us -> false (would loop).
	viaMe, _ := (&packet.CTPBeacon{Parent: 1, ETX: 20}).Encode()
	if r.nodes[1].CompareBit(5, viaMe) {
		t.Fatal("compare bit set for our own child")
	}
}

func TestCompareBitTrueWhenDesperate(t *testing.T) {
	r := newRig(t, 14, [][2]float64{{0, 0}, {200, 0}}, DefaultConfig())
	r.startAll()
	r.clock.RunUntil(10 * sim.Second) // node 1 hears nothing: no route
	if r.nodes[1].Parent() != packet.None {
		t.Fatal("node 1 unexpectedly routed")
	}
	good, _ := (&packet.CTPBeacon{Parent: 0, ETX: 10}).Encode()
	if !r.nodes[1].CompareBit(5, good) {
		t.Fatal("routeless node refused a routed sender")
	}
}
