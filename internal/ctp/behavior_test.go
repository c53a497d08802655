package ctp

import (
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
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
	log   *busLog
}

// busLog records the probe events the behaviour tests read.
type busLog struct {
	probe.BaseSink
	tx      []probe.TxEvent
	beacons []probe.BeaconEvent
}

func (l *busLog) OnTx(e probe.TxEvent)         { l.tx = append(l.tx, e) }
func (l *busLog) OnBeacon(e probe.BeaconEvent) { l.beacons = append(l.beacons, e) }

// dataTx returns node's unicast transmission outcomes after from.
func (l *busLog) dataTx(node packet.Addr, from sim.Time) []probe.TxEvent {
	var out []probe.TxEvent
	for _, e := range l.tx {
		if e.Node == node && !e.Broadcast() && e.At > from {
			out = append(out, e)
		}
	}
	return out
}

// beaconsBy counts node's beacons announced in (from, to].
func (l *busLog) beaconsBy(node packet.Addr, from, to sim.Time) int {
	n := 0
	for _, e := range l.beacons {
		if e.Node == node && e.At > from && e.At <= to {
			n++
		}
	}
	return n
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
	r := &rig{clock: clock, med: med, ch: ch, log: &busLog{}}
	probe.NewBus(clock).Attach(r.log)
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
	r.nodes[0].OnDeliver(func(origin packet.Addr, thl uint8, data []byte) {
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
	acked := 0
	for _, e := range r.log.dataTx(1, 0) {
		if e.Acked {
			acked++
		}
	}
	if acked != 20 {
		t.Fatalf("node 1 had %d data transmissions acked, want 20", acked)
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
	// The head stays queued while it is on air, so exactly QueueSize
	// packets fit and Send refuses the rest.
	if accepted != cfg.QueueSize {
		t.Fatalf("queue of %d accepted %d of a burst of 10", cfg.QueueSize, accepted)
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
	r.nodes[0].OnDeliver(func(packet.Addr, uint8, []byte) { delivered++ })
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
	killed := r.clock.Now()
	r.clock.After(0, func() { r.nodes[1].Send([]byte{1}) })
	r.clock.RunUntil(20 * sim.Second)
	tx := r.log.dataTx(1, killed)
	for _, e := range tx {
		if e.Acked {
			t.Fatalf("transmission acked over a dead link: %+v", e)
		}
	}
	if len(tx) != cfg.MaxRetries {
		t.Fatalf("node 1 made %d attempts, want MaxRetries = %d", len(tx), cfg.MaxRetries)
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
	// Forge a data frame whose sender claims a cost below node 1's own: a
	// gradient inconsistency whose Trickle reset must bring node 1's next
	// beacon within BeaconMin. The unforged run is the control: by 10 s
	// Trickle has slowed, so no beacon falls in that window by itself.
	cfg := DefaultConfig()
	beacons := func(forge bool) int {
		r := newRig(t, 9, [][2]float64{{0, 0}, {30, 0}}, cfg)
		r.startAll()
		r.clock.RunUntil(10 * sim.Second)
		d := &packet.CTPData{Origin: 9, OriginSeq: 1, ETX: 0, THL: 1}
		payload, _ := d.Encode()
		f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1, Seq: 1, Payload: payload}
		if forge {
			r.clock.After(0, func() { r.nodes[1].onDataFrame(f, phy.RxInfo{}) })
		}
		r.clock.RunUntil(11 * sim.Second)
		return r.log.beaconsBy(1, 10*sim.Second, 10*sim.Second+cfg.BeaconMin)
	}
	if n := beacons(false); n != 0 {
		t.Fatalf("control: node 1 beaconed %d times right after 10 s unprompted", n)
	}
	if beacons(true) == 0 {
		t.Fatal("no beacon within BeaconMin of the inconsistency")
	}
}

func TestTHLCapDropsAncientPackets(t *testing.T) {
	// A packet one hop short of the cap is forwarded to the root; one at
	// the cap is dropped without a transmission.
	cfg := DefaultConfig()
	forwarded := func(thl uint8) (delivered int, tx int) {
		r := newRig(t, 10, [][2]float64{{0, 0}, {30, 0}, {60, 0}}, cfg)
		r.nodes[0].OnDeliver(func(origin packet.Addr, _ uint8, _ []byte) {
			if origin == 9 {
				delivered++
			}
		})
		r.startAll()
		r.clock.RunUntil(10 * sim.Second)
		d := &packet.CTPData{Origin: 9, OriginSeq: 1, ETX: 60000, THL: thl}
		payload, _ := d.Encode()
		f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 2, Dst: 1, Seq: 1, Payload: payload}
		r.clock.After(0, func() { r.nodes[1].onDataFrame(f, phy.RxInfo{}) })
		r.clock.RunUntil(11 * sim.Second)
		return delivered, len(r.log.dataTx(1, 10*sim.Second))
	}
	if d, tx := forwarded(cfg.MaxTHL - 1); d != 1 || tx == 0 {
		t.Fatalf("THL below the cap: delivered %d after %d transmissions, want 1", d, tx)
	}
	if d, tx := forwarded(cfg.MaxTHL); d != 0 || tx != 0 {
		t.Fatalf("THL at the cap: delivered %d after %d transmissions, want a silent drop", d, tx)
	}
}

func TestDuplicateSuppressionEndToEnd(t *testing.T) {
	r := newRig(t, 11, [][2]float64{{0, 0}, {30, 0}}, DefaultConfig())
	delivered := 0
	r.nodes[0].OnDeliver(func(packet.Addr, uint8, []byte) { delivered++ })
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
}

func TestPullFlagSpeedsUpNeighborBeacons(t *testing.T) {
	// A late-booting node with no route sends pull beacons; its routed
	// neighbor must reset Trickle in response and beacon at the fast
	// rate again. The control never boots node 2: by 60 s node 1's
	// Trickle has slowed, so it beacons at most once in the next 30 s.
	run := func(join bool) *rig {
		r := newRig(t, 12, [][2]float64{{0, 0}, {30, 0}, {60, 0}}, DefaultConfig())
		r.nodes[0].Start()
		r.nodes[1].Start()
		r.clock.RunUntil(60 * sim.Second) // node 1 settled, Trickle slowed
		if join {
			r.nodes[2].Start() // boots routeless; beacons carry the pull flag
		}
		r.clock.RunUntil(90 * sim.Second)
		return r
	}
	if n := run(false).log.beaconsBy(1, 60*sim.Second, 90*sim.Second); n > 1 {
		t.Fatalf("control: node 1 beaconed %d times in 30 s unprompted", n)
	}
	r := run(true)
	if n := r.log.beaconsBy(1, 60*sim.Second, 90*sim.Second); n < 3 {
		t.Fatalf("node 1 beaconed %d times in 30 s after pull beacons, want a Trickle reset", n)
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
