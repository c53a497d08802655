// Package lqirouter implements MultiHopLQI, the TinyOS collection protocol
// the paper uses as its baseline (state of the art for CC2420 platforms at
// the time). MultiHopLQI is a pure physical-layer design: each node
// advertises an accumulated cost in periodic beacons, and receivers judge
// the link to the sender solely by the LQI of the beacon itself — no link
// table, no reception-ratio accounting, no feedback from data traffic.
//
// The cost of one hop is core.AdjustLQI(lqi), the cubic penalty used by
// the TinyOS implementation (it lives in internal/core because the lqi
// estimator kind shares it), so low-LQI links are strongly avoided — but
// links whose received packets carry high LQI while many packets are lost
// entirely (bursty links) look perfect. That blindness is the paper's
// Figure 3 failure case.
package lqirouter

import (
	"fourbit/internal/core"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Config parameterizes MultiHopLQI. Defaults follow the TinyOS library.
type Config struct {
	BeaconPeriod sim.Time // fixed beaconing period (jittered ±20%)
	MaxRetries   int      // transmissions per data packet per hop
	QueueSize    int
	RouteTimeout sim.Time // silence after which the parent is dropped
	DupCacheSize int
	MaxHops      uint8
}

// DefaultConfig returns TinyOS MultiHopLQI-like parameters. The retry
// budget matches the sustained per-packet retransmission counts visible in
// the paper's Figure 3 (~8+ unacked transmissions per packet on a degraded
// in-use link): the protocol keeps hammering the link its LQI metric
// chose, because no link-layer feedback reaches route selection.
func DefaultConfig() Config {
	return Config{
		BeaconPeriod: 30 * sim.Second,
		MaxRetries:   20,
		QueueSize:    12,
		RouteTimeout: 150 * sim.Second,
		DupCacheSize: 64,
		MaxHops:      60,
	}
}

// noRoute is the advertised cost of a node without a route.
const noRoute = 0xFFFF

// Stats counts per-node protocol activity.
type Stats struct {
	Generated     uint64
	Forwarded     uint64
	BeaconsSent   uint64
	ParentChanges uint64
	DupsDropped   uint64
	DropsQueue    uint64
	DropsRetry    uint64
	DropsHops     uint64
}

// Deliver is the root's delivery callback. It is an alias, not a named
// type, so CTP and MultiHopLQI nodes share one OnDeliver signature.
type Deliver = func(origin packet.Addr, hops uint8, data []byte)

// Node is one MultiHopLQI instance.
type Node struct {
	clock  *sim.Simulator
	m      *mac.MAC
	cfg    Config
	self   packet.Addr
	isRoot bool
	rng    *sim.Rand
	probes *probe.Bus

	deliver Deliver

	parent     packet.Addr
	myCost     uint16
	lastParent sim.Time
	beaconSeq  uint16
	started    bool

	queue     []*packet.LQIData
	sending   bool
	attempts  int
	txFrame   packet.Frame       // scratch frame for data sends
	encBuf    []byte             // scratch: encoded data payload
	pumpFn    func()             // n.pump and n.onDataTxDone, bound once so
	dataDone  func(mac.TxResult) // sends and retries allocate no closure
	dup       map[dupKey]struct{}
	dupFIFO   []dupKey
	dupNext   int
	originSeq uint16

	Stats Stats
}

type dupKey struct {
	origin packet.Addr
	seq    uint16
}

// New wires a MultiHopLQI node onto its MAC. Call Start to boot it.
func New(clock *sim.Simulator, m *mac.MAC, isRoot bool, cfg Config, rng *sim.Rand) *Node {
	n := &Node{
		clock:  clock,
		m:      m,
		cfg:    cfg,
		self:   m.Addr(),
		isRoot: isRoot,
		rng:    rng,
		probes: probe.FromSim(clock),
		parent: packet.None,
		myCost: noRoute,
		dup:    make(map[dupKey]struct{}, cfg.DupCacheSize),
	}
	if isRoot {
		n.myCost = 0
	}
	n.pumpFn, n.dataDone = n.pump, n.onDataTxDone
	m.OnReceive(n.onFrame)
	return n
}

// Addr returns the node's address.
func (n *Node) Addr() packet.Addr { return n.self }

// Parent returns the current parent (packet.None when routeless).
func (n *Node) Parent() packet.Addr { return n.parent }

// Cost returns the advertised path cost (0 at root, max when routeless).
func (n *Node) Cost() uint16 { return n.myCost }

// OnDeliver installs the root's delivery callback.
func (n *Node) OnDeliver(fn Deliver) { n.deliver = fn }

// Start boots the beacon timer.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.scheduleBeacon(true)
}

func (n *Node) scheduleBeacon(first bool) {
	d := n.cfg.BeaconPeriod
	var delay sim.Time
	if first {
		delay = n.rng.UniformTime(0, d)
	} else {
		delay = n.rng.UniformTime(d.Scale(0.8), d.Scale(1.2))
	}
	n.clock.After(delay, n.beaconFire)
}

func (n *Node) beaconFire() {
	// Route liveness: a parent silent past the timeout is abandoned.
	if !n.isRoot && n.parent != packet.None &&
		n.clock.Now()-n.lastParent > n.cfg.RouteTimeout {
		old := n.parent
		n.parent = packet.None
		n.myCost = noRoute
		n.Stats.ParentChanges++
		n.probes.ParentChange(n.self, old, packet.None, 0)
	}
	n.sendBeacon()
	n.scheduleBeacon(false)
}

func (n *Node) sendBeacon() {
	if n.m.Busy() {
		return
	}
	n.beaconSeq++
	b := &packet.LQIBeacon{Parent: n.parent, Cost: n.myCost, Seq: n.beaconSeq}
	payload, err := b.Encode()
	if err != nil {
		panic("lqirouter: beacon encode: " + err.Error())
	}
	f := &packet.Frame{Type: packet.TypeBeacon, Src: n.self, Dst: packet.Broadcast, Payload: payload}
	if n.m.Send(f, func(mac.TxResult) { n.pump() }) == nil {
		n.Stats.BeaconsSent++
		n.probes.Beacon(n.self, n.myCost, false)
	}
}

func (n *Node) onFrame(f *packet.Frame, info phy.RxInfo) {
	if !n.started {
		return // unbooted motes hear nothing
	}
	switch f.Type {
	case packet.TypeBeacon:
		b, err := packet.DecodeLQIBeacon(f.Payload)
		if err != nil {
			return
		}
		n.handleBeacon(f.Src, b, info)
	case packet.TypeData:
		n.handleData(f)
	}
}

// handleBeacon applies MultiHopLQI's route logic: the path through the
// sender costs its advertised cost plus the LQI-derived cost of this very
// beacon's reception. Strictly better paths are adopted immediately.
func (n *Node) handleBeacon(src packet.Addr, b *packet.LQIBeacon, info phy.RxInfo) {
	if n.isRoot {
		return
	}
	if b.Parent == n.self {
		// Our own child; adopting it would loop.
		return
	}
	if b.Cost == noRoute {
		return
	}
	link := uint32(core.AdjustLQI(info.LQI))
	total32 := uint32(b.Cost) + link
	if total32 > noRoute-1 {
		total32 = noRoute - 1
	}
	total := uint16(total32)
	if src == n.parent {
		n.myCost = total
		n.lastParent = n.clock.Now()
		return
	}
	if total < n.myCost {
		if n.parent != src {
			n.Stats.ParentChanges++
			// ParentChangeEvent.Cost is ETX-comparable by contract; the
			// raw MultiHopLQI cost normalizes onto that scale by the
			// saturated-LQI hop cost (exactly core.ETXFromLQI's anchor).
			n.probes.ParentChange(n.self, n.parent, src, float64(total)/float64(core.AdjustLQI(110)))
		}
		n.parent = src
		n.myCost = total
		n.lastParent = n.clock.Now()
		n.pump()
	}
}

// Send accepts a client packet for collection.
func (n *Node) Send(data []byte) bool {
	if !n.started {
		return false
	}
	n.originSeq++
	n.Stats.Generated++
	if n.isRoot {
		if n.deliver != nil {
			n.deliver(n.self, 0, data)
		}
		return true
	}
	// Copy data: clients (the collect sources) reuse their encode buffers,
	// so the queue must not alias caller memory.
	d := &packet.LQIData{Origin: n.self, OriginSeq: n.originSeq,
		Data: append([]byte(nil), data...)}
	if !n.enqueue(d) {
		return false
	}
	n.pump()
	return true
}

func (n *Node) handleData(f *packet.Frame) {
	d, err := packet.DecodeLQIData(f.Payload)
	if err != nil {
		return
	}
	k := dupKey{d.Origin, d.OriginSeq}
	if _, seen := n.dup[k]; seen {
		n.Stats.DupsDropped++
		return
	}
	n.dupAdd(k)
	if n.isRoot {
		if n.deliver != nil {
			n.deliver(d.Origin, d.HopCount, d.Data)
		}
		return
	}
	if d.HopCount >= n.cfg.MaxHops {
		n.Stats.DropsHops++
		return
	}
	fwd := *d
	fwd.HopCount++
	if n.enqueue(&fwd) {
		n.pump()
	}
}

func (n *Node) dupAdd(k dupKey) {
	if _, ok := n.dup[k]; ok {
		return
	}
	if len(n.dupFIFO) < n.cfg.DupCacheSize {
		n.dupFIFO = append(n.dupFIFO, k)
	} else {
		delete(n.dup, n.dupFIFO[n.dupNext])
		n.dupFIFO[n.dupNext] = k
		n.dupNext = (n.dupNext + 1) % n.cfg.DupCacheSize
	}
	n.dup[k] = struct{}{}
}

func (n *Node) enqueue(d *packet.LQIData) bool {
	if len(n.queue) >= n.cfg.QueueSize {
		n.Stats.DropsQueue++
		return false
	}
	n.queue = append(n.queue, d)
	return true
}

func (n *Node) pump() {
	if n.sending || len(n.queue) == 0 || n.parent == packet.None || n.m.Busy() {
		return
	}
	d := n.queue[0]
	var err error
	n.encBuf, err = d.AppendTo(n.encBuf[:0])
	if err != nil {
		n.queue = n.queue[1:]
		n.Stats.DropsQueue++
		n.pump()
		return
	}
	// The frame and its payload are node-owned scratch: the MAC encodes
	// the frame on Send and holds it only until dataDone, and pump starts
	// no new send before then.
	n.txFrame = packet.Frame{
		Type:       packet.TypeData,
		AckRequest: true,
		Src:        n.self,
		Dst:        n.parent,
		Payload:    n.encBuf,
	}
	n.sending = true
	if err := n.m.Send(&n.txFrame, n.dataDone); err != nil {
		n.sending = false
		n.retryAfter(10 * sim.Millisecond)
	}
}

// retryAfter re-runs pump after d through the pooled, handle-free timers
// (dispatched in the same order as At), so a retry allocates nothing.
func (n *Node) retryAfter(d sim.Time) {
	n.clock.Schedule(n.clock.Now()+d, n.pumpFn)
}

func (n *Node) onDataTxDone(res mac.TxResult) {
	n.sending = false
	if res.Acked {
		n.queue = n.queue[1:]
		n.attempts = 0
		n.Stats.Forwarded++
		n.pump()
		return
	}
	// No link-layer feedback reaches route selection: MultiHopLQI keeps
	// hammering the same parent until its bounded retries run out.
	n.attempts++
	if n.attempts >= n.cfg.MaxRetries {
		n.queue = n.queue[1:]
		n.attempts = 0
		n.Stats.DropsRetry++
		n.pump()
		return
	}
	n.retryAfter(n.rng.UniformTime(4*sim.Millisecond, 24*sim.Millisecond))
}
