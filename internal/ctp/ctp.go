// Package ctp implements the Collection Tree Protocol (TEP 123): an
// address-free anycast collection protocol in which every node maintains a
// route (a parent and a path-ETX cost) toward the root, beacons its cost
// with a Trickle-style adaptive timer, and forwards data packets hop by hop
// with per-hop retransmissions.
//
// The routing engine supplies the network layer's two bits of the 4B
// design: it pins its current parent in the link estimator's table (pin
// bit) and implements core.Comparer to answer the estimator's compare-bit
// queries against its routing table. The forwarding engine feeds the ack
// bit for every data transmission back to the estimator.
package ctp

import (
	"math"

	"fourbit/internal/core"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Config parameterizes CTP. Defaults mirror the TinyOS implementation.
type Config struct {
	BeaconMin sim.Time // Trickle minimum beaconing interval
	BeaconMax sim.Time // Trickle maximum beaconing interval
	// ParentSwitchThreshold is the ETX improvement a candidate must offer
	// before the node abandons its current parent (route hysteresis).
	ParentSwitchThreshold float64
	// MaxRetries bounds transmissions per data packet at each hop.
	MaxRetries    int
	RetryDelayMin sim.Time
	RetryDelayMax sim.Time
	QueueSize     int
	DupCacheSize  int
	// AgeFactor scales the current beacon interval into the silence budget
	// passed to the estimator's aging pass.
	AgeFactor float64
	// MaxTHL drops packets that have lived too many hops (loop damping).
	MaxTHL    uint8
	CollectID uint8
}

// DefaultConfig returns TinyOS-like CTP parameters.
func DefaultConfig() Config {
	return Config{
		BeaconMin:             125 * sim.Millisecond,
		BeaconMax:             128 * sim.Second,
		ParentSwitchThreshold: 1.5,
		MaxRetries:            30,
		// Retries are paced at forwarding-timer granularity (as in the
		// TinyOS implementation): spacing retransmissions out rides
		// through short interference bursts instead of burning the whole
		// retry budget inside one.
		RetryDelayMin: 20 * sim.Millisecond,
		RetryDelayMax: 90 * sim.Millisecond,
		QueueSize:     12,
		DupCacheSize:  64,
		AgeFactor:     2.5,
		MaxTHL:        250,
		CollectID:     1,
	}
}

// Stats counts per-node CTP activity.
type Stats struct {
	Generated     uint64 // client packets accepted from the application
	Forwarded     uint64 // data packets passed on toward the root
	BeaconsSent   uint64
	ParentChanges uint64
	TrickleResets uint64
	LoopsDetected uint64
	DupsDropped   uint64
	DropsQueue    uint64 // enqueue failures (queue full / no room)
	DropsRetry    uint64 // packets abandoned after MaxRetries
	DropsTHL      uint64
}

// Deliver is the root's upward delivery callback.
type Deliver func(origin packet.Addr, originSeq uint8, thl uint8, data []byte)

// routeEntry is what we know about a neighbor's advertised route. Entries
// live in a dense array indexed by neighbor address (addresses are small
// integers); known marks occupied slots. The array layout keeps parent
// selection — which runs on every beacon and every data transmission —
// free of map hashing.
type routeEntry struct {
	known     bool
	cost      float64 // advertised path ETX
	parent    packet.Addr
	lastHeard sim.Time
}

const noCost = math.MaxFloat64

// invalidETX is the fixed-point wire value advertising "no route".
const invalidETX = 0xFFFF

// Node is one CTP instance: routing engine + forwarding engine.
type Node struct {
	clock  *sim.Simulator
	m      *mac.MAC
	est    core.LinkEstimator
	cfg    Config
	self   packet.Addr
	isRoot bool
	rng    *sim.Rand
	probes *probe.Bus

	deliver Deliver

	// Routing engine state.
	routes        []routeEntry // dense, indexed by neighbor address
	parent        packet.Addr
	cost          float64
	interval      sim.Time
	beacon        *sim.Timer
	started       bool
	lastLoopReset sim.Time
	leBuf         packet.LEFrame // scratch for beacon decoding

	// Forwarding engine state.
	queue     []*packet.CTPData
	sending   bool
	attempts  int
	dup       *dupCache
	originSeq uint8

	// Steady-state scratch: the per-send closures, buffers and envelopes
	// that used to be allocated per beacon / per data packet. The MAC
	// serializes transmissions (Busy), so one of each suffices; queued
	// packets own their bytes via the envelope free list, so nothing
	// aliases a reused buffer.
	pumpFn     func()             // pooled-timer callback for retry pacing
	beaconDone func(mac.TxResult) // beacon Send completion, built once
	dataDone   func(mac.TxResult) // data Send completion, built once
	txParent   packet.Addr        // Dst of the in-flight data frame
	txFrame    packet.Frame       // scratch frame for beacon + data sends
	cbBuf      []byte             // scratch: encoded CTPBeacon
	encBuf     []byte             // scratch: encoded LE envelope / data payload
	rxData     packet.CTPData     // scratch for data-frame decoding
	envFree    []*packet.CTPData  // recycled forwarding-queue envelopes

	Stats Stats
}

// New wires a CTP node onto its MAC and link estimator — any
// core.LinkEstimator; the router is estimator-agnostic. The node registers
// itself as the MAC's receiver and as the estimator's compare-bit provider
// (estimators without a compare bit ignore the registration). Call Start
// to boot it.
func New(clock *sim.Simulator, m *mac.MAC, est core.LinkEstimator, isRoot bool, cfg Config, rng *sim.Rand) *Node {
	n := &Node{
		clock:  clock,
		m:      m,
		est:    est,
		cfg:    cfg,
		self:   m.Addr(),
		isRoot: isRoot,
		rng:    rng,
		probes: probe.FromSim(clock),
		parent: packet.None,
		cost:   noCost,
		dup:    newDupCache(cfg.DupCacheSize),
	}
	if isRoot {
		n.cost = 0
	}
	n.beacon = clock.NewTimer(n.beaconFire)
	n.pumpFn = n.pump
	n.beaconDone = func(mac.TxResult) { n.pump() }
	n.dataDone = func(res mac.TxResult) { n.onDataTxDone(n.txParent, res) }
	m.OnReceive(n.onFrame)
	est.SetComparer(n)
	return n
}

// Addr returns the node's address.
func (n *Node) Addr() packet.Addr { return n.self }

// Parent returns the current parent (packet.None when routeless).
func (n *Node) Parent() packet.Addr { return n.parent }

// Cost returns the node's current path ETX (0 at the root); the boolean is
// false while the node has no route.
func (n *Node) Cost() (float64, bool) {
	if n.cost == noCost {
		return 0, false
	}
	return n.cost, true
}

// QueueLen returns the forwarding queue occupancy.
func (n *Node) QueueLen() int { return len(n.queue) }

// Estimator returns the node's link estimator (for metrics and tests).
func (n *Node) Estimator() core.LinkEstimator { return n.est }

// OnDeliver installs the root's delivery callback.
func (n *Node) OnDeliver(fn Deliver) { n.deliver = fn }

// Start boots the routing engine.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.trickleReset()
}

// Send accepts a client packet for collection. At the root it loops back
// directly to the delivery callback.
func (n *Node) Send(data []byte) bool {
	if !n.started {
		return false
	}
	n.originSeq++
	n.Stats.Generated++
	if n.isRoot {
		if n.deliver != nil {
			n.deliver(n.self, n.originSeq, 0, data)
		}
		return true
	}
	// The packet owns a copy of data in a recycled envelope: clients (the
	// collect sources) reuse their encode buffers, so the queue must not
	// alias caller memory.
	env := n.newEnvelope()
	env.Origin, env.OriginSeq, env.CollectID = n.self, n.originSeq, n.cfg.CollectID
	env.Data = append(env.Data[:0], data...)
	if !n.enqueue(env) {
		n.releaseEnvelope(env)
		return false
	}
	n.pump()
	return true
}

// newEnvelope returns a queue-owned CTPData, recycled when possible. Its
// Data slice keeps its backing array across recycling, so steady-state
// forwarding allocates nothing.
func (n *Node) newEnvelope() *packet.CTPData {
	if k := len(n.envFree); k > 0 {
		e := n.envFree[k-1]
		n.envFree = n.envFree[:k-1]
		return e
	}
	return &packet.CTPData{}
}

// releaseEnvelope recycles an envelope once it leaves the queue.
func (n *Node) releaseEnvelope(d *packet.CTPData) {
	buf := d.Data
	*d = packet.CTPData{}
	if buf != nil {
		d.Data = buf[:0]
	}
	n.envFree = append(n.envFree, d)
}

// onFrame dispatches MAC deliveries. A node that has not booted hears
// nothing (boot staggering is real: the radio of an unbooted mote is off).
func (n *Node) onFrame(f *packet.Frame, info phy.RxInfo) {
	if !n.started {
		return
	}
	switch f.Type {
	case packet.TypeBeacon:
		n.onBeaconFrame(f, info)
	case packet.TypeData:
		n.onDataFrame(f, info)
	}
}
