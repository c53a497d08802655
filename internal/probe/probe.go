// Package probe is the simulator's observability bus: one subscription
// point for the typed events every protocol layer emits while a run
// executes — transmissions and their ack bits (mac), routing beacons and
// parent changes (ctp, lqirouter), link-table admission and eviction (every
// core.LinkEstimator kind), traffic generation (collect) and end-to-end
// delivery (node).
//
// Sinks are pure observers: attaching one never schedules events, draws
// randomness, or mutates protocol state, so a run's trajectory is
// bit-identical with any set of sinks attached — including none. With no
// sinks the emit paths reduce to a nil/empty check, which keeps the
// default (unprobed) hot path at its measured cost.
//
// The bus reaches the layers through the simulator: node.NewEnv builds one
// Bus per run and installs it as the clock's opaque probe slot
// (sim.Simulator.SetProbes); layers constructed over that clock recover it
// with FromSim at construction time. That plumbing keeps constructor
// signatures stable as instrumentation grows — only the link estimators,
// which are built without a clock, receive the bus explicitly
// (core.LinkEstimator.SetProbes).
package probe

import (
	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// TxEvent reports the completion of one link-layer Send: the transmission
// (or the CSMA give-up) and its ack bit. Dest is packet.Broadcast for
// beacons; Acked is meaningful only for acknowledged unicasts.
type TxEvent struct {
	At          sim.Time
	Node        packet.Addr // transmitter
	Dest        packet.Addr
	Sent        bool // false: CSMA gave up, nothing went on air
	Acked       bool // the ack bit of this transmission
	CCAAttempts int
}

// Broadcast reports whether the transmission was a broadcast (beacon).
func (e TxEvent) Broadcast() bool { return e.Dest == packet.Broadcast }

// RxEvent reports one frame delivered up by the link layer (addressed to
// the node or broadcast), with its physical-layer quality indicator.
type RxEvent struct {
	At   sim.Time
	Node packet.Addr // receiver
	Src  packet.Addr
	Dest packet.Addr // packet.Broadcast for beacons
	LQI  uint8
}

// BeaconEvent reports a routing beacon put on air by the network layer.
type BeaconEvent struct {
	At   sim.Time
	Node packet.Addr
	// CostFixed is the advertised path cost in the 1/10-ETX wire encoding
	// (0xFFFF = no route).
	CostFixed uint16
	Pull      bool // the beacon asks neighbors for routing state
}

// ParentChangeEvent reports a next-hop change in the routing engine. To is
// packet.None (and Cost 0) when the node lost its route entirely.
type ParentChangeEvent struct {
	At       sim.Time
	Node     packet.Addr
	From, To packet.Addr
	Cost     float64 // new path ETX through To (0 when routeless)
}

// TableOp names a link-table admission outcome.
type TableOp uint8

// Table operations. A replacement emits OpEvict for the victim followed by
// OpReplace for the newcomer, so occupancy is conserved event-by-event.
const (
	OpInsert  TableOp = iota // newcomer granted a free slot
	OpReplace                // newcomer granted a slot freed by eviction
	OpEvict                  // incumbent removed to make room
	OpReject                 // newcomer dropped, table full
)

// String names the operation for exports.
func (op TableOp) String() string {
	switch op {
	case OpInsert:
		return "insert"
	case OpReplace:
		return "replace"
	case OpEvict:
		return "evict"
	case OpReject:
		return "reject"
	}
	return "unknown"
}

// TableEvent reports one link-table admission decision of a node's
// estimator.
type TableEvent struct {
	At       sim.Time
	Node     packet.Addr
	Neighbor packet.Addr // the entry the operation concerns
	Op       TableOp
}

// GenerateEvent reports one application packet offered to the collection
// protocol.
type GenerateEvent struct {
	At       sim.Time
	Origin   packet.Addr
	Seq      uint32
	Accepted bool // false: the protocol refused it (queue full, not booted)
}

// DeliverEvent reports one data packet arriving at the collection root
// (duplicates included — dedup is the ledger's job, not the bus's).
type DeliverEvent struct {
	At     sim.Time
	Origin packet.Addr
	Seq    uint32
	Hops   uint8
}

// Sink receives the bus's typed events. Embed BaseSink to implement only
// the events a collector cares about.
type Sink interface {
	OnTx(TxEvent)
	OnRx(RxEvent)
	OnBeacon(BeaconEvent)
	OnParentChange(ParentChangeEvent)
	OnTable(TableEvent)
	OnGenerate(GenerateEvent)
	OnDeliver(DeliverEvent)
}

// BaseSink is a no-op Sink for embedding.
type BaseSink struct{}

// OnTx implements Sink.
func (BaseSink) OnTx(TxEvent) {}

// OnRx implements Sink.
func (BaseSink) OnRx(RxEvent) {}

// OnBeacon implements Sink.
func (BaseSink) OnBeacon(BeaconEvent) {}

// OnParentChange implements Sink.
func (BaseSink) OnParentChange(ParentChangeEvent) {}

// OnTable implements Sink.
func (BaseSink) OnTable(TableEvent) {}

// OnGenerate implements Sink.
func (BaseSink) OnGenerate(GenerateEvent) {}

// OnDeliver implements Sink.
func (BaseSink) OnDeliver(DeliverEvent) {}

// Bus stamps events with the simulation clock and fans them out to the
// attached sinks in attachment order. A nil *Bus is a valid, permanently
// silent bus, so layers may emit unconditionally.
type Bus struct {
	clock *sim.Simulator
	sinks []Sink
}

// NewBus builds a bus over the clock and installs it as the simulator's
// probe slot, where FromSim finds it.
func NewBus(clock *sim.Simulator) *Bus {
	b := &Bus{clock: clock}
	clock.SetProbes(b)
	return b
}

// FromSim recovers the bus installed on the simulator, or nil if the run
// carries no probes (e.g. layer unit tests that build a bare clock).
func FromSim(s *sim.Simulator) *Bus {
	if s == nil {
		return nil
	}
	b, _ := s.Probes().(*Bus)
	return b
}

// Attach subscribes a sink to every subsequent event.
func (b *Bus) Attach(s Sink) { b.sinks = append(b.sinks, s) }

// Active reports whether any sink is attached — the emit-path fast check.
func (b *Bus) Active() bool { return b != nil && len(b.sinks) > 0 }

// Tx emits a transmission-completion event.
func (b *Bus) Tx(node, dest packet.Addr, sent, acked bool, cca int) {
	if !b.Active() {
		return
	}
	ev := TxEvent{At: b.clock.Now(), Node: node, Dest: dest, Sent: sent, Acked: acked, CCAAttempts: cca}
	for _, s := range b.sinks {
		s.OnTx(ev)
	}
}

// Rx emits a frame-delivered event.
func (b *Bus) Rx(node, src, dest packet.Addr, lqi uint8) {
	if !b.Active() {
		return
	}
	ev := RxEvent{At: b.clock.Now(), Node: node, Src: src, Dest: dest, LQI: lqi}
	for _, s := range b.sinks {
		s.OnRx(ev)
	}
}

// Beacon emits a routing-beacon-sent event.
func (b *Bus) Beacon(node packet.Addr, costFixed uint16, pull bool) {
	if !b.Active() {
		return
	}
	ev := BeaconEvent{At: b.clock.Now(), Node: node, CostFixed: costFixed, Pull: pull}
	for _, s := range b.sinks {
		s.OnBeacon(ev)
	}
}

// ParentChange emits a routing parent-change event.
func (b *Bus) ParentChange(node, from, to packet.Addr, cost float64) {
	if !b.Active() {
		return
	}
	ev := ParentChangeEvent{At: b.clock.Now(), Node: node, From: from, To: to, Cost: cost}
	for _, s := range b.sinks {
		s.OnParentChange(ev)
	}
}

// Table emits a link-table admission event.
func (b *Bus) Table(node, neighbor packet.Addr, op TableOp) {
	if !b.Active() {
		return
	}
	ev := TableEvent{At: b.clock.Now(), Node: node, Neighbor: neighbor, Op: op}
	for _, s := range b.sinks {
		s.OnTable(ev)
	}
}

// Generate emits a traffic-generation event.
func (b *Bus) Generate(origin packet.Addr, seq uint32, accepted bool) {
	if !b.Active() {
		return
	}
	ev := GenerateEvent{At: b.clock.Now(), Origin: origin, Seq: seq, Accepted: accepted}
	for _, s := range b.sinks {
		s.OnGenerate(ev)
	}
}

// Deliver emits a root-delivery event.
func (b *Bus) Deliver(origin packet.Addr, seq uint32, hops uint8) {
	if !b.Active() {
		return
	}
	ev := DeliverEvent{At: b.clock.Now(), Origin: origin, Seq: seq, Hops: hops}
	for _, s := range b.sinks {
		s.OnDeliver(ev)
	}
}
