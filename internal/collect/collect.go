// Package collect implements the collection application of the paper's
// evaluation: every node offers a constant-rate stream of readings to one
// sink, with jitter against synchronization and staggered boot. The Ledger
// tracks unique end-to-end deliveries per origin — the raw material of the
// paper's delivery-ratio and cost metrics.
package collect

import (
	"encoding/binary"
	"errors"
	"sort"

	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Workload describes the offered traffic (paper §4: one packet every 10
// seconds per node, jittered, with boot staggered uniformly over 30 s).
type Workload struct {
	Period       sim.Time
	JitterFrac   float64 // each inter-packet gap is U[1-j, 1+j] * Period
	PayloadBytes int     // application payload size (>= 4 for the seq)
	BootWindow   sim.Time
}

// DefaultWorkload returns the paper's workload.
func DefaultWorkload() Workload {
	return Workload{
		Period:       10 * sim.Second,
		JitterFrac:   0.1,
		PayloadBytes: 12,
		BootWindow:   30 * sim.Second,
	}
}

// EncodeReading builds an application payload carrying seq, padded to size.
func EncodeReading(seq uint32, size int) []byte {
	return AppendReading(nil, seq, size)
}

// AppendReading appends an application payload carrying seq, padded to
// size, onto dst — the allocation-free encoder for sources reusing one
// buffer per packet (the protocols copy accepted payloads).
func AppendReading(dst []byte, seq uint32, size int) []byte {
	if size < 4 {
		size = 4
	}
	start := len(dst)
	if cap(dst)-start >= size {
		dst = dst[:start+size]
		for i := start; i < start+size; i++ {
			dst[i] = 0
		}
	} else {
		dst = append(dst, make([]byte, size)...)
	}
	binary.BigEndian.PutUint32(dst[start:], seq)
	return dst
}

// ErrShortReading reports an undecodable application payload.
var ErrShortReading = errors.New("collect: reading too short")

// DecodeReading extracts the application sequence number.
func DecodeReading(b []byte) (uint32, error) {
	if len(b) < 4 {
		return 0, ErrShortReading
	}
	return binary.BigEndian.Uint32(b), nil
}

// Source is one node's traffic generator. Send is the protocol's client
// entry point; it reports whether the packet was accepted.
type Source struct {
	clock  *sim.Simulator
	wl     Workload
	rng    *sim.Rand
	send   func(data []byte) bool
	origin packet.Addr
	ledger *Ledger
	probes *probe.Bus
	seq    uint32
	timer  *sim.Timer // one persistent timer, re-armed per packet
	buf    []byte     // reusable reading buffer (protocols copy on accept)
}

// NewSource builds a generator for origin that submits through send and
// accounts generation in ledger. Each offered packet is also emitted as a
// probe.GenerateEvent into the bus installed on clock, if any.
func NewSource(clock *sim.Simulator, origin packet.Addr, wl Workload, rng *sim.Rand,
	send func([]byte) bool, ledger *Ledger) *Source {
	src := &Source{clock: clock, wl: wl, rng: rng, send: send, origin: origin,
		ledger: ledger, probes: probe.FromSim(clock)}
	src.timer = clock.NewTimer(src.fire)
	return src
}

// Start schedules the first packet at boot + U[0, Period].
func (s *Source) Start(boot sim.Time) {
	first := boot + s.rng.UniformTime(0, s.wl.Period)
	s.timer.Reschedule(first)
}

func (s *Source) fire() {
	s.seq++
	s.ledger.NoteGenerated(s.origin, s.seq)
	s.buf = AppendReading(s.buf[:0], s.seq, s.wl.PayloadBytes)
	accepted := s.send(s.buf)
	s.probes.Generate(s.origin, s.seq, accepted)
	j := s.wl.JitterFrac
	gap := s.wl.Period.Scale(s.rng.Uniform(1-j, 1+j))
	s.timer.RescheduleAfter(gap)
}

// Ledger is the sink-side accounting of unique deliveries.
type Ledger struct {
	generated map[packet.Addr]uint32
	delivered map[packet.Addr]map[uint32]struct{}
	hops      map[packet.Addr]uint64 // sum of per-delivery hop counts
	dups      uint64
	unique    uint64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		generated: make(map[packet.Addr]uint32),
		delivered: make(map[packet.Addr]map[uint32]struct{}),
		hops:      make(map[packet.Addr]uint64),
	}
}

// NoteGenerated records that origin produced application seq.
func (l *Ledger) NoteGenerated(origin packet.Addr, seq uint32) {
	if seq > l.generated[origin] {
		l.generated[origin] = seq
	}
}

// Delivery is one sink-side delivery event, recorded by sharded runs into
// per-shard logs instead of mutating a shared ledger mid-run. MergeLedgers
// replays the logs afterwards.
type Delivery struct {
	At     sim.Time
	Origin packet.Addr
	Seq    uint32
	Sink   int
	Hops   uint8
}

// MergeLedgers combines the per-shard accounting of a sharded run into
// one ledger equal to what a serial run over the same events would have
// produced. Generation maps union trivially (each origin reports to
// exactly one shard's ledger); delivery logs are concatenated and
// replayed in (time, origin, seq, sink) order, so first-delivery hop
// crediting and duplicate counting cannot depend on the shard count.
func MergeLedgers(parts []*Ledger, logs [][]Delivery) *Ledger {
	out := NewLedger()
	for _, p := range parts {
		for origin, g := range p.generated {
			if g > out.generated[origin] {
				out.generated[origin] = g
			}
		}
	}
	var all []Delivery
	for _, log := range logs {
		all = append(all, log...)
	}
	sort.Slice(all, func(a, b int) bool {
		x, y := all[a], all[b]
		if x.At != y.At {
			return x.At < y.At
		}
		if x.Origin != y.Origin {
			return x.Origin < y.Origin
		}
		if x.Seq != y.Seq {
			return x.Seq < y.Seq
		}
		return x.Sink < y.Sink
	})
	for _, d := range all {
		out.NoteDelivered(d.Origin, d.Seq, d.Hops)
	}
	return out
}

// NoteDelivered records a delivery at the sink; duplicates are counted
// separately and excluded from unique totals.
func (l *Ledger) NoteDelivered(origin packet.Addr, seq uint32, hops uint8) {
	m := l.delivered[origin]
	if m == nil {
		m = make(map[uint32]struct{})
		l.delivered[origin] = m
	}
	if _, ok := m[seq]; ok {
		l.dups++
		return
	}
	m[seq] = struct{}{}
	l.unique++
	l.hops[origin] += uint64(hops)
}

// Unique returns the number of unique packets delivered.
func (l *Ledger) Unique() uint64 { return l.unique }

// Duplicates returns the number of duplicate deliveries.
func (l *Ledger) Duplicates() uint64 { return l.dups }

// Generated returns the total packets generated across origins.
func (l *Ledger) Generated() uint64 {
	var total uint64
	for _, g := range l.generated {
		total += uint64(g)
	}
	return total
}

// DeliveryRatio returns unique delivered / generated for origin (1 when the
// origin generated nothing).
func (l *Ledger) DeliveryRatio(origin packet.Addr) float64 {
	g := l.generated[origin]
	if g == 0 {
		return 1
	}
	return float64(len(l.delivered[origin])) / float64(g)
}

// DeliveryRatios returns the per-origin delivery ratios for all origins
// that generated traffic.
func (l *Ledger) DeliveryRatios() map[packet.Addr]float64 {
	out := make(map[packet.Addr]float64, len(l.generated))
	for origin := range l.generated {
		out[origin] = l.DeliveryRatio(origin)
	}
	return out
}

// TotalDeliveryRatio returns unique delivered / generated across the network.
func (l *Ledger) TotalDeliveryRatio() float64 {
	g := l.Generated()
	if g == 0 {
		return 1
	}
	return float64(l.unique) / float64(g)
}

// MeanHops returns the mean hop count over unique deliveries.
func (l *Ledger) MeanHops() float64 {
	if l.unique == 0 {
		return 0
	}
	var sum uint64
	for _, h := range l.hops {
		sum += h
	}
	return float64(sum) / float64(l.unique)
}
