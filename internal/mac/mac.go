// Package mac implements the link layer: an unslotted CSMA/CA transmit path
// with clear-channel assessment and random backoff, plus synchronous
// layer-2 acknowledgments — the mechanism behind the paper's ack bit.
//
// A MAC performs exactly one transmission attempt per Send; retransmission
// policy belongs to the network layer (CTP retries up to 30 times,
// MultiHopLQI up to 5), which also lets the network layer feed every
// attempt's ack bit to the link estimator, as §3.3 requires.
package mac

import (
	"errors"
	"fmt"

	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Params configure CSMA/CA and acknowledgment timing. Defaults approximate
// the TinyOS CC2420 stack.
type Params struct {
	InitialBackoffMin    sim.Time
	InitialBackoffMax    sim.Time
	CongestionBackoffMin sim.Time
	CongestionBackoffMax sim.Time
	MaxCCAAttempts       int      // give up (no transmission) after this many busy CCAs
	AckTurnaround        sim.Time // rx/tx turnaround before the ack goes out
	AckTimeout           sim.Time // ack wait measured from the end of the data frame
}

// DefaultParams returns CC2420-like CSMA and ack timing.
func DefaultParams() Params {
	return Params{
		InitialBackoffMin:    320 * sim.Microsecond,
		InitialBackoffMax:    4960 * sim.Microsecond,
		CongestionBackoffMin: 320 * sim.Microsecond,
		CongestionBackoffMax: 2560 * sim.Microsecond,
		MaxCCAAttempts:       8,
		AckTurnaround:        192 * sim.Microsecond,
		AckTimeout:           1200 * sim.Microsecond,
	}
}

// TxResult reports the outcome of one Send.
type TxResult struct {
	// Sent reports whether the frame actually went on air. False means
	// CSMA gave up after MaxCCAAttempts busy assessments.
	Sent bool
	// Acked is the ack bit: a layer-2 acknowledgment was received for this
	// transmission. Always false for broadcasts and for frames sent
	// without AckRequest. Per the paper: if clear, the packet may or may
	// not have arrived.
	Acked bool
	// CCAAttempts counts clear-channel assessments used (>= 1 if Sent).
	CCAAttempts int
}

// Stats counts per-node link-layer activity. TxData is the basis of the
// paper's cost metric (transmissions per delivered packet).
type Stats struct {
	TxData      uint64 // unicast data transmissions put on air
	TxBeacons   uint64 // broadcast transmissions put on air
	TxAcks      uint64
	RxData      uint64
	RxBeacons   uint64
	RxAcks      uint64
	AckTimeouts uint64
	CCAFailures uint64 // Sends abandoned with the channel busy
}

// ErrBusy is returned by Send when a transmission is already in flight.
var ErrBusy = errors.New("mac: transmission in progress")

// Receiver is the upper-layer frame sink. Frames addressed to this node or
// broadcast are delivered with their physical-layer metadata (including the
// white bit). The frame and its payload — which aliases the sender's
// reusable encode buffer — are valid only for the duration of the callback
// and must be treated as immutable; layers that need the payload bytes
// later must copy them before returning (the sender's next transmission
// rewrites the backing array).
type Receiver func(f *packet.Frame, info phy.RxInfo)

// MAC is one node's link layer.
//
// At most one Send is in flight, and its backoff → transmission → ack-wait
// chain needs exactly one pending timeout at a time — so the MAC owns a
// single reusable operation record and a single persistent timer that it
// re-arms per stage (sim.Timer.Reschedule), instead of allocating a
// record, closures and timers per Send. With ~one Send per data packet and
// per beacon, this removes the largest steady-state allocation source in
// the simulator.
type MAC struct {
	clock  *sim.Simulator
	radio  *phy.Radio
	addr   packet.Addr
	p      Params
	rng    *sim.Rand
	recv   Receiver
	probes *probe.Bus

	dsn     uint8
	cur     *txOp // nil, or &m.op
	op      txOp  // the reusable operation record
	timer   *sim.Timer
	txBuf   []byte       // reusable data/beacon encode buffer; see Send
	rxFrame packet.Frame // scratch for the receive path; see onRadioReceive

	// Pooled synchronous acks. An ack's encoded bytes are referenced by
	// the medium until its transmission leaves the air, so each record
	// carries the instant it becomes provably unreferenced (busyUntil) and
	// getAckOp only reuses records strictly past it — no release event,
	// no allocation per ack. In practice a MAC has at most a couple in
	// flight, so the pool stays tiny.
	acks      []*ackOp
	ackFireFn func(any) // m.fireAck adapter, built once for ScheduleArg

	Stats Stats
}

// ackOp is one pooled in-flight acknowledgment.
type ackOp struct {
	enc       []byte
	busyUntil sim.Time
}

// txState names the pending stage of the in-flight operation — what the
// MAC's timer means when it fires.
type txState uint8

const (
	txBackoff txState = iota // waiting to assess the channel
	txOnAir                  // frame on air; timer fires at its end
	txAckWait                // frame sent; timer is the ack timeout
)

type txOp struct {
	frame    *packet.Frame
	encoded  []byte
	done     func(TxResult)
	attempts int
	awaitAck bool
	state    txState
}

// New builds a MAC bound to a radio and gives the radio its address, so
// the medium drops overheard traffic addressed to other nodes before it
// reaches the MAC (see phy.Radio.SetAddr). rng drives backoff draws. The
// MAC emits its transmission outcomes (the tx/ack probe events) into the
// probe bus installed on clock, if any.
func New(clock *sim.Simulator, radio *phy.Radio, addr packet.Addr, p Params, rng *sim.Rand) *MAC {
	m := &MAC{clock: clock, radio: radio, addr: addr, p: p, rng: rng, probes: probe.FromSim(clock)}
	m.timer = clock.NewTimer(m.onTimer)
	m.ackFireFn = func(a any) { m.fireAck(a.(*ackOp)) }
	radio.SetAddr(addr)
	radio.OnReceive(m.onRadioReceive)
	return m
}

// onTimer dispatches the in-flight operation's pending stage.
func (m *MAC) onTimer() {
	op := m.cur
	if op == nil {
		return
	}
	switch op.state {
	case txBackoff:
		m.tryCCA(op)
	case txOnAir:
		m.onTxDone(op)
	case txAckWait:
		m.Stats.AckTimeouts++
		m.finish(op, TxResult{Sent: true, Acked: false, CCAAttempts: op.attempts})
	}
}

// Addr returns this node's link-layer address.
func (m *MAC) Addr() packet.Addr { return m.addr }

// OnReceive installs the upper-layer frame sink.
func (m *MAC) OnReceive(r Receiver) { m.recv = r }

// Busy reports whether a Send is in flight.
func (m *MAC) Busy() bool { return m.cur != nil }

// Send transmits f (one CSMA attempt; no retransmission). The frame's Seq
// is assigned by the MAC. done, if non-nil, is invoked exactly once with
// the outcome; it may immediately issue the next Send.
func (m *MAC) Send(f *packet.Frame, done func(TxResult)) error {
	if m.cur != nil {
		return ErrBusy
	}
	if f.Src != m.addr {
		panic(fmt.Sprintf("mac %v: sending frame with Src %v", m.addr, f.Src))
	}
	if f.Dst == m.addr {
		panic(fmt.Sprintf("mac %v: sending frame to self", m.addr))
	}
	m.dsn++
	f.Seq = m.dsn
	// One reusable encode buffer: the medium references these bytes only
	// until the transmission leaves the air, and the next Send cannot
	// start before then (Busy serializes operations), so reuse is safe.
	var err error
	m.txBuf, err = f.AppendTo(m.txBuf[:0])
	if err != nil {
		return err
	}
	m.op = txOp{
		frame:    f,
		encoded:  m.txBuf,
		done:     done,
		awaitAck: f.AckRequest && f.Dst != packet.Broadcast,
		state:    txBackoff,
	}
	m.cur = &m.op
	m.timer.RescheduleAfter(m.rng.UniformTime(m.p.InitialBackoffMin, m.p.InitialBackoffMax))
	return nil
}

func (m *MAC) tryCCA(op *txOp) {
	op.attempts++
	if !m.radio.ChannelClear() {
		if op.attempts >= m.p.MaxCCAAttempts {
			m.Stats.CCAFailures++
			m.finish(op, TxResult{Sent: false, CCAAttempts: op.attempts})
			return
		}
		m.timer.RescheduleAfter(m.rng.UniformTime(m.p.CongestionBackoffMin, m.p.CongestionBackoffMax))
		return
	}
	air := m.radio.Transmit(op.encoded)
	if op.frame.Dst == packet.Broadcast {
		m.Stats.TxBeacons++
	} else {
		m.Stats.TxData++
	}
	op.state = txOnAir
	m.timer.RescheduleAfter(air)
}

func (m *MAC) onTxDone(op *txOp) {
	if !op.awaitAck {
		m.finish(op, TxResult{Sent: true, CCAAttempts: op.attempts})
		return
	}
	op.state = txAckWait
	m.timer.RescheduleAfter(m.p.AckTimeout)
}

func (m *MAC) finish(op *txOp, res TxResult) {
	if m.cur != op {
		return
	}
	m.cur = nil
	m.timer.Cancel() // no-op unless an ack arrived ahead of its timeout
	m.probes.Tx(m.addr, op.frame.Dst, res.Sent, res.Acked, res.CCAAttempts)
	done := op.done
	op.frame, op.encoded, op.done = nil, nil, nil // done may start the next Send
	if done != nil {
		done(res)
	}
}

func (m *MAC) onRadioReceive(data []byte, info phy.RxInfo) {
	// The radio's address filter has already dropped overheard traffic
	// addressed to someone else. Decode into the MAC-owned scratch frame:
	// receivers get a *Frame that is valid only for the duration of the
	// upcall (see Receiver).
	f := &m.rxFrame
	if err := packet.DecodeFrameInto(f, data); err != nil {
		return
	}
	switch {
	case f.Type == packet.TypeAck:
		if f.Dst != m.addr {
			return
		}
		m.Stats.RxAcks++
		op := m.cur
		if op != nil && op.awaitAck && op.state == txAckWait && m.timer.Active() &&
			f.Seq == op.frame.Seq && f.Src == op.frame.Dst {
			m.finish(op, TxResult{Sent: true, Acked: true, CCAAttempts: op.attempts})
		}
	case f.Dst == m.addr || f.Dst == packet.Broadcast:
		if f.Dst == m.addr {
			m.Stats.RxData++
			if f.AckRequest {
				m.sendAck(f)
			}
		} else {
			m.Stats.RxBeacons++
		}
		m.probes.Rx(m.addr, f.Src, f.Dst, info.LQI)
		if m.recv != nil {
			m.recv(f, info)
		}
	}
}

// sendAck emits the synchronous L2 acknowledgment after the rx/tx
// turnaround. Hardware acks preempt whatever the transmit path is doing
// short of an actual transmission in progress.
func (m *MAC) sendAck(of *packet.Frame) {
	ack := packet.Frame{Type: packet.TypeAck, Seq: of.Seq, Src: m.addr, Dst: of.Src}
	op := m.getAckOp(ack.EncodedLen())
	if err := ack.EncodeTo(op.enc); err != nil {
		panic("mac: ack encode failed: " + err.Error())
	}
	m.clock.ScheduleArg(m.clock.Now()+m.p.AckTurnaround, m.ackFireFn, op)
}

// getAckOp returns an ack record whose previous transmission is provably
// off the air (strictly past busyUntil — at the boundary instant the
// medium's finish sweep may not have run yet), growing the pool when every
// record is still in flight.
func (m *MAC) getAckOp(encLen int) *ackOp {
	now := m.clock.Now()
	var op *ackOp
	for _, a := range m.acks {
		if a.busyUntil < now {
			op = a
			break
		}
	}
	if op == nil {
		op = &ackOp{}
		m.acks = append(m.acks, op)
	}
	if cap(op.enc) < encLen {
		op.enc = make([]byte, encLen)
	}
	op.enc = op.enc[:encLen]
	// In flight from this moment; fireAck tightens the bound once the
	// actual airtime is known.
	op.busyUntil = sim.Never
	return op
}

func (m *MAC) fireAck(op *ackOp) {
	if m.radio.Transmitting() {
		op.busyUntil = m.clock.Now() - 1 // tx collision with our own frame; ack is lost
		return
	}
	air := m.radio.Transmit(op.enc)
	m.Stats.TxAcks++
	op.busyUntil = m.clock.Now() + air
}
