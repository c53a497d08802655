package ctp

import (
	"fourbit/internal/core"
	"fourbit/internal/mac"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
)

// onDataFrame handles a unicast data frame addressed to us: duplicate
// suppression, loop detection against the sender's advertised cost, and
// either root delivery or re-enqueue for the next hop. The frame's
// physical-layer metadata feeds the estimator's overheard-frame hook
// before any protocol processing — reception quality is a property of the
// link, not of the payload (the four-bit estimator ignores the hook; the
// LQI estimator samples it).
func (n *Node) onDataFrame(f *packet.Frame, info phy.RxInfo) {
	n.est.OnOverhear(f.Src, core.RxMeta{White: info.White, LQI: info.LQI, SNRdB: info.SNRdB}, n.clock.Now())
	// Decode into node scratch: d.Data aliases the frame payload, which
	// is only valid for this callback — the forwarding path below copies
	// it into a queue-owned envelope before returning.
	d := &n.rxData
	if err := packet.DecodeCTPDataInto(d, f.Payload); err != nil {
		return
	}
	if n.dup.seen(d.Origin, d.OriginSeq, d.THL) {
		n.Stats.DupsDropped++
		return
	}
	n.dup.add(d.Origin, d.OriginSeq, d.THL)

	if n.isRoot {
		if n.deliver != nil {
			n.deliver(d.Origin, d.OriginSeq, d.THL, d.Data)
		}
		return
	}
	// Loop detection (TEP 123): the sender believed we are closer to the
	// root, but our cost is not smaller than its advertised cost — the
	// gradient is inconsistent. Beacon soon to repair it; forward anyway
	// (THL caps true loops). Resets are rate-limited: on fluctuating links
	// stale cost stamps are routine, and one repair beacon per window is
	// enough (without the limit, inconsistency resets at every forwarded
	// packet collapse Trickle into a permanent beacon storm).
	if d.ETX != invalidETX && n.cost != noCost && float64(d.ETX)/10 <= n.cost {
		n.Stats.LoopsDetected++
		if now := n.clock.Now(); now-n.lastLoopReset >= 2*sim.Second {
			n.lastLoopReset = now
			n.trickleReset()
		}
	}
	if d.THL >= n.cfg.MaxTHL {
		n.Stats.DropsTHL++
		return
	}
	env := n.newEnvelope()
	buf := env.Data
	*env = *d
	env.Data = append(buf[:0], d.Data...)
	env.THL++
	if n.enqueue(env) {
		n.pump()
	} else {
		n.releaseEnvelope(env)
	}
}

func (n *Node) enqueue(d *packet.CTPData) bool {
	if len(n.queue) >= n.cfg.QueueSize {
		n.Stats.DropsQueue++
		return false
	}
	n.queue = append(n.queue, d)
	return true
}

// pump starts transmission of the queue head when the node has a route and
// the MAC is free. It is invoked on every event that could unblock
// forwarding: enqueue, route acquisition, MAC completion.
func (n *Node) pump() {
	if n.sending || len(n.queue) == 0 || !n.hasRoute() || n.m.Busy() {
		return
	}
	d := n.queue[0]
	d.ETX = n.costFixed() // stamp our current cost for loop detection
	var err error
	n.encBuf, err = d.AppendTo(n.encBuf[:0])
	if err != nil {
		// Oversized application payload: drop rather than wedge the queue.
		n.queue = n.queue[1:]
		n.releaseEnvelope(d)
		n.Stats.DropsQueue++
		n.pump()
		return
	}
	n.txParent = n.parent
	n.txFrame = packet.Frame{
		Type:       packet.TypeData,
		AckRequest: true,
		Src:        n.self,
		Dst:        n.txParent,
		Payload:    n.encBuf,
	}
	n.sending = true
	if n.m.Send(&n.txFrame, n.dataDone) != nil {
		n.sending = false
		n.scheduleRetry()
	}
}

// scheduleRetry paces the next pump attempt through the pooled scheduling
// family: overlapping retry timers must stay distinct events (coalescing
// them into one reusable timer would change dispatch counts), but none of
// them needs a handle, so none of them needs an allocation.
func (n *Node) scheduleRetry() {
	delay := n.rng.UniformTime(n.cfg.RetryDelayMin, n.cfg.RetryDelayMax)
	n.clock.Schedule(n.clock.Now()+delay, n.pumpFn)
}

// onDataTxDone feeds the ack bit to the estimator and applies the
// retransmit/drop policy. All queue mutations happen before updateRoute:
// a parent switch inside updateRoute re-enters pump, which must observe a
// consistent queue (this ordering fixed a double-pop).
func (n *Node) onDataTxDone(dst packet.Addr, res mac.TxResult) {
	n.sending = false
	if res.Sent {
		// The ack bit: one sample per transmission (§3.1).
		n.est.TxResult(dst, res.Acked)
	}
	retry := false
	switch {
	case res.Acked:
		n.releaseEnvelope(n.queue[0])
		n.queue = n.queue[1:]
		n.attempts = 0
		n.Stats.Forwarded++
	default:
		n.attempts++
		if n.attempts >= n.cfg.MaxRetries {
			n.releaseEnvelope(n.queue[0])
			n.queue = n.queue[1:]
			n.attempts = 0
			n.Stats.DropsRetry++
		} else {
			retry = true
		}
	}
	// The sample may have moved the estimate enough to switch parent (the
	// switch pumps immediately through the new route).
	n.updateRoute()
	if retry {
		n.scheduleRetry()
	} else {
		n.pump()
	}
}

// dupCache is a fixed-size FIFO set of recently seen (origin, seq, thl)
// triples. Including THL lets link-layer duplicates (same THL) be dropped
// while looping packets (THL advanced) survive to trigger loop detection.
type dupCache struct {
	cap  int
	keys []dupKey
	set  map[dupKey]struct{}
	next int
}

type dupKey struct {
	origin packet.Addr
	seq    uint8
	thl    uint8
}

func newDupCache(capacity int) *dupCache {
	return &dupCache{cap: capacity, set: make(map[dupKey]struct{}, capacity)}
}

func (c *dupCache) seen(origin packet.Addr, seq, thl uint8) bool {
	_, ok := c.set[dupKey{origin, seq, thl}]
	return ok
}

func (c *dupCache) add(origin packet.Addr, seq, thl uint8) {
	k := dupKey{origin, seq, thl}
	if _, ok := c.set[k]; ok {
		return
	}
	if len(c.keys) < c.cap {
		c.keys = append(c.keys, k)
	} else {
		delete(c.set, c.keys[c.next])
		c.keys[c.next] = k
		c.next = (c.next + 1) % c.cap
	}
	c.set[k] = struct{}{}
}
