package phy

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"fourbit/internal/sim"
)

// This file implements the region-sharded dispatch path of the Medium: the
// node set is partitioned into spatially contiguous shards, each shard runs
// its own event wheel, and every transmission's receiver-side effects are
// handed off across the epoch barrier and applied exactly one epoch later —
// on every shard, including the sender's own. Shifting *all* receiver-side
// effects by the same constant E (frame appears at start+E, reception
// resolves at end+E) is what makes the result invariant to the shard
// count: no effect ever depends on which side of a boundary a receiver
// sits, because every receiver is treated as remote.
//
// Correct cross-shard ordering needs no dedicated machinery beyond the
// wheel's own FIFO-at-deadline contract. At each barrier the coordinator
// merges the per-shard outboxes into one canonical order — (start time,
// source node id), unique because a radio transmits one frame at a time —
// and pushes the apply/resolve timers in that order. Two facts then pin
// every same-deadline tie: (1) within a batch, a resolve (end+E) that
// collides with an apply (start+E) belongs to a strictly earlier record
// (end = start + airtime > start), so it is pushed first; (2) across
// batches, an apply from batch b lands before b+E, while any timer pushed
// at a later barrier b' >= b+E has a deadline >= b', so cross-batch
// collisions cannot occur. Handoff timers are scheduled "silent"
// (sim.ScheduleArgSilent): their count varies with the shard count, and
// the run fingerprint's event total must not.

// PartitionByRegion splits the node set into shards of (near-)equal size
// along the spatial grid the audible-set index uses: nodes are ordered by
// their grid bucket (side = Params.CutoffRadiusM(), row-major over the
// bounding box, floors ignored) with node id as the tiebreak, and the
// order is cut into contiguous chunks. Neighbor sets are radius-bounded,
// so consecutive buckets keep most links intra-shard. The partition only
// affects which goroutine dispatches a node's events — never the results,
// which are invariant to the shard count by construction.
func PartitionByRegion(geo Geometry, p Params, shards int) []int32 {
	n := geo.N()
	if shards < 1 {
		panic(fmt.Sprintf("phy: PartitionByRegion shards %d < 1", shards))
	}
	side := p.CutoffRadiusM()
	minX, minY := math.Inf(1), math.Inf(1)
	maxX := math.Inf(-1)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		x, y, _ := geo.Coord(i)
		xs[i], ys[i] = x, y
		minX, minY = math.Min(minX, x), math.Min(minY, y)
		maxX = math.Max(maxX, x)
	}
	cols := int((maxX-minX)/side) + 1
	order := make([]int, n)
	key := make([]int64, n)
	for i := 0; i < n; i++ {
		bx := int64((xs[i] - minX) / side)
		by := int64((ys[i] - minY) / side)
		key[i] = by*int64(cols) + bx
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if key[ia] != key[ib] {
			return key[ia] < key[ib]
		}
		return ia < ib
	})
	out := make([]int32, n)
	for pos, id := range order {
		out[id] = int32(pos * shards / n)
	}
	return out
}

// shardRec is the cross-shard image of one transmission: everything a
// receiving shard needs to mirror the serial startTx/finishTx sweeps one
// epoch later. data is a copy — the MAC reuses its encode buffer the
// moment the airtime elapses on the sender's wheel, which is an epoch
// before the last receiver resolves. powMW is indexed by the sender's
// candidate position (like transmission.powMW); shards write disjoint
// subranges of it. refs counts the target shards that have not yet
// resolved; the last one retires the record to its own shard's list, and
// the coordinator sweeps those back into the global pool at each barrier.
type shardRec struct {
	from    int32
	refs    int32 // atomic
	start   sim.Time
	end     sim.Time
	txPowMW float64
	data    []byte
	powMW   []float64
}

// shardHand is the argument of one shard's apply/resolve timer pair for
// one record. Pooled per target shard: popped by the coordinator at the
// barrier (every shard idle), pushed back by the owner after its resolve.
type shardHand struct {
	rec   *shardRec
	shard int32
}

// mediumShard is the per-shard mutable state of the sharded medium. Only
// the owning shard's goroutine touches it mid-epoch; the coordinator
// touches it only at barriers.
type mediumShard struct {
	clock    *sim.Simulator
	outbox   []*shardRec // records started by this shard's senders this epoch
	recFree  []*shardRec
	recWant  int // barrier refill level: high-water of per-epoch consumption
	handFree []*shardHand
	retired  []*shardRec // fully-resolved records awaiting the barrier sweep
	prrT     []*PRRTable // per-shard PRR-table cache (lazy growth is single-writer)
	stats    MediumStats // this shard's share; summed into Medium.Stats at barriers
	pad      [5]uint64   // keep neighbouring shards' hot counters off one cache line
}

// shardedMedium bundles everything the sharded path adds to a Medium.
type shardedMedium struct {
	clocks  []*sim.Simulator
	shardOf []int32
	epoch   sim.Time
	shards  []mediumShard
	rxRng   []*sim.Rand // per receiver: jitter + PRR draw + LQI synthesis
	candOff [][]int32   // per sender: shard -> [candOff[s], candOff[s+1]) in candidates
	recPool []*shardRec
	cursors []int // merge scratch

	applyFn      func(any)
	resolveFn    func(any)
	senderDoneFn func(any)
}

// shardRecTarget is the initial per-shard free-list refill level. The
// actual level tracks the high-water mark of records a shard consumed in
// one epoch (its outbox length at the barrier): synchronized workloads can
// start tens of same-instant transmissions on one shard inside a single
// epoch, and a fixed level would leave getRec allocating on every such
// burst while the global pool sits full.
const shardRecTarget = 16

// EnableSharded switches the medium to region-sharded dispatch. clocks[s]
// is shard s's wheel, shardOf maps node to shard, and epoch is the
// conservative lookahead E: every receiver-side effect of a transmission
// applies exactly E after the serial model would apply it, so epoch must
// be small enough that every protocol deadline still clears (the MAC ack
// round-trip is the binding constraint; internal/node derives E from it).
// Must be called before the simulation starts.
func (m *Medium) EnableSharded(clocks []*sim.Simulator, shardOf []int32, epoch sim.Time, seeds *sim.SeedSpace) {
	if m.sh != nil {
		panic("phy: EnableSharded called twice")
	}
	n := len(m.radios)
	if len(shardOf) != n {
		panic(fmt.Sprintf("phy: EnableSharded shardOf length %d, want %d", len(shardOf), n))
	}
	if epoch <= 0 {
		panic(fmt.Sprintf("phy: EnableSharded epoch %v must be positive", epoch))
	}
	S := len(clocks)
	for _, s := range shardOf {
		if int(s) < 0 || int(s) >= S {
			panic(fmt.Sprintf("phy: shard index %d out of range [0,%d)", s, S))
		}
	}
	m.ch.EnableSharded(seeds, shardOf, S)
	sh := &shardedMedium{
		clocks:  clocks,
		shardOf: shardOf,
		epoch:   epoch,
		shards:  make([]mediumShard, S),
		rxRng:   make([]*sim.Rand, n),
		candOff: make([][]int32, n),
		cursors: make([]int, S),
	}
	for s := range sh.shards {
		sh.shards[s].clock = clocks[s]
		sh.shards[s].recWant = shardRecTarget
	}
	for i := 0; i < n; i++ {
		sh.rxRng[i] = seeds.Light(fmt.Sprintf("shard/medium/%d", i))
	}
	// Regroup every candidate list by target shard (ascending node id
	// within a shard — a stable bucket sort of an ascending list), so each
	// target shard's apply/resolve sweeps walk one contiguous subrange and
	// visit receivers in a canonical order.
	counts := make([]int32, S+1)
	pos := make([]int32, S)
	for i := 0; i < n; i++ {
		cands := m.candidates[i]
		off := make([]int32, S+1)
		for k := range counts {
			counts[k] = 0
		}
		for _, j := range cands {
			counts[shardOf[j]+1]++
		}
		for s := 0; s < S; s++ {
			off[s+1] = off[s] + counts[s+1]
			pos[s] = off[s]
		}
		newCands := make([]int32, len(cands))
		slots := m.candSlots[i]
		newSlots := make([]int32, len(slots))
		for k, j := range cands {
			s := shardOf[j]
			newCands[pos[s]] = j
			newSlots[pos[s]] = slots[k]
			pos[s]++
		}
		m.candidates[i] = newCands
		m.candSlots[i] = newSlots
		sh.candOff[i] = off
	}
	sh.applyFn = func(a any) { m.applyHand(a.(*shardHand)) }
	sh.resolveFn = func(a any) { m.resolveHand(a.(*shardHand)) }
	sh.senderDoneFn = func(a any) { a.(*Radio).transmitting = false }
	m.sh = sh
}

// Sharded reports whether the medium dispatches through shards.
func (m *Medium) Sharded() bool { return m.sh != nil }

func (st *mediumShard) getRec(powCap int) *shardRec {
	if n := len(st.recFree); n > 0 {
		r := st.recFree[n-1]
		st.recFree = st.recFree[:n-1]
		return r
	}
	return &shardRec{powMW: make([]float64, powCap)}
}

func (st *mediumShard) getHand() *shardHand {
	if n := len(st.handFree); n > 0 {
		h := st.handFree[n-1]
		st.handFree = st.handFree[:n-1]
		return h
	}
	return &shardHand{}
}

// startTxSharded mirrors the sender half of startTx on the sender's own
// wheel: occupy the radio, copy the frame, queue the record for the next
// barrier. All receiver-side effects happen one epoch later in applyHand/
// resolveHand. The sender-completion event stays counted and is scheduled
// before the caller's own completion at the same deadline, preserving the
// serial FIFO contract the MAC relies on.
func (m *Medium) startTxSharded(r *Radio, data []byte) sim.Time {
	if r.transmitting {
		panic(fmt.Sprintf("phy: radio %d Transmit while transmitting", r.id))
	}
	sh := m.sh
	s := sh.shardOf[r.id]
	st := &sh.shards[s]
	clock := st.clock
	now := clock.Now()
	if r.rx != nil {
		r.rx = nil
		st.stats.DroppedTxWhileRx++
	}
	air := m.Airtime(len(data))
	r.transmitting = true
	if r.down {
		// Powered off: occupy the radio for the airtime, radiate nothing.
		clock.ScheduleArg(now+air, sh.senderDoneFn, r)
		return air
	}
	st.stats.Transmissions++
	rec := st.getRec(m.powCap)
	rec.from = int32(r.id)
	rec.start = now
	rec.end = now + air
	rec.txPowMW = r.txPowMW
	rec.data = append(rec.data[:0], data...)
	st.outbox = append(st.outbox, rec)
	clock.ScheduleArg(rec.end, sh.senderDoneFn, r)
	return air
}

// applyHand runs on the target shard at rec.start+epoch: the frame
// "appears" to this shard's receivers, mirroring the receiver sweep of the
// serial startTx over this shard's candidate subrange. Fading is sampled
// at the original emission instant, so the gain is the one the serial
// model would have used.
func (m *Medium) applyHand(h *shardHand) {
	sh := m.sh
	rec := h.rec
	s := int(h.shard)
	from := int(rec.from)
	cands := m.candidates[from]
	off := sh.candOff[from]
	slots := m.candSlots[from]
	st := &sh.shards[s]
	for ci := off[s]; ci < off[s+1]; ci++ {
		j := int(cands[ci])
		pmw := rec.txPowMW * m.ch.gainLinSlot(from, j, slots[ci], rec.start)
		if pmw < m.detectMW {
			continue
		}
		rec.powMW[ci] = pmw
		m.interfMW[j] += pmw
		rj := m.radios[j]
		switch {
		case rj.down:
			// Accounted as interference for symmetry with resolveHand.
		case rj.transmitting:
			// Inaudible to j, still interference for others via rec.powMW.
		case rj.rx != nil:
			if pmw > rj.rx.powerMW*m.captureLin && pmw >= m.sensMW {
				st.stats.CaptureSwitches++
				rj.lockOnRec(rec, pmw, m.interfMW[j]-pmw)
			} else {
				rj.rx.curInterfMW += pmw
				if rj.rx.curInterfMW > rj.rx.maxInterfMW {
					rj.rx.maxInterfMW = rj.rx.curInterfMW
				}
			}
		default: // idle
			if pmw >= m.sensMW {
				rj.lockOnRec(rec, pmw, m.interfMW[j]-pmw)
			}
		}
	}
}

// resolveHand runs on the target shard at rec.end+epoch: the airtime is
// over, mirroring the receiver sweep of the serial finishTx. Reception
// draws use the receiver's private stream, so outcomes cannot depend on
// how draws from different shards would have interleaved on a shared one.
// The last target shard to resolve retires the record.
func (m *Medium) resolveHand(h *shardHand) {
	sh := m.sh
	rec := h.rec
	s := int(h.shard)
	from := int(rec.from)
	cands := m.candidates[from]
	off := sh.candOff[from]
	st := &sh.shards[s]
	now := st.clock.Now()
	for ci := off[s]; ci < off[s+1]; ci++ {
		pmw := rec.powMW[ci]
		if pmw == 0 {
			continue
		}
		rec.powMW[ci] = 0
		j := int(cands[ci])
		m.interfMW[j] -= pmw
		if m.interfMW[j] < 0 {
			m.interfMW[j] = 0 // rounding drift from the incremental sum
		}
		rj := m.radios[j]
		rx := rj.rx
		if rx == nil {
			continue
		}
		if rx.rec != rec {
			// This record was interference for j's ongoing reception.
			rx.curInterfMW -= pmw
			if rx.curInterfMW < 0 {
				rx.curInterfMW = 0
			}
			continue
		}
		rj.rx = nil
		noise := m.ch.NoiseMW(j, now)
		sinrLin := rx.powerMW / (noise + m.rp.InterferenceFactor*rx.maxInterfMW)
		sinrDB := LinearToDB(sinrLin)
		rng := sh.rxRng[j]
		if jitter := m.ch.PacketJitterSigmaDB(); jitter > 0 {
			sinrDB += rng.Normal(0, jitter)
		}
		if m.prrDecideWith(sinrDB, len(rec.data), rng, &st.prrT) {
			lqi, white := m.lqip.Synthesize(sinrDB, rng)
			info := RxInfo{At: now, SNRdB: sinrDB, LQI: lqi, White: white}
			st.stats.Delivered++
			if rj.recv != nil {
				rj.recv(rec.data, info)
			}
		} else if rx.maxInterfMW > noise*0.1 {
			st.stats.DroppedCollision++
		} else {
			st.stats.DroppedBER++
		}
	}
	st.handFree = append(st.handFree, h)
	if atomic.AddInt32(&rec.refs, -1) == 0 {
		st.retired = append(st.retired, rec)
	}
}

// ShardExchange is the epoch-barrier hook (sim.ShardGroup's exchange): it
// runs on the coordinator with every shard idle at exactly the barrier
// time. It merges the per-shard outboxes into the canonical (start, source
// id) order and pushes each record's apply/resolve timers onto every
// target shard's wheel in that order — which, with the wheel's
// FIFO-at-deadline contract, fixes every same-deadline tie identically
// for any shard count. It then recycles retired records and refreshes the
// aggregate stats.
func (m *Medium) ShardExchange(barrier sim.Time) {
	sh := m.sh
	S := len(sh.shards)
	total := 0
	for s := 0; s < S; s++ {
		ob := sh.shards[s].outbox
		total += len(ob)
		if len(ob) > sh.shards[s].recWant {
			sh.shards[s].recWant = len(ob)
		}
		// A shard's outbox is start-ordered by construction (wheel time is
		// monotone); same-instant sends by different nodes of one shard
		// land in wheel-dispatch order, so restore the canonical id order
		// within those runs (insertion sort: runs are almost always 1).
		for i := 1; i < len(ob); i++ {
			for k := i; k > 0 && ob[k].start == ob[k-1].start && ob[k].from < ob[k-1].from; k-- {
				ob[k], ob[k-1] = ob[k-1], ob[k]
			}
		}
	}
	if total > 0 {
		cur := sh.cursors
		for s := range cur {
			cur[s] = 0
		}
		for {
			best := -1
			var bestRec *shardRec
			for s := 0; s < S; s++ {
				ob := sh.shards[s].outbox
				if cur[s] >= len(ob) {
					continue
				}
				r := ob[cur[s]]
				if best < 0 || r.start < bestRec.start || (r.start == bestRec.start && r.from < bestRec.from) {
					best, bestRec = s, r
				}
			}
			if best < 0 {
				break
			}
			cur[best]++
			rec := bestRec
			off := sh.candOff[rec.from]
			targets := int32(0)
			for t := 0; t < S; t++ {
				if off[t+1] > off[t] {
					targets++
				}
			}
			if targets == 0 {
				// No receiver anywhere: recycle immediately (powMW untouched).
				sh.recPool = append(sh.recPool, rec)
				continue
			}
			rec.refs = targets
			for t := 0; t < S; t++ {
				if off[t+1] == off[t] {
					continue
				}
				st := &sh.shards[t]
				h := st.getHand()
				h.rec, h.shard = rec, int32(t)
				st.clock.ScheduleArgSilent(rec.start+sh.epoch, sh.applyFn, h)
				st.clock.ScheduleArgSilent(rec.end+sh.epoch, sh.resolveFn, h)
			}
		}
		for s := 0; s < S; s++ {
			sh.shards[s].outbox = sh.shards[s].outbox[:0]
		}
	}
	// Recycle fully-resolved records and top the per-shard free lists up,
	// so mid-epoch allocation stays a cold path.
	for s := 0; s < S; s++ {
		st := &sh.shards[s]
		if len(st.retired) > 0 {
			sh.recPool = append(sh.recPool, st.retired...)
			st.retired = st.retired[:0]
		}
	}
	for s := 0; s < S; s++ {
		st := &sh.shards[s]
		for len(st.recFree) < st.recWant && len(sh.recPool) > 0 {
			n := len(sh.recPool) - 1
			st.recFree = append(st.recFree, sh.recPool[n])
			sh.recPool = sh.recPool[:n]
		}
	}
	m.Stats = MediumStats{}
	for s := 0; s < S; s++ {
		st := &sh.shards[s].stats
		m.Stats.Transmissions += st.Transmissions
		m.Stats.Delivered += st.Delivered
		m.Stats.DroppedBER += st.DroppedBER
		m.Stats.DroppedCollision += st.DroppedCollision
		m.Stats.CaptureSwitches += st.CaptureSwitches
		m.Stats.DroppedTxWhileRx += st.DroppedTxWhileRx
	}
}
