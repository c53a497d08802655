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
// its own event wheel, and every frame's receiver-side effects are
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

// shardHand is the argument of one shard's apply/resolve timer pair for
// one frame. Pooled per target shard: popped by the coordinator at the
// barrier (every shard idle), pushed back by the owner after its resolve.
type shardHand struct {
	f     *frame
	shard int32
}

// mediumShard is the per-shard mutable state of the sharded medium. Only
// the owning shard's goroutine touches it mid-epoch; the coordinator
// touches it only at barriers.
type mediumShard struct {
	clock    *sim.Simulator
	outbox   []*frame // frames started by this shard's senders this epoch
	free     []*frame
	freeWant int // barrier refill level: high-water of per-epoch consumption
	handFree []*shardHand
	retired  []*frame    // fully-resolved frames awaiting the barrier sweep
	prrT     []*PRRTable // per-shard PRR-table cache (lazy growth is single-writer)
	stats    MediumStats // this shard's share; summed into Medium.Stats at barriers
	pad      [4]uint64   // keep neighbouring shards' hot counters off one cache line
}

// shardedMedium bundles everything the sharded path adds to a Medium.
type shardedMedium struct {
	shardOf []int32
	epoch   sim.Time
	shards  []mediumShard
	candOff [][]int32 // per sender: shard -> [candOff[s], candOff[s+1]) in candidates
	pool    []*frame  // frames between shards: retired, refilled into free lists at barriers
	cursors []int     // merge scratch

	applyFn   func(any)
	resolveFn func(any)
}

// shardFreeTarget is the initial per-shard free-list refill level. The
// actual level tracks the high-water mark of frames a shard started in
// one epoch (its outbox length at the barrier): synchronized workloads can
// start tens of same-instant frames on one shard inside a single epoch,
// and a fixed level would leave startTx allocating on every such burst
// while the global pool sits full.
const shardFreeTarget = 16

// EnableSharded switches the medium to region-sharded dispatch. clocks[s]
// is shard s's wheel, shardOf maps node to shard, and epoch is the
// conservative lookahead E: every receiver-side effect of a frame
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
		shardOf: shardOf,
		epoch:   epoch,
		shards:  make([]mediumShard, S),
		candOff: make([][]int32, n),
		cursors: make([]int, S),
	}
	for s := range sh.shards {
		sh.shards[s].clock = clocks[s]
		sh.shards[s].freeWant = shardFreeTarget
	}
	for i := 0; i < n; i++ {
		m.rxRng[i] = seeds.Light(fmt.Sprintf("shard/medium/%d", i))
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
	m.sh = sh
}

// Sharded reports whether the medium dispatches through shards.
func (m *Medium) Sharded() bool { return m.sh != nil }

func (st *mediumShard) getHand() *shardHand {
	if n := len(st.handFree); n > 0 {
		h := st.handFree[n-1]
		st.handFree = st.handFree[:n-1]
		return h
	}
	return &shardHand{}
}

// applyHand runs on the target shard at f.start+epoch: the frame
// appears to this shard's receivers, its subrange of the sender's
// candidates. Fading is sampled at the original emission instant, so the
// gain is the one the serial model would have used.
func (m *Medium) applyHand(h *shardHand) {
	off := m.sh.candOff[h.f.from]
	m.arrive(h.f, int(off[h.shard]), int(off[h.shard+1]), &m.sh.shards[h.shard].stats)
}

// resolveHand runs on the target shard at f.end+epoch: the airtime is
// over for this shard's receivers. Their draws come from per-receiver
// streams, so outcomes cannot depend on how draws from different shards
// would have interleaved on a shared one. The last target shard to
// resolve retires the frame.
func (m *Medium) resolveHand(h *shardHand) {
	f := h.f
	off := m.sh.candOff[f.from]
	st := &m.sh.shards[h.shard]
	m.resolve(f, int(off[h.shard]), int(off[h.shard+1]), st.clock.Now(), &st.stats, &st.prrT)
	st.handFree = append(st.handFree, h)
	if atomic.AddInt32(&f.refs, -1) == 0 {
		st.retired = append(st.retired, f)
	}
}

// ShardExchange is the epoch-barrier hook (sim.ShardGroup's exchange): it
// runs on the coordinator with every shard idle at exactly the barrier
// time. It merges the per-shard outboxes into the canonical (start, source
// id) order and pushes each frame's apply/resolve timers onto every
// target shard's wheel in that order — which, with the wheel's
// FIFO-at-deadline contract, fixes every same-deadline tie identically
// for any shard count. It then recycles retired frames and refreshes the
// aggregate stats.
func (m *Medium) ShardExchange(barrier sim.Time) {
	sh := m.sh
	S := len(sh.shards)
	total := 0
	for s := 0; s < S; s++ {
		ob := sh.shards[s].outbox
		total += len(ob)
		if len(ob) > sh.shards[s].freeWant {
			sh.shards[s].freeWant = len(ob)
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
			var bestF *frame
			for s := 0; s < S; s++ {
				ob := sh.shards[s].outbox
				if cur[s] >= len(ob) {
					continue
				}
				r := ob[cur[s]]
				if best < 0 || r.start < bestF.start || (r.start == bestF.start && r.from < bestF.from) {
					best, bestF = s, r
				}
			}
			if best < 0 {
				break
			}
			cur[best]++
			f := bestF
			off := sh.candOff[f.from]
			targets := int32(0)
			for t := 0; t < S; t++ {
				if off[t+1] > off[t] {
					targets++
				}
			}
			if targets == 0 {
				// No receiver anywhere: recycle immediately (powMW untouched).
				sh.pool = append(sh.pool, f)
				continue
			}
			f.refs = targets
			for t := 0; t < S; t++ {
				if off[t+1] == off[t] {
					continue
				}
				st := &sh.shards[t]
				h := st.getHand()
				h.f, h.shard = f, int32(t)
				st.clock.ScheduleArgSilent(f.start+sh.epoch, sh.applyFn, h)
				st.clock.ScheduleArgSilent(f.end+sh.epoch, sh.resolveFn, h)
			}
		}
		for s := 0; s < S; s++ {
			sh.shards[s].outbox = sh.shards[s].outbox[:0]
		}
	}
	// Recycle fully-resolved frames and top the per-shard free lists up,
	// so mid-epoch allocation stays a cold path.
	for s := 0; s < S; s++ {
		st := &sh.shards[s]
		if len(st.retired) > 0 {
			sh.pool = append(sh.pool, st.retired...)
			st.retired = st.retired[:0]
		}
	}
	for s := 0; s < S; s++ {
		st := &sh.shards[s]
		for len(st.free) < st.freeWant && len(sh.pool) > 0 {
			n := len(sh.pool) - 1
			st.free = append(st.free, sh.pool[n])
			sh.pool = sh.pool[:n]
		}
	}
	m.Stats = MediumStats{}
	for s := 0; s < S; s++ {
		m.Stats.add(&sh.shards[s].stats)
	}
}
