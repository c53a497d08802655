package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// Instance lifecycle errors.
var (
	// ErrQueueFull: the bounded ingest queue is full and the overflow
	// policy is backpressure — the caller retries after a delay.
	ErrQueueFull = errors.New("serve: instance ingest queue full")
	// ErrClosed: the instance is draining or evicted; no further ingest.
	ErrClosed = errors.New("serve: instance closed")
	// ErrQuarantined: the instance's worker panicked; its state is frozen
	// until a restore replaces it.
	ErrQuarantined = errors.New("serve: instance quarantined after panic")
)

// RobustStats counts everything the robustness surface absorbs instead of
// crashing on. All fields are monotone; the chaos harness asserts faults
// land here and nowhere else.
type RobustStats struct {
	Enqueued      uint64 `json:"enqueued"`       // events accepted into the queue
	Applied       uint64 `json:"applied"`        // events applied to the estimator
	Malformed     uint64 `json:"malformed"`      // ingest lines refused by the decoder
	OutOfOrder    uint64 `json:"out_of_order"`   // events clamped forward to the stream's high-water time
	DupBeacons    uint64 `json:"dup_beacons"`    // consecutive beacons re-sent with an unchanged seq
	DroppedOldest uint64 `json:"dropped_oldest"` // events evicted by the drop-oldest overflow policy
	Backpressured uint64 `json:"backpressured"`  // enqueue attempts refused with ErrQueueFull
	Quarantined   uint64 `json:"quarantined"`    // events discarded while quarantined
	Panics        uint64 `json:"panics"`         // worker panics absorbed
}

// OverflowPolicy selects what a full ingest queue does with the next event.
type OverflowPolicy int

const (
	// Backpressure refuses the event with ErrQueueFull; the HTTP layer
	// maps it to 429 + Retry-After. No accepted event is ever lost.
	Backpressure OverflowPolicy = iota
	// DropOldest evicts the oldest queued event to admit the newest —
	// the "estimates must track now" configuration; drops are counted.
	DropOldest
)

// ParseOverflowPolicy resolves a policy name ("backpressure" or
// "drop-oldest"); the empty string is Backpressure.
func ParseOverflowPolicy(s string) (OverflowPolicy, error) {
	switch s {
	case "", "backpressure":
		return Backpressure, nil
	case "drop-oldest":
		return DropOldest, nil
	}
	return 0, fmt.Errorf("serve: unknown overflow policy %q (want backpressure or drop-oldest)", s)
}

// String names the policy as ParseOverflowPolicy spells it.
func (p OverflowPolicy) String() string {
	if p == DropOldest {
		return "drop-oldest"
	}
	return "backpressure"
}

// slabEvents is one queue slab's event capacity: a whole default binary
// frame, so one batch admission touches at most two slabs.
const slabEvents = wire.DefaultBatchEvents

// slab is one link of an instance's ingest FIFO: up to slabEvents queued
// events, taken from head, plus the arena their Links point into. Footers
// are copied into the arena on admission because the decoders reuse their
// scratch per line and per frame, while queued events outlive both.
type slab struct {
	evs   [slabEvents]wire.Event
	n     int                // events admitted into evs
	head  int                // next event to take; the slab is used up at n
	links []packet.LinkEntry // footer arena
	next  *slab
}

// slabPool recycles slabs across every instance in the process, so an
// instance holds queue memory only while it has events queued.
var slabPool = sync.Pool{New: func() any { return new(slab) }}

// instance is one hosted estimator: a bounded ingest queue drained by a
// single worker goroutine that applies events under mu, so queries see a
// consistent table. All cross-goroutine state is guarded by mu; cond
// broadcasts wake barrier waiters after every queue transition.
type instance struct {
	name string
	kind core.EstimatorKind
	seed uint64

	mu   sync.Mutex
	cond *sync.Cond // broadcast on apply/close/quarantine transitions

	est core.LinkEstimator
	le  packet.LEFrame // scratch envelope for beacon apply

	first, last *slab // ingest FIFO: take from first, admit into last; nil when empty
	count       int   // events queued across all slabs
	depth       int   // QueueDepth: the bound on count
	policy      OverflowPolicy

	stats       RobustStats
	lastAt      sim.Time    // monotone ingest clock (high-water mark)
	lastSrc     packet.Addr // previous beacon source, for the dup counter
	lastSeq     uint16
	sawBeacon   bool
	paused      bool
	closed      bool
	quarantined bool
	panicMsg    string

	lastTouch int64 // wall-clock seconds, server clock; idle-eviction input

	done chan struct{} // closed when the worker exits
}

// newInstance builds a hosted estimator of the given kind over a counted
// rng stream (so it is always snapshotable) and starts its worker.
func newInstance(name string, kind core.EstimatorKind, self packet.Addr, cfg core.Config,
	seed uint64, queueDepth int, policy OverflowPolicy) (*instance, error) {
	est, err := core.NewKind(kind, self, cfg, nil, sim.NewCountedRand(seed))
	if err != nil {
		return nil, err
	}
	if kind == "" {
		kind = core.KindFourBit
	}
	in := &instance{
		name: name, kind: kind, seed: seed,
		est:    est,
		depth:  queueDepth,
		policy: policy,
		done:   make(chan struct{}),
	}
	in.cond = sync.NewCond(&in.mu)
	go in.worker()
	return in, nil
}

// enqueue admits one event under the overflow policy.
func (in *instance) enqueue(ev *wire.Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if err := in.admitLocked(ev); err != nil {
		return err
	}
	in.cond.Broadcast()
	return nil
}

// enqueueBatch admits a run of events under one lock acquisition and one
// worker wakeup — the binary ingest path's admission, where the queue and
// barrier bookkeeping are paid once per batch instead of once per event.
// Each event is admitted with semantics identical to enqueue (same counter
// increments, same overflow policy, in order); on the first refusal the
// batch stops and the error reports why, with accepted saying how many
// events made it in — the suffix evs[accepted:] was not admitted and a
// backpressured client retries exactly that.
func (in *instance) enqueueBatch(evs []wire.Event) (accepted int, err error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := range evs {
		if err = in.admitLocked(&evs[i]); err != nil {
			break
		}
		accepted++
	}
	if accepted > 0 {
		in.cond.Broadcast()
	}
	return accepted, err
}

// admitLocked admits one event under the overflow policy, or counts and
// reports why not. A full queue under DropOldest evicts its oldest event to
// make room.
func (in *instance) admitLocked(ev *wire.Event) error {
	if in.closed {
		return ErrClosed
	}
	if in.quarantined {
		in.stats.Quarantined++
		return ErrQuarantined
	}
	if in.count == in.depth {
		if in.policy == Backpressure {
			in.stats.Backpressured++
			return ErrQueueFull
		}
		in.popLocked()
		in.stats.DroppedOldest++
		// The dropped event still counts as consumed for the barrier:
		// Applied tracks "left the queue", whether applied or evicted.
		in.stats.Applied++
	}
	in.pushLocked(ev)
	in.stats.Enqueued++
	return nil
}

// pushLocked copies ev, footer included, onto the tail of the FIFO, taking
// a slab from the pool when the tail slab is full (or there is none).
func (in *instance) pushLocked(ev *wire.Event) {
	s := in.last
	if s == nil || s.n == slabEvents {
		s = slabPool.Get().(*slab)
		if in.last == nil {
			in.first = s
		} else {
			in.last.next = s
		}
		in.last = s
	}
	// A growing arena leaves earlier events' Links on the old array, which
	// stays live, unchanged, until the slab is cleared.
	start := len(s.links)
	s.links = append(s.links, ev.Links...)
	slot := &s.evs[s.n]
	*slot = *ev
	slot.Links = s.links[start:len(s.links):len(s.links)]
	s.n++
	in.count++
}

// popLocked retires the head event, applied or discarded. A used-up head
// slab is cleared before it returns to the pool, so a pooled slab
// references no event or footer memory beyond its own arena.
func (in *instance) popLocked() {
	s := in.first
	s.head++
	in.count--
	if s.head < s.n {
		return
	}
	in.first = s.next
	if in.first == nil {
		in.last = nil
	}
	clear(s.evs[:s.n])
	s.n, s.head, s.links, s.next = 0, 0, s.links[:0], nil
	slabPool.Put(s)
}

// worker drains the queue, applying each event to the estimator. It holds
// mu except while waiting, so every apply is atomic with respect to
// queries. A panic during apply quarantines the instance: the event is
// counted, the queue is flushed, state freezes for post-mortem snapshots,
// and the process lives on.
func (in *instance) worker() {
	defer close(in.done)
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		for in.count == 0 || in.paused {
			if in.closed && in.count == 0 {
				return
			}
			if in.closed && in.paused {
				return // close flushes; a paused worker never resumes
			}
			in.cond.Wait()
		}
		ev := &in.first.evs[in.first.head]
		if in.quarantined {
			in.stats.Quarantined++
		} else {
			in.applyLocked(ev)
		}
		in.popLocked()
		in.stats.Applied++
		in.cond.Broadcast()
	}
}

// applyLocked applies one event, absorbing panics into quarantine.
func (in *instance) applyLocked(ev *wire.Event) {
	defer func() {
		if r := recover(); r != nil {
			in.quarantined = true
			in.panicMsg = fmt.Sprintf("%v", r)
			in.stats.Panics++
		}
	}()
	// Monotone ingest clock: estimators assume time does not run backward,
	// so late events are clamped forward to the high-water mark and counted.
	at := ev.At
	if at < in.lastAt {
		in.stats.OutOfOrder++
		at = in.lastAt
	} else {
		in.lastAt = at
	}
	switch ev.Ev {
	case wire.EvBeacon:
		if in.sawBeacon && ev.Src == in.lastSrc && ev.Seq == in.lastSeq {
			in.stats.DupBeacons++
		}
		in.sawBeacon, in.lastSrc, in.lastSeq = true, ev.Src, ev.Seq
		in.le.Seq, in.le.Entries, in.le.NetPayload = ev.Seq, ev.Links, nil
		in.est.OnBeacon(ev.Src, &in.le, core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}, at)
		in.le.Entries = nil
	case wire.EvTx:
		in.est.TxResult(ev.Src, ev.Acked)
	case wire.EvRx:
		in.est.OnOverhear(ev.Src, core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}, at)
	case wire.EvAge:
		in.est.Age(ev.Silence, at)
	case wire.EvPoison:
		panic("serve: poison event (fault injection)")
	}
}

// barrier blocks until every event enqueued before the call has left the
// queue (read-your-writes for queries), the instance quarantines, or ctx
// ends (request deadline). It reports whether the barrier was reached.
func (in *instance) barrier(ctx context.Context) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	target := in.stats.Enqueued
	if in.stats.Applied < target && !in.quarantined && !in.closed && ctx.Done() != nil {
		// One watcher per call: ctx's end wakes the wait below. It takes mu
		// to broadcast, so the wakeup cannot fall between the ctx check and
		// the Wait.
		stop := context.AfterFunc(ctx, func() {
			in.mu.Lock()
			in.cond.Broadcast()
			in.mu.Unlock()
		})
		defer stop()
	}
	for in.stats.Applied < target && !in.quarantined && !in.closed {
		if ctx.Err() != nil {
			return false
		}
		in.cond.Wait()
	}
	return in.stats.Applied >= target || in.quarantined
}

// pause stops the worker between events; the queue keeps admitting until
// full, which makes overflow behavior deterministic for tests and lets
// operators quiesce an instance before snapshotting a live stream.
func (in *instance) pause() {
	in.mu.Lock()
	in.paused = true
	in.mu.Unlock()
}

// resume restarts a paused worker.
func (in *instance) resume() {
	in.mu.Lock()
	in.paused = false
	in.cond.Broadcast()
	in.mu.Unlock()
}

// close stops ingest and lets the worker drain what is queued; the returned
// channel closes when the worker has exited. Idempotent.
func (in *instance) close() <-chan struct{} {
	in.mu.Lock()
	if !in.closed {
		in.closed = true
		in.cond.Broadcast()
	}
	in.mu.Unlock()
	return in.done
}

// InstanceSnapshot is the versioned serialized state of one hosted
// instance: the estimator snapshot plus the ingest-stream cursors and
// robustness counters, so a restored instance continues — and reports —
// exactly as the original would have.
type InstanceSnapshot struct {
	Version   int                     `json:"version"`
	Name      string                  `json:"name"`
	Kind      core.EstimatorKind      `json:"kind"`
	Seed      uint64                  `json:"seed"`
	LastAt    sim.Time                `json:"last_at"`
	SawBeacon bool                    `json:"saw_beacon,omitempty"`
	LastSrc   packet.Addr             `json:"last_src,omitempty"`
	LastSeq   uint16                  `json:"last_seq,omitempty"`
	Stats     RobustStats             `json:"stats"`
	Estimator *core.EstimatorSnapshot `json:"estimator"`
}

// snapshot serializes the instance. It waits for the queue to drain first
// (bounded by ctx) so the snapshot reflects every accepted event; a
// quarantined instance snapshots its frozen state for post-mortem.
func (in *instance) snapshot(ctx context.Context) (*InstanceSnapshot, error) {
	if !in.barrier(ctx) {
		return nil, errors.New("serve: snapshot aborted waiting for queue drain")
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	est, err := in.est.Snapshot()
	if err != nil {
		return nil, err
	}
	return &InstanceSnapshot{
		Version: SnapshotVersion, Name: in.name, Kind: in.kind, Seed: in.seed,
		LastAt: in.lastAt, SawBeacon: in.sawBeacon, LastSrc: in.lastSrc, LastSeq: in.lastSeq,
		Stats: in.stats, Estimator: est,
	}, nil
}

// SnapshotVersion gates the serve-level snapshot schema, alongside the
// estimator's own core.SnapshotVersion inside it.
const SnapshotVersion = 1

// restoreInstance builds a fresh instance from a snapshot. The estimator is
// rebuilt via core.RestoreKind, so restoration carries the same bit-identical
// continuation guarantee; quarantine does not survive — restore is the
// recovery path.
func restoreInstance(snap *InstanceSnapshot, queueDepth int, policy OverflowPolicy) (*instance, error) {
	if snap == nil || snap.Estimator == nil {
		return nil, fmt.Errorf("%w: empty instance snapshot", core.ErrSnapshotState)
	}
	if snap.Version != SnapshotVersion {
		return nil, fmt.Errorf("%w: instance snapshot has version %d, this build speaks %d",
			core.ErrSnapshotVersion, snap.Version, SnapshotVersion)
	}
	if snap.Kind != snap.Estimator.Kind {
		return nil, fmt.Errorf("%w: instance says %q, estimator snapshot says %q",
			core.ErrSnapshotKind, snap.Kind, snap.Estimator.Kind)
	}
	// The restored queue starts empty, so the counters must say nothing is
	// pending, or every later barrier would wait for events that never
	// arrive. A quarantined instance can be snapshotted with events still
	// queued; the snapshot does not carry them, so they count as discarded.
	stats := snap.Stats
	if stats.Applied > stats.Enqueued {
		return nil, fmt.Errorf("%w: %d events applied but only %d enqueued",
			core.ErrSnapshotState, stats.Applied, stats.Enqueued)
	}
	stats.Quarantined += stats.Enqueued - stats.Applied
	stats.Applied = stats.Enqueued
	est, err := core.RestoreKind(snap.Estimator)
	if err != nil {
		return nil, err
	}
	in := &instance{
		name: snap.Name, kind: snap.Kind, seed: snap.Seed,
		est:    est,
		depth:  queueDepth,
		policy: policy,
		stats:  stats,
		lastAt: snap.LastAt, sawBeacon: snap.SawBeacon, lastSrc: snap.LastSrc, lastSeq: snap.LastSeq,
		done: make(chan struct{}),
	}
	in.cond = sync.NewCond(&in.mu)
	go in.worker()
	return in, nil
}
