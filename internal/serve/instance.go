package serve

import (
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

	queue  []wire.Event // ring buffer: [head, head+count) mod len
	head   int
	count  int
	policy OverflowPolicy

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
		queue:  make([]wire.Event, queueDepth),
		policy: policy,
		done:   make(chan struct{}),
	}
	in.cond = sync.NewCond(&in.mu)
	go in.worker()
	return in, nil
}

// enqueue admits one event under the overflow policy. The Links slice is
// deep-copied into the queue slot: the decoder's scratch is reused per line,
// but queued events outlive the line.
func (in *instance) enqueue(ev *wire.Event) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return ErrClosed
	}
	if in.quarantined {
		in.stats.Quarantined++
		return ErrQuarantined
	}
	if in.count == len(in.queue) {
		if in.policy == Backpressure {
			in.stats.Backpressured++
			return ErrQueueFull
		}
		// DropOldest: evict the head slot and admit into it.
		in.head = (in.head + 1) % len(in.queue)
		in.count--
		in.stats.DroppedOldest++
		// The dropped event still counts as consumed for the barrier:
		// Applied tracks "left the queue", whether applied or evicted.
		in.stats.Applied++
	}
	slot := &in.queue[(in.head+in.count)%len(in.queue)]
	links := slot.Links // the slot's own buffer, not the decoder's scratch
	*slot = *ev
	slot.Links = append(links[:0], ev.Links...)
	in.count++
	in.stats.Enqueued++
	in.cond.Broadcast()
	return nil
}

// enqueueBatch admits a run of events under one lock acquisition and one
// worker wakeup — the binary ingest path's admission, where the ring and
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
		if in.closed {
			err = ErrClosed
			break
		}
		if in.quarantined {
			in.stats.Quarantined++
			err = ErrQuarantined
			break
		}
		if in.count == len(in.queue) {
			if in.policy == Backpressure {
				in.stats.Backpressured++
				err = ErrQueueFull
				break
			}
			in.head = (in.head + 1) % len(in.queue)
			in.count--
			in.stats.DroppedOldest++
			in.stats.Applied++
		}
		slot := &in.queue[(in.head+in.count)%len(in.queue)]
		links := slot.Links
		*slot = evs[i]
		slot.Links = append(links[:0], evs[i].Links...)
		in.count++
		in.stats.Enqueued++
		accepted++
	}
	if accepted > 0 {
		in.cond.Broadcast()
	}
	return accepted, err
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
		ev := &in.queue[in.head]
		if in.quarantined {
			in.stats.Quarantined++
		} else {
			in.applyLocked(ev)
		}
		in.head = (in.head + 1) % len(in.queue)
		in.count--
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
// queue (read-your-writes for queries), the instance quarantines, or abort
// is closed (request deadline). It reports whether the barrier was reached.
func (in *instance) barrier(abort <-chan struct{}) bool {
	in.mu.Lock()
	target := in.stats.Enqueued
	for in.stats.Applied < target && !in.quarantined && !in.closed {
		if aborted(abort) {
			in.mu.Unlock()
			return false
		}
		in.waitInterruptible(abort)
	}
	done := in.stats.Applied >= target || in.quarantined
	in.mu.Unlock()
	return done
}

// waitInterruptible waits on cond but also wakes when abort closes, by
// broadcasting from a watcher goroutine. mu must be held.
func (in *instance) waitInterruptible(abort <-chan struct{}) {
	if abort == nil {
		in.cond.Wait()
		return
	}
	stop := make(chan struct{})
	go func() {
		select {
		case <-abort:
			in.cond.Broadcast()
		case <-stop:
		}
	}()
	in.cond.Wait()
	close(stop)
}

func aborted(abort <-chan struct{}) bool {
	if abort == nil {
		return false
	}
	select {
	case <-abort:
		return true
	default:
		return false
	}
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
// (bounded by abort) so the snapshot reflects every accepted event; a
// quarantined instance snapshots its frozen state for post-mortem.
func (in *instance) snapshot(abort <-chan struct{}) (*InstanceSnapshot, error) {
	if !in.barrier(abort) {
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
		queue:  make([]wire.Event, queueDepth),
		policy: policy,
		stats:  stats,
		lastAt: snap.LastAt, sawBeacon: snap.SawBeacon, lastSrc: snap.LastSrc, lastSeq: snap.LastSeq,
		done: make(chan struct{}),
	}
	in.cond = sync.NewCond(&in.mu)
	go in.worker()
	return in, nil
}
