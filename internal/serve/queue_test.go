package serve

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// recorder stands in for an instance's estimator: it records every call the
// worker makes, as the event it was made from, and pauses the worker after
// budget calls (budget < 0: never). Its fields are guarded by the instance's
// mu, which the worker holds while applying.
type recorder struct {
	core.LinkEstimator // snapshots; never called on the feedback hooks
	in                 *instance
	budget             int
	got                []wire.Event
}

func (r *recorder) record(ev wire.Event) {
	r.got = append(r.got, ev)
	if r.budget > 0 {
		r.budget--
		if r.budget == 0 {
			r.in.paused = true
		}
	}
}

func (r *recorder) OnBeacon(src packet.Addr, le *packet.LEFrame, meta core.RxMeta, now sim.Time) ([]byte, bool) {
	r.record(wire.Event{Ev: wire.EvBeacon, At: now, Src: src, Seq: le.Seq, LQI: meta.LQI, White: meta.White,
		SNR: meta.SNRdB, Links: append([]packet.LinkEntry(nil), le.Entries...)})
	return nil, false
}

func (r *recorder) TxResult(dest packet.Addr, acked bool) {
	r.record(wire.Event{Ev: wire.EvTx, Src: dest, Acked: acked})
}

func (r *recorder) OnOverhear(src packet.Addr, meta core.RxMeta, now sim.Time) {
	r.record(wire.Event{Ev: wire.EvRx, At: now, Src: src, LQI: meta.LQI, White: meta.White, SNR: meta.SNRdB})
}

func (r *recorder) Age(maxSilence sim.Time, now sim.Time) {
	r.record(wire.Event{Ev: wire.EvAge, At: now, Silence: maxSilence})
}

// asApplied is the call the recorder sees for ev: TxResult carries no time.
func asApplied(ev wire.Event) wire.Event {
	if ev.Ev == wire.EvTx {
		ev.At = 0
	}
	return ev
}

// queueModel is the reference queue: a plain slice with the admission and
// worker rules written out one event at a time.
type queueModel struct {
	depth       int
	policy      OverflowPolicy
	q           []wire.Event
	stats       RobustStats
	quarantined bool
	applied     []wire.Event
}

func (m *queueModel) admit(ev *wire.Event) error {
	if m.quarantined {
		m.stats.Quarantined++
		return ErrQuarantined
	}
	if len(m.q) == m.depth {
		if m.policy == Backpressure {
			m.stats.Backpressured++
			return ErrQueueFull
		}
		m.q = m.q[1:]
		m.stats.DroppedOldest++
		m.stats.Applied++
	}
	cp := *ev
	cp.Links = append([]packet.LinkEntry(nil), ev.Links...)
	m.q = append(m.q, cp)
	m.stats.Enqueued++
	return nil
}

// drain runs the worker until budget events reach the estimator (budget < 0:
// until the queue is empty). A poison event quarantines; from then on the
// worker discards what is queued.
func (m *queueModel) drain(budget int) {
	for len(m.q) > 0 {
		ev := m.q[0]
		m.q = m.q[1:]
		m.stats.Applied++
		switch {
		case m.quarantined:
			m.stats.Quarantined++
		case ev.Ev == wire.EvPoison:
			m.quarantined = true
			m.stats.Panics++
		default:
			m.applied = append(m.applied, asApplied(ev))
			if budget--; budget == 0 {
				return
			}
		}
	}
}

// queueHarness drives one instance and its model through the same steps.
// The instance stays paused between steps, so its worker runs only inside
// drain and every step is deterministic.
type queueHarness struct {
	t   *testing.T
	r   *sim.Rand
	in  *instance
	rec *recorder
	m   queueModel

	at      sim.Time
	id      int
	scratch []packet.LinkEntry // decoder stand-in, overwritten after each admission
}

func newQueueHarness(t *testing.T, seed uint64, depth int, policy OverflowPolicy) *queueHarness {
	in, err := newInstance("q", core.KindFourBit, 0, core.DefaultConfig(), seed, depth, policy)
	if err != nil {
		t.Fatal(err)
	}
	h := &queueHarness{t: t, r: sim.NewRand(seed), m: queueModel{depth: depth, policy: policy}}
	h.install(in)
	t.Cleanup(func() { <-h.in.close() })
	if n := slabCount(in); n != 0 {
		t.Fatalf("new instance holds %d slabs", n)
	}
	return h
}

// install pauses in and swaps its estimator for a recorder.
func (h *queueHarness) install(in *instance) {
	in.mu.Lock()
	in.paused = true
	h.rec = &recorder{LinkEstimator: in.est, in: in, budget: -1}
	in.est = h.rec
	in.mu.Unlock()
	h.in = in
}

func slabCount(in *instance) int {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := 0
	for s := in.first; s != nil; s = s.next {
		n++
	}
	return n
}

// event generates the next event in a fresh footer taken from the reused
// scratch; poison events are left to the caller.
func (h *queueHarness) event() wire.Event {
	h.id++
	h.at += sim.Time(1 + h.r.Intn(1000))
	src := packet.Addr(1 + h.r.Intn(30))
	switch k := h.r.Intn(10); {
	case k < 6:
		start := len(h.scratch)
		for i, n := 0, h.r.Intn(41); i < n; i++ {
			h.scratch = append(h.scratch, packet.LinkEntry{Addr: packet.Addr(h.id + i), InQuality: uint8(h.r.Intn(256))})
		}
		return wire.Event{Ev: wire.EvBeacon, At: h.at, Src: src, Seq: uint16(h.id), LQI: uint8(h.r.Intn(256)),
			White: h.r.Bernoulli(0.5), SNR: float64(h.r.Intn(40)), Links: h.scratch[start:len(h.scratch):len(h.scratch)]}
	case k < 8:
		return wire.Event{Ev: wire.EvTx, At: h.at, Src: src, Acked: h.r.Bernoulli(0.7)}
	case k < 9:
		return wire.Event{Ev: wire.EvRx, At: h.at, Src: src, LQI: uint8(h.r.Intn(256)), White: h.r.Bernoulli(0.5)}
	default:
		return wire.Event{Ev: wire.EvAge, At: h.at, Silence: sim.Time(h.r.Intn(1 << 20))}
	}
}

// spoilScratch overwrites the generator's footer scratch, as a decoder does
// with the next line or frame, then empties it.
func (h *queueHarness) spoilScratch() {
	for i := range h.scratch {
		h.scratch[i] = packet.LinkEntry{Addr: 0xFFFF, InQuality: 0xEE}
	}
	h.scratch = h.scratch[:0]
}

func (h *queueHarness) enqueue(ev wire.Event) {
	want := h.m.admit(&ev)
	got := h.in.enqueue(&ev)
	h.spoilScratch()
	if !errors.Is(got, want) {
		h.t.Fatalf("enqueue: err %v, model %v", got, want)
	}
}

func (h *queueHarness) enqueueBatch(evs []wire.Event) {
	wantN, wantErr := 0, error(nil)
	for i := range evs {
		if wantErr = h.m.admit(&evs[i]); wantErr != nil {
			break
		}
		wantN++
	}
	n, err := h.in.enqueueBatch(evs)
	h.spoilScratch()
	if n != wantN || !errors.Is(err, wantErr) {
		h.t.Fatalf("enqueueBatch(%d): accepted %d err %v, model %d %v", len(evs), n, err, wantN, wantErr)
	}
}

// drain lets the worker run until budget events reach the estimator
// (budget < 0: until the queue is empty), then pauses it again.
func (h *queueHarness) drain(budget int) {
	h.m.drain(budget)
	in := h.in
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	in.mu.Lock()
	stop := context.AfterFunc(ctx, func() {
		in.mu.Lock()
		in.cond.Broadcast()
		in.mu.Unlock()
	})
	defer stop()
	h.rec.budget = budget
	in.paused = false
	in.cond.Broadcast()
	for in.stats.Applied < h.m.stats.Applied && ctx.Err() == nil {
		in.cond.Wait()
	}
	in.paused = true
	h.rec.budget = -1
	applied := in.stats.Applied
	in.mu.Unlock()
	if applied < h.m.stats.Applied {
		h.t.Fatalf("drain(%d): worker stalled at %d applied, model reached %d", budget, applied, h.m.stats.Applied)
	}
}

// restore snapshots the instance and replaces it with the restored copy,
// as the quarantine recovery path does.
func (h *queueHarness) restore() {
	snap, err := h.in.snapshot(context.Background())
	if err != nil {
		h.t.Fatal(err)
	}
	in, err := restoreInstance(snap, h.m.depth, h.m.policy)
	if err != nil {
		h.t.Fatal(err)
	}
	<-h.in.close()
	h.install(in)
	if n := slabCount(in); n != 0 {
		h.t.Fatalf("restored instance holds %d slabs", n)
	}
	h.m.stats.Quarantined += h.m.stats.Enqueued - h.m.stats.Applied
	h.m.stats.Applied = h.m.stats.Enqueued
	h.m.q, h.m.quarantined = nil, false
}

func sameEvent(a, b *wire.Event) bool {
	if a.Ev != b.Ev || a.At != b.At || a.Src != b.Src || a.Seq != b.Seq || a.LQI != b.LQI ||
		a.White != b.White || a.SNR != b.SNR || a.Acked != b.Acked || a.Silence != b.Silence ||
		len(a.Links) != len(b.Links) {
		return false
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			return false
		}
	}
	return true
}

// check compares the instance against the model: counters, the queued
// events in FIFO order with their footers, the events applied since the
// last check, and that the slabs held follow the events queued.
func (h *queueHarness) check(step string) {
	t, in, m := h.t, h.in, &h.m
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.stats != m.stats {
		t.Fatalf("%s: stats %+v, model %+v", step, in.stats, m.stats)
	}
	if in.quarantined != m.quarantined {
		t.Fatalf("%s: quarantined %v, model %v", step, in.quarantined, m.quarantined)
	}
	if in.count != len(m.q) {
		t.Fatalf("%s: %d queued, model %d", step, in.count, len(m.q))
	}
	i, slabs := 0, 0
	for s := in.first; s != nil; s = s.next {
		slabs++
		if s.head >= s.n {
			t.Fatalf("%s: slab %d is used up but still queued", step, slabs)
		}
		if s.next == nil && s != in.last {
			t.Fatalf("%s: FIFO ends at slab %d, not at its tail", step, slabs)
		}
		for j := s.head; j < s.n; j++ {
			if i >= len(m.q) || !sameEvent(&s.evs[j], &m.q[i]) {
				t.Fatalf("%s: queued event %d differs from the model", step, i)
			}
			i++
		}
	}
	if i != len(m.q) {
		t.Fatalf("%s: %d events in slabs, model %d", step, i, len(m.q))
	}
	if bound := (len(m.q)+slabEvents-1)/slabEvents + 1; slabs > bound {
		t.Fatalf("%s: %d slabs hold %d events (at most %d)", step, slabs, len(m.q), bound)
	}
	if len(m.q) == 0 && slabs != 0 {
		t.Fatalf("%s: empty queue holds %d slabs", step, slabs)
	}
	if len(h.rec.got) != len(m.applied) {
		t.Fatalf("%s: %d events applied, model %d", step, len(h.rec.got), len(m.applied))
	}
	for k := range m.applied {
		if !sameEvent(&h.rec.got[k], &m.applied[k]) {
			t.Fatalf("%s: applied event %d is %+v, model %+v", step, k, h.rec.got[k], m.applied[k])
		}
	}
	h.rec.got, m.applied = h.rec.got[:0], m.applied[:0]
}

// TestQueueMatchesModel drives the slab FIFO and a plain-slice model through
// the same seeded interleaving of single and batch admissions (footers of
// 0–40 links, batches that straddle slab boundaries), overflow under both
// policies, partial and full worker drains, quarantine flushes and restores,
// and compares them after every step.
func TestQueueMatchesModel(t *testing.T) {
	seed := uint64(0)
	for _, policy := range []OverflowPolicy{Backpressure, DropOldest} {
		for _, depth := range []int{1, 9, slabEvents + 3, 3*slabEvents - 5} {
			seed++
			t.Run(fmt.Sprintf("%v/depth=%d", policy, depth), func(t *testing.T) {
				runQueueModel(t, seed, depth, policy)
			})
		}
	}
}

func runQueueModel(t *testing.T, seed uint64, depth int, policy OverflowPolicy) {
	h := newQueueHarness(t, seed, depth, policy)
	var batch []wire.Event
	for step := 0; step < 250; step++ {
		var name string
		switch k := h.r.Intn(100); {
		case k < 35:
			name = "enqueue"
			h.enqueue(h.event())
		case k < 60:
			name = "enqueueBatch"
			// Sizes around one and two slabs straddle slab boundaries.
			n := 1 + h.r.Intn(2*slabEvents+8)
			batch = batch[:0]
			for i := 0; i < n; i++ {
				batch = append(batch, h.event())
			}
			h.enqueueBatch(batch)
		case k < 75:
			name = "partial drain"
			h.drain(1 + h.r.Intn(slabEvents+8))
		case k < 85:
			name = "full drain"
			h.drain(-1)
			if n := slabCount(h.in); n != 0 {
				t.Fatalf("step %d: drained instance holds %d slabs", step, n)
			}
			// Fresh or recycled, a slab from the pool holds nothing.
			s := slabPool.Get().(*slab)
			if s.n != 0 || s.head != 0 || s.next != nil || len(s.links) != 0 {
				t.Fatalf("step %d: pooled slab not reset", step)
			}
			for i := range s.evs {
				if s.evs[i].Links != nil || s.evs[i].Ev != "" {
					t.Fatalf("step %d: pooled slab still holds event %d", step, i)
				}
			}
			slabPool.Put(s)
		case k < 88:
			name = "poison"
			h.at++
			h.enqueue(wire.Event{Ev: wire.EvPoison, At: h.at})
		case k < 92 && h.m.quarantined:
			name = "restore"
			h.restore()
		default:
			name = "pause/resume"
			h.in.resume()
			h.in.pause()
			// The worker may or may not have run in between; a drain
			// settles it against the model.
			h.drain(-1)
		}
		h.check(fmt.Sprintf("step %d (%s)", step, name))
	}
}
