package serve

import (
	"io"
	"sync"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// FeedRecorder is a pass-through core.LinkEstimator decorator that writes
// every feedback-hook call as one serve-wire JSONL line before delegating.
// Wrapping a simulated node's estimator with it (node.EnvConfig.WrapEstimator)
// taps that node's exact estimator event stream out of a run; replaying the
// file into a served instance of the same kind, seed, and config reproduces
// the node's table — the bridge from scenario to service. The lines are the
// canonical wire.AppendJSONLEvent grammar, so the strict decoder accepts
// every one and they convert losslessly to the binary batch format
// (feedconv).
//
// The recorder changes nothing the inner estimator sees, so the run itself
// stays bit-identical. Write errors are sticky and surfaced by Err; the
// simulation is never interrupted by a full disk.
type FeedRecorder struct {
	core.LinkEstimator
	mu     sync.Mutex
	w      io.Writer
	buf    []byte
	ev     wire.Event
	lastAt sim.Time // latest hook time; stamps tx lines, whose hook has no clock
	err    error
}

// NewFeedRecorder wraps est, emitting its event stream to w. Callers own
// w's buffering and closing; a bufio.Writer is recommended.
func NewFeedRecorder(est core.LinkEstimator, w io.Writer) *FeedRecorder {
	return &FeedRecorder{LinkEstimator: est, w: w, buf: make([]byte, 0, 256)}
}

// Err returns the first write error, if any.
func (r *FeedRecorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// emit serializes r.ev as one canonical line; write errors stick.
func (r *FeedRecorder) emit(at sim.Time) {
	if at > r.lastAt {
		r.lastAt = at
	}
	r.ev.At = at
	r.buf = wire.AppendJSONLEvent(r.buf[:0], &r.ev)
	r.buf = append(r.buf, '\n')
	if r.err == nil {
		_, r.err = r.w.Write(r.buf)
	}
}

// OnBeacon records the beacon (envelope fields and footer included) and
// delegates.
func (r *FeedRecorder) OnBeacon(src packet.Addr, le *packet.LEFrame, meta core.RxMeta, now sim.Time) ([]byte, bool) {
	r.mu.Lock()
	r.ev = wire.Event{Ev: wire.EvBeacon, Src: src, Seq: le.Seq,
		LQI: meta.LQI, White: meta.White, SNR: meta.SNRdB, Links: le.Entries}
	r.emit(now)
	r.mu.Unlock()
	return r.LinkEstimator.OnBeacon(src, le, meta, now)
}

// TxResult records the ack bit and delegates. The wire carries no time for
// tx events from this path (the hook has none); the server's monotone
// ingest clock orders them after the preceding beacon/rx event, which is
// exactly where they happened.
func (r *FeedRecorder) TxResult(dest packet.Addr, acked bool) {
	r.mu.Lock()
	r.ev = wire.Event{Ev: wire.EvTx, Src: dest, Acked: acked}
	r.emit(r.lastAt)
	r.mu.Unlock()
	r.LinkEstimator.TxResult(dest, acked)
}

// OnOverhear records the overheard frame and delegates.
func (r *FeedRecorder) OnOverhear(src packet.Addr, meta core.RxMeta, now sim.Time) {
	r.mu.Lock()
	r.ev = wire.Event{Ev: wire.EvRx, Src: src, LQI: meta.LQI, White: meta.White, SNR: meta.SNRdB}
	r.emit(now)
	r.mu.Unlock()
	r.LinkEstimator.OnOverhear(src, meta, now)
}

// Age records the aging pass and delegates.
func (r *FeedRecorder) Age(maxSilence sim.Time, now sim.Time) {
	r.mu.Lock()
	r.ev = wire.Event{Ev: wire.EvAge, Silence: maxSilence}
	r.emit(now)
	r.mu.Unlock()
	r.LinkEstimator.Age(maxSilence, now)
}
