// Package trace records and replays per-link reception behaviour,
// implementing the trace-driven simulation mode: a Recorder subscribes to a
// run's probe bus and produces windowed PRR/LQI time series per directed
// link (the raw material of the paper's Figure 3), and a Replayer turns a
// recorded link series back into a channel modifier so experiments can be
// re-run against captured link dynamics.
package trace

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// Sample is one measurement window of a directed link.
type Sample struct {
	At      sim.Time // window end
	Sent    int      // broadcast frames the transmitter put on air
	Rcvd    int      // of those, frames this receiver decoded
	MeanLQI float64  // mean LQI over received frames (0 if none)
}

// PRR returns the window's packet reception ratio (NaN-free: 0 when the
// sender was silent).
func (s Sample) PRR() float64 {
	if s.Sent == 0 {
		return 0
	}
	return float64(s.Rcvd) / float64(s.Sent)
}

// LinkTrace is the time series of one directed link.
type LinkTrace struct {
	From, To int
	Samples  []Sample
}

// Trace is a set of recorded link series.
type Trace struct {
	Name   string
	Window sim.Time
	Links  []LinkTrace

	// index maps (from,to) to a position in Links. It is built lazily on
	// the first Link call (traces arrive both from recorders and from
	// ReadJSON, so construction cannot own it) and rebuilt if Links was
	// meanwhile appended to; indexed remembers how many entries it covers.
	index   map[linkKey]int
	indexed int
}

// Link returns the series for the directed link (from, to), or nil.
// Lookups are O(1) after the first call builds the index — replayed
// experiments resolve every directed pair of a topology, which made the
// previous linear scan O(links²) per setup.
func (t *Trace) Link(from, to int) *LinkTrace {
	if t.index == nil || t.indexed != len(t.Links) {
		t.index = make(map[linkKey]int, len(t.Links))
		for i := range t.Links {
			t.index[linkKey{t.Links[i].From, t.Links[i].To}] = i
		}
		t.indexed = len(t.Links)
	}
	if i, ok := t.index[linkKey{from, to}]; ok {
		return &t.Links[i]
	}
	return nil
}

// WriteJSON serializes the trace.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t)
}

// ReadJSON deserializes a trace.
func ReadJSON(r io.Reader) (*Trace, error) {
	var t Trace
	if err := json.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: decode: %w", err)
	}
	return &t, nil
}

// Recorder is a probe sink that accumulates windowed per-link broadcast
// reception statistics. Only broadcast (beacon) frames are counted: they
// reach every in-range receiver, so sent-counts are comparable across
// links; unicast sent-counts would only be meaningful for the addressee.
//
// A beacon counts as sent when its transmission completes and as received
// when its receivers decode it, which the bus reports at the same instant,
// so a window never holds receptions of a frame it did not see sent. Like
// probe.Collector, the recorder rolls windows lazily off event timestamps:
// it schedules nothing and cannot perturb the run.
type Recorder struct {
	probe.BaseSink
	clock  *sim.Simulator
	window sim.Time
	name   string
	end    sim.Time // end of the current window

	links map[linkKey]*linkAcc
	sent  []int // broadcast frames per transmitter in the current window
}

type linkKey struct{ from, to int }

type linkAcc struct {
	rcvd   int
	lqiSum float64
	series LinkTrace
}

// NewRecorder attaches a recorder to env's probe bus, sampling every
// window. A sharded env is refused: its shards emit on separate buses
// concurrently.
func NewRecorder(env *node.Env, window sim.Time, name string) *Recorder {
	if env.Sharded() {
		panic("trace: recorder cannot observe a sharded env")
	}
	if window <= 0 {
		panic("trace: non-positive recording window")
	}
	r := &Recorder{
		clock:  env.Clock,
		window: window,
		name:   name,
		end:    window,
		links:  make(map[linkKey]*linkAcc),
		sent:   make([]int, env.Medium.N()),
	}
	env.Probes.Attach(r)
	return r
}

// OnTx implements probe.Sink: broadcast frames on air count as sent.
func (r *Recorder) OnTx(ev probe.TxEvent) {
	r.advance(ev.At)
	if ev.Sent && ev.Broadcast() {
		r.sent[ev.Node]++
	}
}

// OnRx implements probe.Sink: broadcast receptions count toward the link.
func (r *Recorder) OnRx(ev probe.RxEvent) {
	r.advance(ev.At)
	if ev.Dest != packet.Broadcast {
		return
	}
	k := linkKey{int(ev.Src), int(ev.Node)}
	acc := r.links[k]
	if acc == nil {
		acc = &linkAcc{series: LinkTrace{From: k.from, To: k.to}}
		r.links[k] = acc
	}
	acc.rcvd++
	acc.lqiSum += float64(ev.LQI)
}

// advance closes the current window if at lies past it. Windows after it
// up to at saw no events, so they produce no samples and are skipped.
func (r *Recorder) advance(at sim.Time) {
	if at < r.end {
		return
	}
	r.roll(r.end)
	r.end = (at/r.window + 1) * r.window
}

// roll closes the current window, stamped at, into samples on every
// observed link.
func (r *Recorder) roll(at sim.Time) {
	for k, acc := range r.links {
		sent := r.sent[k.from]
		if sent == 0 && acc.rcvd == 0 {
			continue
		}
		s := Sample{At: at, Sent: sent, Rcvd: acc.rcvd}
		if acc.rcvd > 0 {
			s.MeanLQI = acc.lqiSum / float64(acc.rcvd)
		}
		acc.series.Samples = append(acc.series.Samples, s)
		acc.rcvd = 0
		acc.lqiSum = 0
	}
	clear(r.sent)
}

// Finalize closes the pending window (stamped at the current time) and
// returns the assembled trace, links sorted by (From, To).
func (r *Recorder) Finalize() *Trace {
	now := r.clock.Now()
	r.advance(now)
	r.roll(now)
	t := &Trace{Name: r.name, Window: r.window}
	for _, acc := range r.links {
		if len(acc.series.Samples) > 0 {
			t.Links = append(t.Links, acc.series)
		}
	}
	sort.Slice(t.Links, func(i, j int) bool {
		a, b := t.Links[i], t.Links[j]
		return a.From < b.From || a.From == b.From && a.To < b.To
	})
	return t
}

// ErrEmptyTrace reports a replay request over an empty series.
var ErrEmptyTrace = errors.New("trace: empty link trace")

// Replayer drives a directed link from a recorded PRR series: at each
// packet it looks up the window covering the current time and draws the
// packet's fate from the recorded reception ratio, imposing either no loss
// or a killing attenuation. It implements phy.LinkModifier.
type Replayer struct {
	lt     *LinkTrace
	window sim.Time
	rng    *sim.Rand
	// KillLossDB is the attenuation applied to packets the trace says are
	// lost; large enough that reception is impossible.
	KillLossDB float64
}

// NewReplayer builds a modifier replaying lt (recorded with the given
// window length).
func NewReplayer(lt *LinkTrace, window sim.Time, rng *sim.Rand) (*Replayer, error) {
	if lt == nil || len(lt.Samples) == 0 {
		return nil, ErrEmptyTrace
	}
	return &Replayer{lt: lt, window: window, rng: rng, KillLossDB: 80}, nil
}

// ExtraLossDB implements phy.LinkModifier.
func (rp *Replayer) ExtraLossDB(t sim.Time) float64 {
	prr := rp.prrAt(t)
	if rp.rng.Bernoulli(prr) {
		return 0
	}
	return rp.KillLossDB
}

func (rp *Replayer) prrAt(t sim.Time) float64 {
	samples := rp.lt.Samples
	// Samples are stamped at window end; find the first window containing t.
	for _, s := range samples {
		if t < s.At {
			if s.Sent == 0 {
				return 1 // silence is not evidence of loss
			}
			return s.PRR()
		}
	}
	last := samples[len(samples)-1]
	if last.Sent == 0 {
		return 1
	}
	return last.PRR()
}
