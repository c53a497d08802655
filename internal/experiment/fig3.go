package experiment

import (
	"fmt"
	"io"
	"math"

	"fourbit/internal/collect"
	"fourbit/internal/lqirouter"
	"fourbit/internal/metrics"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
	"fourbit/internal/trace"
)

// Fig3Config configures the Figure 3 scenario: a long MultiHopLQI
// collection run on TutorNet in which one in-use link turns bursty for two
// hours. Bursty means a Gilbert-Elliott process whose Bad state attenuates
// the link into silence — so the PRR collapses while every packet that is
// received still carries saturated LQI, exactly the physical-layer blind
// spot of §2.1.
type Fig3Config struct {
	Seed         uint64
	Duration     sim.Time // paper: 12 h
	DegradeFrom  sim.Time // paper: degradation observed hours 4-6
	DegradeUntil sim.Time
	// SelectAt is when the in-use link (P -> its parent C) is chosen; it
	// defaults to one beacon period before DegradeFrom, but not before
	// time 0.
	SelectAt sim.Time
	Window   sim.Time // series sampling window
	// BadFraction is the Bad-state duty cycle (PRR drops to
	// ~1-BadFraction). Must be strictly inside (0,1): the Gilbert–Elliott
	// sojourn means are derived from it and degenerate at the endpoints.
	BadFraction float64
	MeanBad     sim.Time
}

// DefaultFig3Config returns the paper-scale scenario.
func DefaultFig3Config(seed uint64) Fig3Config {
	return Fig3Config{
		Seed:         seed,
		Duration:     12 * sim.Hour,
		DegradeFrom:  4 * sim.Hour,
		DegradeUntil: 6 * sim.Hour,
		Window:       10 * sim.Minute,
		BadFraction:  0.35,
		MeanBad:      2 * sim.Second,
	}
}

// Fig3Result carries the three series of the paper's Figure 3 plus summary
// statistics over the before/during windows. A summary is NaN when its
// window holds too few samples: none for a mean, fewer than two for a
// ramp rate.
type Fig3Result struct {
	P, C int // data flows P -> C; C is P's parent at selection time

	PRR     metrics.Series // beacon PRR of link P->C, time in hours
	LQI     metrics.Series // mean LQI of P's packets received at C
	Unacked metrics.Series // cumulative unacked transmissions at P

	PRRBefore, PRRDuring        float64
	LQIBefore, LQIDuring        float64
	UnackedRateBefore           float64 // unacked tx per hour before
	UnackedRateDuring           float64
	DeliveryRatio               float64
	DegradeFromH, DegradeUntilH float64
}

// RunFig3 executes the scenario.
func RunFig3(cfg Fig3Config) *Fig3Result {
	if cfg.BadFraction <= 0 || cfg.BadFraction >= 1 {
		// Fail at config time with the offending knob named, not mid-run
		// when the degradation window opens and the derived Gilbert–Elliott
		// sojourn mean comes out non-positive.
		panic(fmt.Sprintf("experiment: Fig3Config.BadFraction must be in (0,1), got %g", cfg.BadFraction))
	}
	if cfg.SelectAt == 0 {
		cfg.SelectAt = max(cfg.DegradeFrom-30*sim.Second, 0)
	}
	tp := topo.TutorNet(cfg.Seed)
	env := node.NewEnv(tp, node.DefaultEnvConfig(cfg.Seed, 0))
	net := node.Build(env, node.LQI(lqirouter.DefaultConfig()), collect.DefaultWorkload())
	rec := trace.NewRecorder(env, cfg.Window, "fig3")

	// Sample every node's cumulative unacked transmissions each window (P
	// is unknown until selection time).
	nodes := tp.N()
	type unackSample struct {
		at     sim.Time
		counts []uint64
	}
	var unacked []unackSample
	env.Clock.Every(cfg.Window, cfg.Window, func() {
		counts := make([]uint64, nodes)
		for i, m := range net.MACs {
			counts[i] = m.Stats.AckTimeouts
		}
		unacked = append(unacked, unackSample{env.Clock.Now(), counts})
	})

	// Parent stability snapshot ahead of selection (at time 0 when the
	// degradation starts within the first ten minutes).
	early := make([]packet.Addr, nodes)
	env.Clock.At(max(cfg.SelectAt-10*sim.Minute, 0), func() {
		for i, nd := range net.Routers {
			early[i] = nd.Parent()
		}
	})

	res := &Fig3Result{P: -1, C: -1}
	env.Clock.At(cfg.SelectAt, func() {
		for i, nd := range net.Routers {
			if i == tp.Root {
				continue
			}
			p := nd.Parent()
			if p == packet.None || p != early[i] {
				continue
			}
			res.P, res.C = i, int(p)
			break
		}
		if res.P < 0 {
			// No stable pair (tiny test runs): fall back to any routed node.
			for i, nd := range net.Routers {
				if i != tp.Root && nd.Parent() != packet.None {
					res.P, res.C = i, int(nd.Parent())
					break
				}
			}
		}
		if res.P < 0 {
			return
		}
		f := cfg.BadFraction
		meanGood := cfg.MeanBad.Scale((1 - f) / f)
		ge := phy.NewGilbertElliott(50, meanGood, cfg.MeanBad,
			env.Seeds.Stream("fig3/ge")).Window(cfg.DegradeFrom, cfg.DegradeUntil)
		env.Chan.SetModifierBoth(res.P, res.C, ge)
	})

	env.Clock.RunUntil(cfg.Duration)

	res.DeliveryRatio = net.Ledger.TotalDeliveryRatio()
	res.DegradeFromH = cfg.DegradeFrom.Hours()
	res.DegradeUntilH = cfg.DegradeUntil.Hours()
	if res.P < 0 {
		return res
	}

	// Assemble the three series.
	tr := rec.Finalize()
	if lt := tr.Link(res.P, res.C); lt != nil {
		for _, s := range lt.Samples {
			if s.Sent == 0 {
				continue
			}
			h := s.At.Hours()
			res.PRR.Add(h, s.PRR())
			if s.Rcvd > 0 {
				res.LQI.Add(h, s.MeanLQI)
			}
		}
	}
	for _, s := range unacked {
		res.Unacked.Add(s.at.Hours(), float64(s.counts[res.P]))
	}

	// Before/during summaries.
	from, until := res.DegradeFromH, res.DegradeUntilH
	preFrom := from - (until - from)
	if preFrom < 0 {
		preFrom = 0
	}
	res.PRRBefore = res.PRR.WindowMean(preFrom, from)
	res.PRRDuring = res.PRR.WindowMean(from, until)
	res.LQIBefore = res.LQI.WindowMean(preFrom, from)
	res.LQIDuring = res.LQI.WindowMean(from, until)
	res.UnackedRateBefore = rampRate(&res.Unacked, preFrom, from)
	res.UnackedRateDuring = rampRate(&res.Unacked, from, until)
	return res
}

// rampRate estimates the per-hour growth of a cumulative series over [t0,
// t1], or NaN when fewer than two of its samples fall in the span: one
// sample shows no growth, not a zero rate.
func rampRate(s *metrics.Series, t0, t1 float64) float64 {
	var first, last float64
	seen := 0
	for i, t := range s.T {
		if t < t0 || t > t1 {
			continue
		}
		if seen == 0 {
			first = s.V[i]
		}
		last = s.V[i]
		seen++
	}
	if seen < 2 || t1 <= t0 {
		return math.NaN()
	}
	return (last - first) / (t1 - t0)
}

// orNA formats v with format, or as "n/a" when v is NaN: a summary whose
// span holds no sample (a degradation that starts within the first sample
// window has no "before").
func orNA(format string, v float64) string {
	if math.IsNaN(v) {
		return "n/a"
	}
	return fmt.Sprintf(format, v)
}

// Fprint renders the three Figure 3 series and the summary rows.
func (r *Fig3Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 3: MultiHopLQI blind spot — link %d->%d degraded %.3gh..%.3gh\n",
		r.P, r.C, r.DegradeFromH, r.DegradeUntilH)
	fmt.Fprintf(w, "%6s %8s %8s %10s\n", "t(h)", "PRR", "LQI", "unacked")
	li := 0
	for i := range r.PRR.T {
		lqi := 0.0
		for li < r.LQI.Len() && r.LQI.T[li] <= r.PRR.T[i] {
			lqi = r.LQI.V[li]
			li++
		}
		un := 0.0
		for j := range r.Unacked.T {
			if r.Unacked.T[j] <= r.PRR.T[i] {
				un = r.Unacked.V[j]
			}
		}
		fmt.Fprintf(w, "%6.2f %8.3f %8.1f %10.0f\n", r.PRR.T[i], r.PRR.V[i], lqi, un)
	}
	fmt.Fprintf(w, "\nPRR  before %s -> during %s   (paper: 0.9 -> ~0.6)\n", orNA("%.3f", r.PRRBefore), orNA("%.3f", r.PRRDuring))
	fmt.Fprintf(w, "LQI  before %s -> during %s   (paper: stays high, ~100+)\n", orNA("%.1f", r.LQIBefore), orNA("%.1f", r.LQIDuring))
	fmt.Fprintf(w, "unacked ramp: %s before -> %s during (paper: sharp ramp hours 4-6)\n",
		orNA("%.0f/h", r.UnackedRateBefore), orNA("%.0f/h", r.UnackedRateDuring))
	fmt.Fprintf(w, "overall delivery ratio: %.1f%%\n", r.DeliveryRatio*100)
}
