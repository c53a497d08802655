package scenario

import (
	"fmt"
	"io"
	"math"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

// The agility figure: the paper's re-convergence claim measured as a
// timeline. One CTP router on the estimator-comparison grid, every
// registered estimator kind swapped in, and a scripted parent death mid-run
// — the relay next to the root dies and every route through it must be
// re-learned. The windowed cost timeline shows each estimator's reaction,
// and the recovery-time metric (probe.RecoveryWindows) reduces it to one
// number: windows until cost returns to within AgilityEps of the pre-death
// baseline. The reproduction target is the ordering — the four-bit hybrid,
// fed by the ack bit at data cadence, re-converges faster than the
// beacon-window estimators (wmewma, pdr) and the silence-blind pure-LQI
// estimator, which all react at beacon cadence or slower.

const (
	// AgilityWindowS is the timeline window width of the figure (seconds).
	AgilityWindowS = 30
	// AgilityEps is the recovery band: recovered means windowed cost is
	// back to within (1+AgilityEps)·baseline.
	AgilityEps = 0.25
	// agilityDeathFrac and agilityBaselineFrac place the scripted death
	// and the start of the baseline window as fractions of the run length,
	// so shortened runs (tests, golden) keep the same shape.
	agilityDeathFrac    = 0.4
	agilityBaselineFrac = 0.2
)

// AgilityDeadNodes returns the nodes the figure kills: the root-adjacent
// relays of the 8x8 comparison grid (root 0 in a corner; 1, 8 and 9 are
// its east, north and diagonal neighbors). Every route into the root runs
// through one of them at the comparison power, so their death forces a
// network-wide repair — the surviving second-ring nodes must become the
// root's new (longer, greyer) last hops.
func AgilityDeadNodes() []int { return []int{1, 8, 9} }

// AgilitySpecs is the figure as scenarios: the estimator comparison's specs
// (EstCompareSpecs: grid, power, kind order) with the scripted death and
// the timeline declared like any user scenario would. minutes <= 0 means
// the standard 25.
func AgilitySpecs(seed uint64, minutes float64) []Spec {
	if minutes <= 0 {
		minutes = 25
	}
	specs := EstCompareSpecs(seed, minutes)
	for i := range specs {
		s := &specs[i]
		s.Name = "agility-" + s.Estimator
		s.TimelineS = AgilityWindowS
		s.Dynamics = []Event{{
			Kind:  "node-down",
			AtMin: minutes * agilityDeathFrac,
			Nodes: AgilityDeadNodes(),
		}}
	}
	return specs
}

// AgilityResult holds the per-estimator timeline runs.
type AgilityResult struct {
	Seed     uint64
	Minutes  float64
	DeathMin float64
	Runs     []*experiment.Result // ordered as EstCompareKinds
}

// RunAgility executes the agility figure on a worker pool.
func RunAgility(seed uint64, minutes float64, workers int) *AgilityResult {
	if minutes <= 0 {
		minutes = 25
	}
	rcs := mustRuns(AgilitySpecs(seed, minutes))
	return &AgilityResult{
		Seed:     seed,
		Minutes:  minutes,
		DeathMin: minutes * agilityDeathFrac,
		Runs:     experiment.RunAllWorkers(rcs, workers),
	}
}

// ByKind returns the run for an estimator kind, or nil.
func (r *AgilityResult) ByKind(k core.EstimatorKind) *experiment.Result {
	return (&experiment.EstCompareResult{Runs: r.Runs}).ByKind(k)
}

// Recovery computes the recovery-time metric for one estimator kind's run:
// windows after the scripted death until the windowed cost returns to
// within AgilityEps of the pre-death baseline (measured over the settled
// window between agilityBaselineFrac of the run and the death).
func (r *AgilityResult) Recovery(k core.EstimatorKind) (probe.Recovery, bool) {
	res := r.ByKind(k)
	if res == nil || res.Timeline == nil {
		return probe.Recovery{}, false
	}
	death := sim.FromSeconds(r.DeathMin * 60)
	baselineFrom := sim.FromSeconds(r.Minutes * agilityBaselineFrac * 60)
	return res.Timeline.RecoveryWindows(baselineFrom, death, AgilityEps)
}

// FprintRecovery reports the recovery-time metric for a replicated
// scenario run: for each seed, windows after the first scripted dynamics
// event until the windowed cost returned to within AgilityEps of its
// pre-event baseline. It prints nothing when the spec recorded no timeline
// or scripted no dynamics — recovery is only defined against an event.
// The baseline is measured from the end of warmup (or half the event time,
// if the event precedes warmup's end) up to the event.
func FprintRecovery(w io.Writer, s *Spec, rep *experiment.Replicated) {
	if s.TimelineS <= 0 || len(s.Dynamics) == 0 {
		return
	}
	eventMin := s.Dynamics[0].AtMin
	for _, e := range s.Dynamics[1:] {
		if e.AtMin < eventMin {
			eventMin = e.AtMin
		}
	}
	event := sim.FromSeconds(eventMin * 60)
	warmup := s.WarmupMin
	if warmup == 0 {
		warmup = 5 // experiment.DefaultRunConfig's warmup
	}
	baselineFrom := sim.FromSeconds(warmup * 60)
	if baselineFrom >= event {
		baselineFrom = event / 2
	}
	fmt.Fprintf(w, "recovery after the minute-%.1f event (cost within +%.0f%% of the [%s, %s) baseline):\n",
		eventMin, AgilityEps*100, baselineFrom, event)
	for i, run := range rep.Runs {
		if run.Timeline == nil {
			continue
		}
		rec, ok := run.Timeline.RecoveryWindows(baselineFrom, event, AgilityEps)
		switch {
		case !ok:
			fmt.Fprintf(w, "  seed %-20d no baseline (nothing delivered before the event)\n", rep.Seeds[i])
		case rec.Recovered:
			fmt.Fprintf(w, "  seed %-20d %d windows (%s), baseline cost %.2f\n",
				rep.Seeds[i], rec.Windows, sim.FromSeconds(float64(rec.Windows)*s.TimelineS), rec.Baseline)
		default:
			fmt.Fprintf(w, "  seed %-20d not recovered in %d windows, baseline cost %.2f\n",
				rep.Seeds[i], rec.Windows, rec.Baseline)
		}
	}
}

// costGlyph maps a window's cost (relative to baseline) onto one strip
// character: '.' inside the recovery band, then rising steps, '!' for
// windows that delivered nothing (cost undefined).
func costGlyph(cost, baseline float64) byte {
	if math.IsNaN(cost) {
		return '!'
	}
	switch ratio := cost / baseline; {
	case ratio <= 1+AgilityEps:
		return '.'
	case ratio <= 1.5:
		return ':'
	case ratio <= 2:
		return '='
	case ratio <= 3:
		return '+'
	case ratio <= 5:
		return '*'
	default:
		return '#'
	}
}

// strip renders a timeline as one character per window, with a '|' marking
// the window in which the death fires.
func strip(tl *probe.Timeline, baseline float64, death sim.Time) string {
	var b []byte
	for i := range tl.Windows {
		w := &tl.Windows[i]
		if w.Start <= death && death < w.End {
			b = append(b, '|')
		}
		b = append(b, costGlyph(w.Cost(), baseline))
	}
	return string(b)
}

// Fprint renders the agility figure: the per-estimator cost strips around
// the scripted death, the recovery table, and the headline orderings.
func (r *AgilityResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Agility: parent death at minute %.1f (nodes %v down), %s windows, recovery band +%.0f%%\n",
		r.DeathMin, AgilityDeadNodes(), (AgilityWindowS * sim.Second).String(), AgilityEps*100)
	fmt.Fprintf(w, "cost per window relative to pre-death baseline ('|' = death; '.' within band, ':' <=1.5x, '=' <=2x, '+' <=3x, '*' <=5x, '#' >5x, '!' nothing delivered)\n\n")
	for _, k := range EstCompareKinds {
		res := r.ByKind(k)
		if res == nil || res.Timeline == nil {
			continue
		}
		rec, ok := r.Recovery(k)
		if !ok {
			// No pre-death baseline (nothing delivered before the event):
			// a strip normalized to it would be fabricated, so say so
			// instead of rendering one.
			fmt.Fprintf(w, "%-8s (no pre-death baseline; end-to-end cost %.2f, delivery %.1f%%)\n\n",
				string(k), res.Cost, res.DeliveryRatio*100)
			continue
		}
		label := ""
		if rec.Recovered {
			label = fmt.Sprintf("recovered in %2d windows (%s)", rec.Windows,
				(sim.Time(rec.Windows) * AgilityWindowS * sim.Second).String())
		} else {
			label = fmt.Sprintf("not recovered in %d windows", rec.Windows)
		}
		death := sim.FromSeconds(r.DeathMin * 60)
		fmt.Fprintf(w, "%-8s %s\n", string(k), strip(res.Timeline, rec.Baseline, death))
		fmt.Fprintf(w, "%-8s baseline %.2f  end-to-end cost %.2f  delivery %.1f%%  %s\n\n",
			"", rec.Baseline, res.Cost, res.DeliveryRatio*100, label)
	}
	fb, fbOK := r.Recovery(core.KindFourBit)
	if !fbOK || !fb.Recovered {
		return
	}
	for _, k := range []core.EstimatorKind{core.KindWMEWMA, core.KindPDR, core.KindLQI} {
		other, ok := r.Recovery(k)
		if !ok {
			continue
		}
		switch {
		case !other.Recovered:
			fmt.Fprintf(w, "4bit recovery vs %s: %d windows vs not recovered\n", string(k), fb.Windows)
		default:
			fmt.Fprintf(w, "4bit recovery vs %s: %d vs %d windows\n", string(k), fb.Windows, other.Windows)
		}
	}
}
