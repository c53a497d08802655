package experiment

import (
	"fmt"
	"io"

	"fourbit/internal/core"
	"fourbit/internal/topo"
)

// ---------------------------------------------------------------------------
// Estimator comparison: the paper's central claim run as a first-class
// workload. One router (CTP), one topology, one seed — only the link
// estimator varies: the four-bit hybrid against the beacon-only WMEWMA/ETX
// baseline, the windowed-mean PDR family, and pure-LQI estimation. The
// reproduction target is the qualitative ordering of delivery cost:
// four-bit below the beacon-only and LQI estimators.
// ---------------------------------------------------------------------------

// EstCompareResult holds the per-estimator runs, in the comparison's kind
// order (scenario.EstCompareKinds).
type EstCompareResult struct {
	Topo *topo.Topology
	Runs []*Result
}

// ByKind returns the run for an estimator kind, or nil.
func (r *EstCompareResult) ByKind(k core.EstimatorKind) *Result {
	for _, res := range r.Runs {
		if res.Estimator == k {
			return res
		}
	}
	return nil
}

// Fprint renders the comparison table plus the headline orderings,
// including the estimator-internal counters that explain them (a pure-LQI
// estimator completes no unicast windows; a beacon-only one completes no
// fewer beacon windows than four-bit but reacts at beacon cadence).
func (r *EstCompareResult) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Estimator comparison: CTP on %s at %.1f dBm (router fixed, estimator swapped)\n",
		r.Topo.Name, r.Runs[0].TxPowerDBm)
	fmt.Fprintf(w, "%-8s %8s %8s %10s %12s %12s %12s\n",
		"est", "cost", "depth", "delivery", "beacon-wins", "unicast-wins", "replaced")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-8s %8.2f %8.2f %9.1f%% %12d %12d %12d\n",
			string(res.Estimator), res.Cost, res.MeanDepth, res.DeliveryRatio*100,
			res.EstBeaconWin, res.EstUnicastWin, res.EstReplaced)
	}
	fb := r.ByKind(core.KindFourBit)
	if fb == nil {
		return
	}
	for _, k := range []core.EstimatorKind{core.KindWMEWMA, core.KindPDR, core.KindLQI} {
		if other := r.ByKind(k); other != nil && other.Cost > 0 {
			fmt.Fprintf(w, "4bit cost vs %s: %+.0f%%\n", string(k), 100*(fb.Cost-other.Cost)/other.Cost)
		}
	}
}
