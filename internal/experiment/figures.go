package experiment

import (
	"fmt"
	"io"

	"fourbit/internal/metrics"
	"fourbit/internal/topo"
)

// The result types and renderers of the paper's figures. Each figure's run
// batch is defined once, as scenario specs (internal/scenario, Fig2Specs
// and friends); the scenario runners execute a batch on the worker pool
// and hand the results to the types below, which regroup and render them.

// ---------------------------------------------------------------------------
// Figure 2: routing trees and cost on the 85-node testbed for CTP (10-entry
// table), MultiHopLQI, and CTP with an unrestricted table. Paper values:
// cost 3.14 / 2.28 / 1.86 — the orderings, not the absolute numbers, are
// the reproduction target.
// ---------------------------------------------------------------------------

// Fig2Result holds the three runs of Figure 2.
type Fig2Result struct {
	Topo *topo.Topology
	Runs []*Result // CTP, MultiHopLQI, CTP-unlimited
}

// Fprint renders the Figure 2 trees and cost table.
func (r *Fig2Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 2: routing trees on %s (root bottom-left; digits are tree depth)\n\n", r.Topo.Name)
	paper := map[Protocol]float64{ProtoCTP: 3.14, ProtoMultiHopLQI: 2.28, ProtoCTPUnlimited: 1.86}
	for _, res := range r.Runs {
		fmt.Fprintf(w, "(%s)  cost = %.2f  (paper: %.2f)   depth-histogram: %s\n",
			res.Protocol, res.Cost, paper[res.Protocol],
			DepthHistogram(res.FinalDepths, r.Topo.Root))
		fmt.Fprintln(w, RenderTree(r.Topo, res.FinalParents, 64, 18))
	}
	fmt.Fprintf(w, "%-14s %8s %8s %10s %9s\n", "protocol", "cost", "depth", "delivery", "dup")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-14s %8.2f %8.2f %9.1f%% %9d\n",
			res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100, res.Duplicates)
	}
}

// ---------------------------------------------------------------------------
// Figure 6: the estimation design space — cost vs average tree depth for
// CTP, CTP+unidir (ack bit), CTP+white/compare, 4B and MultiHopLQI on the
// Mirage testbed at 0 dBm.
// ---------------------------------------------------------------------------

// Fig6Result holds the five design-space runs.
type Fig6Result struct {
	Topo *topo.Topology
	Runs []*Result
}

// Fprint renders the Figure 6 scatter as a table (cost vs depth).
func (r *Fig6Result) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Figure 6: link-estimation design space on %s (0 dBm)\n", r.Topo.Name)
	fmt.Fprintf(w, "%-14s %10s %12s %10s\n", "variant", "cost", "avg depth", "delivery")
	for _, res := range r.Runs {
		fmt.Fprintf(w, "%-14s %10.2f %12.2f %9.1f%%\n",
			res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100)
	}
	base := r.Runs[0] // plain CTP
	fb := r.byProto(Proto4B)
	lqi := r.byProto(ProtoMultiHopLQI)
	if base != nil && fb != nil && base.Cost > 0 {
		fmt.Fprintf(w, "\n4B cost vs CTP: %+.0f%%  (paper: -45%%)\n", 100*(fb.Cost-base.Cost)/base.Cost)
	}
	if lqi != nil && fb != nil && lqi.Cost > 0 {
		fmt.Fprintf(w, "4B cost vs MultiHopLQI: %+.0f%%  (paper: -29%%)\n", 100*(fb.Cost-lqi.Cost)/lqi.Cost)
	}
}

func (r *Fig6Result) byProto(p Protocol) *Result {
	for _, res := range r.Runs {
		if res.Protocol == p {
			return res
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Figures 7 and 8: power sweep (0, -10, -20 dBm) of 4B vs MultiHopLQI on
// Mirage. Figure 7 reports cost and depth per power; Figure 8 the per-node
// delivery-ratio boxplots of the same runs.
// ---------------------------------------------------------------------------

// PowerSweepResult holds the 3x2 runs shared by Figures 7 and 8.
type PowerSweepResult struct {
	Topo   *topo.Topology
	Powers []float64
	FB     []*Result // 4B, by power
	LQI    []*Result // MultiHopLQI, by power
}

// AssemblePowerSweep regroups the power sweep's runs — (4B, MultiHopLQI)
// pairs, one per power — into the Figure 7/8 result structure.
func AssemblePowerSweep(tp *topo.Topology, runs []*Result) *PowerSweepResult {
	out := &PowerSweepResult{Topo: tp}
	for i := 0; i < len(runs); i += 2 {
		out.Powers = append(out.Powers, runs[i].TxPowerDBm)
		out.FB = append(out.FB, runs[i])
		out.LQI = append(out.LQI, runs[i+1])
	}
	return out
}

// FprintFig7 renders cost and depth per power level.
func (r *PowerSweepResult) FprintFig7(w io.Writer) {
	fmt.Fprintf(w, "Figure 7: cost and average depth vs transmit power on %s\n", r.Topo.Name)
	fmt.Fprintf(w, "%8s  %-12s %8s %8s %14s\n", "power", "protocol", "cost", "depth", "cost-vs-depth")
	for i, pw := range r.Powers {
		for _, res := range []*Result{r.FB[i], r.LQI[i]} {
			excess := 0.0
			if res.MeanDepth > 0 {
				excess = 100 * (res.Cost - res.MeanDepth) / res.MeanDepth
			}
			fmt.Fprintf(w, "%6.0fdBm  %-12s %8.2f %8.2f %+13.0f%%\n",
				pw, res.Protocol.String(), res.Cost, res.MeanDepth, excess)
		}
		fb, lqi := r.FB[i], r.LQI[i]
		if lqi.Cost > 0 {
			fmt.Fprintf(w, "%6.0fdBm  4B cost improvement: %.0f%%  (paper: 29%%..11%% over the sweep)\n",
				pw, 100*(lqi.Cost-fb.Cost)/lqi.Cost)
		}
	}
}

// FprintFig8 renders the per-node delivery boxplots.
func (r *PowerSweepResult) FprintFig8(w io.Writer) {
	fmt.Fprintf(w, "Figure 8: per-node delivery ratio distributions on %s\n", r.Topo.Name)
	fmt.Fprintf(w, "%-12s %8s  %s\n", "protocol", "power", "boxplot")
	for i, pw := range r.Powers {
		b := metrics.NewBoxplot(r.LQI[i].PerNodeDelivery)
		fmt.Fprintf(w, "%-12s %6.0fdBm  %s\n", "MultiHopLQI", pw, b)
	}
	for i, pw := range r.Powers {
		b := metrics.NewBoxplot(r.FB[i].PerNodeDelivery)
		fmt.Fprintf(w, "%-12s %6.0fdBm  %s\n", "4B", pw, b)
	}
}

// ---------------------------------------------------------------------------
// Headline ("Table H"): 4B vs MultiHopLQI on Mirage and TutorNet — the
// abstract's 29%/44% cost reductions and 99.9%/99% vs ~93%/85% deliveries.
// ---------------------------------------------------------------------------

// HeadlineResult holds the two-testbed comparison.
type HeadlineResult struct {
	Testbeds []string
	FB       []*Result
	LQI      []*Result
}

// AssembleHeadline regroups the headline's runs — (4B, MultiHopLQI) pairs,
// one per testbed — into the headline result structure.
func AssembleHeadline(rcs []RunConfig, runs []*Result) *HeadlineResult {
	out := &HeadlineResult{}
	for i := 0; i < len(runs); i += 2 {
		out.Testbeds = append(out.Testbeds, rcs[i].Topo.Name)
		out.FB = append(out.FB, runs[i])
		out.LQI = append(out.LQI, runs[i+1])
	}
	return out
}

// Fprint renders the headline table.
func (r *HeadlineResult) Fprint(w io.Writer) {
	fmt.Fprintln(w, "Headline: 4B vs MultiHopLQI (paper: Mirage -29% cost, 99.9% vs ~93-96%;")
	fmt.Fprintln(w, "          TutorNet -44% cost, 99% vs 85%)")
	fmt.Fprintf(w, "%-14s %-12s %8s %8s %10s\n", "testbed", "protocol", "cost", "depth", "delivery")
	for i, name := range r.Testbeds {
		for _, res := range []*Result{r.FB[i], r.LQI[i]} {
			fmt.Fprintf(w, "%-14s %-12s %8.2f %8.2f %9.2f%%\n",
				name, res.Protocol.String(), res.Cost, res.MeanDepth, res.DeliveryRatio*100)
		}
		if r.LQI[i].Cost > 0 {
			fmt.Fprintf(w, "%-14s cost reduction: %.0f%%\n",
				name, 100*(r.LQI[i].Cost-r.FB[i].Cost)/r.LQI[i].Cost)
		}
	}
}
