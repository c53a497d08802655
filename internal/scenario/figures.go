package scenario

import (
	"fourbit/internal/core"
	"fourbit/internal/experiment"
)

// The paper's figures as scenario presets. Each *Specs function is the one
// definition of a figure's run batch, and each Run* function executes it on
// the experiment worker pool and hands the results to the figure's result
// type in internal/experiment, which renders them. Figure 3 is not a
// RunConfig batch (it instruments one link mid-run) and stays a bespoke
// harness in internal/experiment.

// figureSpec is the shared 25-minute testbed scenario scaled to minutes.
func figureSpec(protocol, kind string, seed uint64, minutes float64) Spec {
	return Spec{
		Protocol:    protocol,
		Topology:    TopoSpec{Kind: kind},
		Seed:        seed,
		DurationMin: minutes,
	}
}

// Fig2Specs is Figure 2 as scenarios: CTP(10), MultiHopLQI and
// CTP-unlimited on Mirage at 0 dBm.
func Fig2Specs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, p := range []string{"CTP", "MultiHopLQI", "CTP-unlimited"} {
		specs = append(specs, figureSpec(p, "mirage", seed, minutes))
	}
	return specs
}

// Fig6Specs is Figure 6 as scenarios: the five design-space variants.
func Fig6Specs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, p := range []string{"CTP", "CTP+unidir", "CTP+white", "4B", "MultiHopLQI"} {
		specs = append(specs, figureSpec(p, "mirage", seed, minutes))
	}
	return specs
}

// PowerSweepPowers is the transmit-power axis of Figures 7 and 8.
var PowerSweepPowers = []float64{0, -10, -20}

// PowerSweepSpecs is the Figure 7/8 batch as scenarios: (4B, MultiHopLQI)
// at each power of PowerSweepPowers, interleaved in that order.
func PowerSweepSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, pw := range PowerSweepPowers {
		for _, p := range []string{"4B", "MultiHopLQI"} {
			s := figureSpec(p, "mirage", seed, minutes)
			s.TxPowerDBm = pw
			specs = append(specs, s)
		}
	}
	return specs
}

// HeadlineSpecs is the headline comparison as scenarios: (4B, MultiHopLQI)
// on Mirage then TutorNet.
func HeadlineSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, kind := range []string{"mirage", "tutornet"} {
		for _, p := range []string{"4B", "MultiHopLQI"} {
			specs = append(specs, figureSpec(p, kind, seed, minutes))
		}
	}
	return specs
}

// EstCompareKinds is the estimator axis of the comparison, in display
// order.
var EstCompareKinds = []core.EstimatorKind{
	core.KindFourBit, core.KindWMEWMA, core.KindPDR, core.KindLQI,
}

// EstCompareSpecs is the estimator comparison as scenarios: the paper's
// central claim run over one router (CTP), one topology and one seed, with
// each kind of EstCompareKinds swapped in as the link estimator. The
// testbed is the default 8x8 grid (the generator's standard 6 m spacing,
// root in a corner) at reduced transmit power, so routes are several hops
// long and the grey region — where estimator quality decides cost — covers
// many links. The agility figure and the grid-* presets derive their
// conditions from these specs.
func EstCompareSpecs(seed uint64, minutes float64) []Spec {
	var specs []Spec
	for _, k := range EstCompareKinds {
		specs = append(specs, Spec{
			Protocol:    "4B",
			Estimator:   string(k),
			Topology:    TopoSpec{Kind: "grid", Rows: 8, Cols: 8},
			Seed:        seed,
			TxPowerDBm:  -12.5,
			DurationMin: minutes,
		})
	}
	return specs
}

// RunEstCompare executes the estimator comparison through its scenario
// preset.
func RunEstCompare(seed uint64, minutes float64, workers int) *experiment.EstCompareResult {
	rcs := mustRuns(EstCompareSpecs(seed, minutes))
	return &experiment.EstCompareResult{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// BuildRuns compiles a spec batch into experiment runs. Specs on one
// geometry share one topology, so the batch pays one channel precompute
// per geometry.
func BuildRuns(specs []Spec) ([]experiment.RunConfig, error) {
	rcs := make([]experiment.RunConfig, len(specs))
	topos := topoCache{}
	for i := range specs {
		rc, err := specs[i].runConfig(topos)
		if err != nil {
			return nil, err
		}
		rcs[i] = rc
	}
	return rcs, nil
}

// mustRuns backs the figure wrappers: the presets above are pinned valid
// by tests, so an error here is a programming bug, not an input problem.
func mustRuns(specs []Spec) []experiment.RunConfig {
	rcs, err := BuildRuns(specs)
	if err != nil {
		panic(err)
	}
	return rcs
}

// RunFig2 executes Figure 2 through its scenario preset.
func RunFig2(seed uint64, minutes float64, workers int) *experiment.Fig2Result {
	rcs := mustRuns(Fig2Specs(seed, minutes))
	return &experiment.Fig2Result{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// RunFig6 executes Figure 6 through its scenario preset.
func RunFig6(seed uint64, minutes float64, workers int) *experiment.Fig6Result {
	rcs := mustRuns(Fig6Specs(seed, minutes))
	return &experiment.Fig6Result{Topo: rcs[0].Topo, Runs: experiment.RunAllWorkers(rcs, workers)}
}

// RunPowerSweep executes the Figure 7/8 batch through its scenario preset.
func RunPowerSweep(seed uint64, minutes float64, workers int) *experiment.PowerSweepResult {
	rcs := mustRuns(PowerSweepSpecs(seed, minutes))
	return experiment.AssemblePowerSweep(rcs[0].Topo, experiment.RunAllWorkers(rcs, workers))
}

// RunHeadline executes the headline comparison through its scenario preset.
func RunHeadline(seed uint64, minutes float64, workers int) *experiment.HeadlineResult {
	rcs := mustRuns(HeadlineSpecs(seed, minutes))
	return experiment.AssembleHeadline(rcs, experiment.RunAllWorkers(rcs, workers))
}
