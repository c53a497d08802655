package scenario

import (
	"strings"
	"testing"

	"fourbit/internal/core"
)

func TestSpecEstimatorSelector(t *testing.T) {
	s := Spec{Protocol: "4B", Estimator: "lqi", Topology: TopoSpec{Kind: "grid", Rows: 3, Cols: 3}}
	rc, err := s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Estimator != core.KindLQI {
		t.Fatalf("rc.Estimator = %q, want %q", rc.Estimator, core.KindLQI)
	}
	// Empty stays empty — the byte-identical default path.
	s.Estimator = ""
	rc, err = s.RunConfig()
	if err != nil {
		t.Fatal(err)
	}
	if rc.Estimator != "" {
		t.Fatalf("rc.Estimator = %q, want empty default", rc.Estimator)
	}
}

func TestSpecEstimatorValidation(t *testing.T) {
	bad := Spec{Estimator: "etx9000", Topology: TopoSpec{Kind: "mirage"}}
	if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), "etx9000") {
		t.Errorf("unknown estimator: err = %v", bad.Validate())
	}
	lqiProto := Spec{Protocol: "MultiHopLQI", Estimator: "4bit", Topology: TopoSpec{Kind: "mirage"}}
	if err := lqiProto.Validate(); err == nil || !strings.Contains(err.Error(), "MultiHopLQI") {
		t.Errorf("estimator on MultiHopLQI: err = %v", lqiProto.Validate())
	}
}

// A contradictory estimator-config knob must fail at spec compilation with
// the scenario named, not panic inside a worker mid-sweep.
func TestSpecEstimatorConfigValidated(t *testing.T) {
	s := Spec{Name: "bad-knobs", Protocol: "4B", Topology: TopoSpec{Kind: "mirage"}, TableSize: -1}
	if err := s.Validate(); err == nil {
		t.Error("negative TableSize passed validation")
	}
}

func TestSweepEstimatorAxis(t *testing.T) {
	sw := Sweep{
		Name: "est-axis",
		Base: Spec{Topology: TopoSpec{Kind: "grid", Rows: 3, Cols: 3}, Seed: 1},
		Axes: []Axis{
			{Param: "protocol", Strings: []string{"4B", "MultiHopLQI"}},
			{Param: "estimator", Strings: []string{"4bit", "wmewma"}},
		},
	}
	cells, err := sw.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}
	// 4B cells carry the estimator; MultiHopLQI cells drop it (the knob
	// has nothing to drive) instead of failing the whole grid.
	for _, c := range cells {
		switch c.Spec.Protocol {
		case "4B":
			if c.Spec.Estimator == "" {
				t.Errorf("cell %d: estimator dropped on a CTP-family cell", c.Index)
			}
		case "MultiHopLQI":
			if c.Spec.Estimator != "" {
				t.Errorf("cell %d: estimator kept on MultiHopLQI", c.Index)
			}
		}
	}
	// The axis label still records the swept value even on dropped cells.
	if cells[3].Labels[1].Value != "wmewma" {
		t.Errorf("label = %+v", cells[3].Labels)
	}
}

func TestSweepEstimatorAxisRejectsNumeric(t *testing.T) {
	a := Axis{Param: "estimator", Values: []float64{1, 2}}
	if err := a.validate(); err == nil {
		t.Error("numeric estimator axis accepted")
	}
}

func TestEstComparePresetSpecsValid(t *testing.T) {
	specs := EstCompareSpecs(1, 25)
	if len(specs) != len(EstCompareKinds) {
		t.Fatalf("specs = %d, want %d", len(specs), len(EstCompareKinds))
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
	}
}
