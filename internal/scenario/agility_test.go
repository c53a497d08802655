package scenario

import (
	"bytes"
	"flag"
	"os"
	"sync"
	"testing"

	"fourbit/internal/core"
)

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden_timeline.txt from the current model")

// The agility figure pinned by the golden and the ordering test: seed 1,
// 12 simulated minutes (death at 4.8), the default grid. One execution
// serves both tests.
var (
	agilityOnce sync.Once
	agilityRes  *AgilityResult
)

func agilityFixture() *AgilityResult {
	agilityOnce.Do(func() { agilityRes = RunAgility(1, 12, 0) })
	return agilityRes
}

// TestAgilityRecoveryOrdering pins the reproduction target of the timeline
// figure: after the scripted parent death, the four-bit hybrid's windowed
// cost returns to its pre-death baseline strictly faster than every other
// estimator kind — the ack bit reacts at data cadence, beacon windows and
// silence aging at beacon cadence or slower.
func TestAgilityRecoveryOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	r := agilityFixture()
	fb, ok := r.Recovery(core.KindFourBit)
	if !ok || !fb.Recovered {
		t.Fatalf("4bit did not recover: %+v (ok=%v)", fb, ok)
	}
	for _, k := range []core.EstimatorKind{core.KindWMEWMA, core.KindPDR, core.KindLQI} {
		other, ok := r.Recovery(k)
		if !ok {
			t.Errorf("%s: no recovery measurement", k)
			continue
		}
		if other.Recovered && other.Windows <= fb.Windows {
			t.Errorf("recovery ordering: 4bit %d windows should beat %s %d windows",
				fb.Windows, k, other.Windows)
		}
	}
	// The disruption must be real: every estimator's run saw the death
	// (the dead relays stop delivering, so the end-to-end cost of the
	// sluggish estimators exceeds the hybrid's).
	fbRun := r.ByKind(core.KindFourBit)
	for _, k := range []core.EstimatorKind{core.KindWMEWMA, core.KindPDR, core.KindLQI} {
		if run := r.ByKind(k); run != nil && run.Cost <= fbRun.Cost {
			t.Errorf("end-to-end cost: 4bit %.2f should beat %s %.2f under churn", fbRun.Cost, k, run.Cost)
		}
	}
}

// TestGoldenTimelineFigure pins the timeline figure's stdout byte-for-byte
// (the `fourbitsim timeline -seed 1 -minutes 12` output). Regenerate with:
//
//	go test ./internal/scenario -run TestGoldenTimelineFigure -update-goldens
func TestGoldenTimelineFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run simulation")
	}
	var b bytes.Buffer
	agilityFixture().Fprint(&b)
	got := b.String()

	const path = "testdata/golden_timeline.txt"
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update-goldens to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("timeline figure diverged from golden.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// The agility specs must be valid scenarios whose compiled runs carry the
// timeline and the death event.
func TestAgilitySpecsValid(t *testing.T) {
	specs := AgilitySpecs(1, 0)
	if len(specs) != len(EstCompareKinds) {
		t.Fatalf("specs = %d, want %d", len(specs), len(EstCompareKinds))
	}
	for i := range specs {
		if err := specs[i].Validate(); err != nil {
			t.Fatalf("spec %d invalid: %v", i, err)
		}
		rc, err := specs[i].RunConfig()
		if err != nil {
			t.Fatal(err)
		}
		if rc.TimelineWindow != AgilityWindowS*1e9 {
			t.Errorf("spec %d timeline window = %v", i, rc.TimelineWindow)
		}
		if rc.EnvMutate == nil {
			t.Errorf("spec %d compiled without dynamics", i)
		}
	}
}

func TestTimelinePresets(t *testing.T) {
	for _, name := range []string{"node-death-recovery", "interference-onset"} {
		p, ok := Preset(name)
		if !ok {
			t.Fatalf("preset %q missing", name)
		}
		if p.Spec.TimelineS <= 0 {
			t.Errorf("preset %q records no timeline", name)
		}
		if len(p.Spec.Dynamics) == 0 {
			t.Errorf("preset %q scripts no dynamics", name)
		}
		if err := p.Spec.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
	}
	// node-death-recovery tracks the agility figure's conditions.
	p, _ := Preset("node-death-recovery")
	want := AgilitySpecs(1, 0)[0]
	want.Name = "node-death-recovery"
	if p.Spec.Estimator != "4bit" || p.Spec.TxPowerDBm != want.TxPowerDBm ||
		len(p.Spec.Dynamics) != 1 || p.Spec.Dynamics[0].AtMin != want.Dynamics[0].AtMin {
		t.Errorf("node-death-recovery drifted from the agility figure: %+v vs %+v", p.Spec, want)
	}
}
