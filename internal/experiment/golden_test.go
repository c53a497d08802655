package experiment

import (
	"flag"
	"os"
	"strings"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The performance kernel (PRR decision table, pooled timers, cached gain
// paths) must not change simulation trajectories by a single bit: the fast
// paths are certified-exact rewrites of the analytic model, not
// approximations of it. This test pins that property by fingerprinting
// short runs — every float down to its last mantissa bit — against goldens
// generated before the kernel existed. Any divergence, however small, is a
// correctness bug in a fast path, not noise.
//
// Regenerate (only for deliberate, documented model changes) with:
//
//	go test ./internal/experiment -run TestGoldenRunFingerprints -update-goldens

var updateGoldens = flag.Bool("update-goldens", false, "rewrite testdata/golden_runs.txt from the current model")

// The last three configs pin the non-default estimator kinds under the 4B
// feature set, which those kinds must not honour.
func goldenConfigs() []RunConfig {
	short := func(rc RunConfig) RunConfig {
		rc.Duration = 2 * sim.Minute
		rc.Warmup = 30 * sim.Second
		rc.SampleEvery = 30 * sim.Second
		return rc
	}
	return []RunConfig{
		short(DefaultRunConfig(Proto4B, topo.Mirage(1), 1)),
		short(DefaultRunConfig(ProtoCTP, topo.Mirage(2), 2)),
		short(DefaultRunConfig(ProtoMultiHopLQI, topo.Mirage(3), 3)),
		func() RunConfig {
			rc := short(DefaultRunConfig(Proto4B, topo.TutorNet(4), 4))
			rc.TxPowerDBm = -10
			return rc
		}(),
		withKind(short(DefaultRunConfig(Proto4B, topo.Mirage(5), 5)), core.KindWMEWMA),
		withKind(short(DefaultRunConfig(Proto4B, topo.Mirage(6), 6)), core.KindPDR),
		withKind(short(DefaultRunConfig(Proto4B, topo.Mirage(7), 7)), core.KindLQI),
	}
}

func withKind(rc RunConfig, kind core.EstimatorKind) RunConfig {
	rc.Estimator = kind
	return rc
}

func TestGoldenRunFingerprints(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-minute simulated runs; skipped in -short")
	}
	var b strings.Builder
	for _, rc := range goldenConfigs() {
		b.WriteString(Fingerprint(rc, Run(rc)))
	}
	got := b.String()

	const path = "testdata/golden_runs.txt"
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
		t.Errorf("run fingerprints diverged from pre-kernel goldens.\nThis means an 'exact' fast path changed simulation behavior.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
