package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"fourbit/internal/experiment"
	"fourbit/internal/scenario"
)

// buildFourbitsim builds the command the serve workloads start.
func buildFourbitsim(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fourbitsim")
	out, err := exec.Command("go", "build", "-o", bin, "fourbit/cmd/fourbitsim").CombinedOutput()
	if err != nil {
		t.Fatalf("building fourbitsim: %v\n%s", err, out)
	}
	return bin
}

// TestWorkloadsSmoke runs every workload at the smallest size its checks
// allow, untraced and traced, and checks the result line's shape.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bin := buildFourbitsim(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: w.name, seed: 3, seconds: 0.2, trace: trace,
				spanDir: t.TempDir(), fourbitsim: bin}
			res, err := execute(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := len(e2eUnits)
			if trace {
				want = len(layerNames)
			}
			if len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), want)
			}
			if !trace {
				for name, m := range res.Metrics {
					if !(m.Value > 0) {
						t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, name, m.Value)
					}
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
		}
	}
}

// TestPoolMatchesRunAllWorkers pins the benchmark's worker pool to the
// program's: the Figure 6 batch fingerprints identically either way.
func TestPoolMatchesRunAllWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the Figure 6 batch twice")
	}
	specs := scenario.Fig6Specs(5, fig6Minutes)
	rcs, err := scenario.BuildRuns(specs)
	if err != nil {
		t.Fatal(err)
	}
	want := experiment.RunAllWorkers(rcs, simWorkers)
	r, err := newRequest(specs, func(*experiment.RunConfig) {}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range r.runs {
		run.run()
	}
	r.finish(nil)
	for i := range rcs {
		if got := r.prints[i]; got != experiment.Fingerprint(rcs[i], want[i]) {
			t.Errorf("run %d: benchmark pool fingerprint differs from RunAllWorkers", i)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists and
// the metrics this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not a workload", w.Name)
		}
	}
	if len(b.EndToEnd) != len(e2eUnits) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the command prints %d", len(b.EndToEnd), len(e2eUnits))
	}
	for _, m := range b.EndToEnd {
		if e2eUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, command unit %q", m.Name, m.Unit, e2eUnits[m.Name])
		}
	}
	if len(b.PerLayer) != len(layerNames) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the command prints %d", len(b.PerLayer), len(layerNames))
	}
	for i, m := range b.PerLayer {
		if layerNames[i].name != m.Name || layerNames[i].unit != m.Unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], command %s [%s]", i, m.Name, m.Unit, layerNames[i].name, layerNames[i].unit)
		}
	}
}
