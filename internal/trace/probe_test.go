package trace

import (
	"fmt"
	"testing"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/node"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

func TestTraceLinkIndex(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if i == j {
				continue
			}
			tr.Links = append(tr.Links, LinkTrace{From: i, To: j})
		}
	}
	// Every directed pair resolves to its own series (the regression the
	// index must preserve: same answers as the linear scan).
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			lt := tr.Link(i, j)
			if i == j {
				if lt != nil {
					t.Fatalf("self link (%d,%d) resolved", i, j)
				}
				continue
			}
			if lt == nil || lt.From != i || lt.To != j {
				t.Fatalf("Link(%d,%d) = %+v", i, j, lt)
			}
		}
	}
	if tr.Link(20, 0) != nil || tr.Link(-1, 3) != nil {
		t.Fatal("unknown link resolved")
	}
	// The returned pointer aliases the stored series.
	tr.Link(1, 2).Samples = append(tr.Link(1, 2).Samples, Sample{At: sim.Second, Sent: 1})
	if got := len(tr.Link(1, 2).Samples); got != 1 {
		t.Fatalf("mutation through Link lost: %d samples", got)
	}
	// Appending after the index was built must not serve stale answers.
	tr.Links = append(tr.Links, LinkTrace{From: 42, To: 7})
	if lt := tr.Link(42, 7); lt == nil || lt.From != 42 {
		t.Fatal("appended link not found after index build")
	}
}

// ctpTraceRun runs a CTP collection network over tp with a recorder of
// the given window attached before boot, and returns the finalized trace.
func ctpTraceRun(tp *topo.Topology, window, duration sim.Time) *Trace {
	env := node.NewEnv(tp, node.DefaultEnvConfig(21, -5))
	rec := NewRecorder(env, window, "ctp")
	wl := collect.DefaultWorkload()
	wl.Period = 2 * sim.Second
	node.Build(env, node.CTP(ctp.DefaultConfig(), core.DefaultConfig(), core.KindFourBit), wl)
	env.Clock.RunUntil(duration)
	return rec.Finalize()
}

// A beacon counts as sent and as received at the same instant, so no
// window can hold more receptions than transmissions, whatever the window
// width. Counting sends at transmission start instead would give PRR > 1
// on this run, where beacons straddle 7 s window boundaries.
func TestRecorderWindowsNeverReceiveMoreThanSent(t *testing.T) {
	tr := ctpTraceRun(topo.Grid(5, 5, 6), 7*sim.Second, 5*sim.Minute)
	if len(tr.Links) == 0 {
		t.Fatal("no links recorded")
	}
	for _, lt := range tr.Links {
		for _, s := range lt.Samples {
			if s.Rcvd > s.Sent {
				t.Fatalf("link %d->%d window ending %v: %d received of %d sent",
					lt.From, lt.To, s.At, s.Rcvd, s.Sent)
			}
		}
	}
}

// Finalize emits links in (From, To) order, so identical runs serialize
// to identical bytes.
func TestRecorderFinalizeSortsLinks(t *testing.T) {
	tr := ctpTraceRun(topo.Grid(3, 3, 8), 10*sim.Second, 2*sim.Minute)
	if len(tr.Links) < 8 {
		t.Fatalf("only %d links recorded", len(tr.Links))
	}
	for i := 1; i < len(tr.Links); i++ {
		a, b := tr.Links[i-1], tr.Links[i]
		if a.From > b.From || a.From == b.From && a.To >= b.To {
			t.Fatalf("links %d->%d and %d->%d out of order", a.From, a.To, b.From, b.To)
		}
	}
}

// The recorder refuses a sharded env, whose shards emit on separate buses
// concurrently.
func TestRecorderRefusesShardedEnv(t *testing.T) {
	cfg := node.DefaultEnvConfig(1, 0)
	cfg.Shards = 2
	env := node.NewEnv(topo.Grid(3, 3, 8), cfg)
	defer env.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("recorder attached to a sharded env")
		}
	}()
	NewRecorder(env, 10*sim.Second, "sharded")
}

// The recorder composes with other sinks on the same bus.
func TestRecorderProbeSharesBus(t *testing.T) {
	env := node.NewEnv(topo.Grid(3, 3, 8), node.DefaultEnvConfig(22, -5))
	recs := make([]*Recorder, 2)
	for i := range recs {
		recs[i] = NewRecorder(env, 10*sim.Second, fmt.Sprintf("r%d", i))
	}
	wl := collect.DefaultWorkload()
	wl.Period = 2 * sim.Second
	node.Build(env, node.CTP(ctp.DefaultConfig(), core.DefaultConfig(), core.KindFourBit), wl)
	env.Clock.RunUntil(30 * sim.Second)
	a, b := recs[0].Finalize(), recs[1].Finalize()
	if len(a.Links) == 0 || len(a.Links) != len(b.Links) {
		t.Fatalf("sibling recorders disagree: %d vs %d links", len(a.Links), len(b.Links))
	}
}
