package experiment

import (
	"flag"
	"fmt"
	"testing"

	"fourbit/internal/node"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// The region-sharded event loop promises bit-identical results for ANY
// shard count. The differential matrices below certify it end to end on
// the city presets' conditions. Run economics: a sharded 2000-node run
// costs ~0.7 s of wall clock per simulated second on one core, so the
// exhaustive matrix (shards ∈ {1,2,4,8} × powers × dynamics × both city
// topologies, long runs) is an on-demand certification:
//
//	go test ./internal/experiment -run TestShardCountInvariance -shard-cert
//
// The default suite runs a trimmed but still end-to-end sub-matrix (full
// count axis at full power on the 2k corridor; count-axis endpoints for
// the other variants), and everything here skips under -race — the race
// detector's shard coverage is TestShardDispatchRace, sized for it.
var shardCert = flag.Bool("shard-cert", false, "run the exhaustive shard-count certification matrix")

// TestGoldenConfigsSelectSerialPath pins that every golden configuration
// resolves to the serial event loop: the goldens certify the serial
// reference trajectories byte-for-byte, so if the auto-sharding threshold
// ever captured one of them, the fingerprint comparison would silently
// start certifying the sharded trajectory instead.
func TestGoldenConfigsSelectSerialPath(t *testing.T) {
	for _, rc := range goldenConfigs() {
		if got := resolveShards(rc); got != 0 {
			t.Errorf("golden %s/%v resolves to %d shards; goldens must stay serial",
				rc.Topo.Name, rc.Protocol, got)
		}
	}
}

// cityShardRC builds the city-preset run conditions (urban path-loss
// exponent 4.0, compressed boot window — mirroring scenario.cityPreset)
// over tp with a forced shard count. pre shares the immutable channel
// precompute across the shard counts under comparison, which is both the
// production batch configuration and what keeps the differentials
// affordable.
func cityShardRC(tp *topo.Topology, pre *phy.ChannelPre, power float64, shards int, dur, warm sim.Time) RunConfig {
	rc := DefaultRunConfig(Proto4B, tp, 1)
	rc.TxPowerDBm = power
	rc.Duration = dur
	rc.Warmup = warm
	rc.SampleEvery = 10 * sim.Second
	rc.Workload.BootWindow = 10 * sim.Second
	env := EnvConfigFor(tp, rc.Seed, power)
	env.Phy.PathLossExponent = 4.0
	env.ChanPre = pre
	rc.Env = &env
	rc.Shards = shards
	return rc
}

// cityPre builds the shared channel precompute for cityShardRC configs.
func cityPre(tp *topo.Topology) *phy.ChannelPre {
	env := EnvConfigFor(tp, 1, 0)
	env.Phy.PathLossExponent = 4.0
	return phy.PrecomputeGeo(tp, env.Phy)
}

// fullCounts is the issue's certification set; trimmedCounts are its
// endpoints (1 exercises the single-shard sharded machinery, 8 the widest
// merge). Only Shards = -1 or a small-run auto selects the serial path —
// shards=1 is still the sharded world.
var (
	fullCounts    = []int{1, 2, 4, 8}
	trimmedCounts = []int{1, 8}
)

// assertShardInvariant runs build(shards) for every count and fails if
// any fingerprint differs from the first.
func assertShardInvariant(t *testing.T, counts []int, build func(shards int) RunConfig) {
	t.Helper()
	var want string
	for _, shards := range counts {
		rc := build(shards)
		fp := Fingerprint(rc, Run(rc))
		if want == "" {
			want = fp
			continue
		}
		if fp != want {
			t.Errorf("shards=%d fingerprint diverged from shards=%d", shards, counts[0])
		}
	}
}

func skipUnlessDifferential(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("city-scale differential; skipped in -short")
	}
	if raceEnabled {
		t.Skip("city-scale differential; skipped under -race (see TestShardDispatchRace)")
	}
}

// TestShardCountInvarianceCity2k certifies the tentpole determinism
// contract end to end on the 2000-node urban corridor: full protocol
// stack, sparse channel, region sharding — the complete run fingerprint
// (every float to its last mantissa bit, the counted event total
// included) must be identical across shard counts, at full and marginal
// power and under scripted mid-run dynamics.
func TestShardCountInvarianceCity2k(t *testing.T) {
	skipUnlessDifferential(t)
	tp := topo.Corridor(2000, 1500, 40, 1)
	pre := cityPre(tp)
	dur, warm := 20*sim.Second, 8*sim.Second
	if *shardCert {
		dur, warm = 40*sim.Second, 15*sim.Second
	}
	variants := []struct {
		name   string
		power  float64
		dyn    bool
		counts []int
	}{
		{"p0", 0, false, fullCounts},
		{"p-6", -6, false, trimmedCounts},
		{"dynamics", 0, true, trimmedCounts},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			counts := v.counts
			if *shardCert {
				counts = fullCounts
			}
			assertShardInvariant(t, counts, func(shards int) RunConfig {
				rc := cityShardRC(tp, pre, v.power, shards, dur, warm)
				if v.dyn {
					rc.EnvMutate = shardTestDynamics
				}
				return rc
			})
		})
	}
}

// TestShardCountInvarianceCity10k repeats the certification on the
// 10000-node multifloor block — the deployment whose scale motivates the
// sharded loop — with one short run per shard count over a shared channel
// precompute.
func TestShardCountInvarianceCity10k(t *testing.T) {
	skipUnlessDifferential(t)
	tp := topo.MultiFloor(10000, 8, 600, 300, 1)
	pre := cityPre(tp)
	counts, dur, warm := trimmedCounts, 10*sim.Second, 4*sim.Second
	if *shardCert {
		counts, dur, warm = fullCounts, 18*sim.Second, 6*sim.Second
	}
	assertShardInvariant(t, counts, func(shards int) RunConfig {
		return cityShardRC(tp, pre, 0, shards, dur, warm)
	})
}

// TestShardDispatchRace is a deliberately small sharded run for the race
// detector (CI's -race pass): enough shards for real
// cross-goroutine handoff and barrier-control dynamics, short enough that
// -race stays cheap.
func TestShardDispatchRace(t *testing.T) {
	tp := topo.Corridor(2000, 1500, 40, 1)
	rc := cityShardRC(tp, cityPre(tp), 0, 4, 8*sim.Second, 3*sim.Second)
	rc.EnvMutate = shardTestDynamics
	res := Run(rc)
	if res.Generated == 0 {
		t.Fatal("sharded race smoke generated no traffic")
	}
}

// shardTestDynamics is a scripted mid-run disturbance using only
// shard-safe machinery: radio mutations through barrier controls and
// per-receiver noise bursts (each Gilbert-Elliott process is sampled only
// by its receiver's shard). It mirrors what scenario dynamics compile to
// in sharded mode. Times sit inside even the shortest run above so every
// variant actually exercises them.
func shardTestDynamics(env *node.Env) {
	n := env.Topo.N()
	for i := 50; i < n; i += 97 {
		ge := phy.NewGilbertElliott(25, 3*sim.Second, 500*sim.Millisecond,
			env.Seeds.Stream(fmt.Sprintf("shardtest/noise/%d", i))).
			Window(3*sim.Second, 18*sim.Second)
		env.Chan.AddNoiseModifier(i, ge)
	}
	env.ScheduleControl(4*sim.Second, func() {
		for i := 7; i < n; i += 131 {
			if !env.IsRoot(i) {
				env.Medium.Radio(i).SetTxPower(-8)
			}
		}
	})
	env.ScheduleControl(5*sim.Second, func() {
		for i := 11; i < n; i += 211 {
			if !env.IsRoot(i) {
				env.Medium.Radio(i).SetDown(true)
			}
		}
	})
	env.ScheduleControl(7*sim.Second, func() {
		for i := 11; i < n; i += 211 {
			env.Medium.Radio(i).SetDown(false)
		}
	})
}
