package phy

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// shardedTestbed builds one clock per shard and a medium in cross-shard
// handoff mode over tp, with block-contiguous node→shard assignment and
// all channel randomness except the reception draw disabled. Every shard
// count is fed from identically-seeded SeedSpaces, so trajectories are
// comparable bit-for-bit across counts.
func shardedTestbed(t *testing.T, tp *topo.Topology, shards int, seed uint64) ([]*sim.Simulator, []int32, *Medium, *sim.ShardGroup) {
	t.Helper()
	n := tp.N()
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	ch := PrecomputeGeo(tp, p).NewChannel(sim.NewSeedSpace(seed))
	clocks := make([]*sim.Simulator, shards)
	for i := range clocks {
		clocks[i] = sim.New(seed)
	}
	m := NewMedium(clocks[0], ch, DefaultRadioParams(), DefaultLQIParams(), sim.NewSeedSpace(seed))
	shardOf := make([]int32, n)
	for i := range shardOf {
		shardOf[i] = int32(i * shards / n)
	}
	const epoch = 200 * sim.Microsecond
	m.EnableSharded(clocks, shardOf, epoch, sim.NewSeedSpace(seed))
	g := sim.NewShardGroup(clocks, epoch, m.ShardExchange)
	return clocks, shardOf, m, g
}

// runShardScript drives a fixed send script over a 12-node line
// under the given shard count and returns a full textual trace: every
// delivery with its exact timing/LQI/SNR bit patterns, the medium stats,
// and the counted event total. The script deliberately mixes staggered
// sends, same-instant bursts from different regions (the merge-order
// stress), overlapping airtimes (collisions/capture), and a mid-run radio
// outage toggled at an epoch barrier while that radio is mid-reception.
func runShardScript(t *testing.T, shards int) string {
	t.Helper()
	const n = 12
	clocks, shardOf, m, g := shardedTestbed(t, topo.Line(n, 5), shards, 7)
	defer g.Close()

	logs := make([][]string, n)
	for i := 0; i < n; i++ {
		i := i
		m.Radio(i).OnReceive(func(data []byte, info RxInfo) {
			logs[i] = append(logs[i], fmt.Sprintf("at=%d from=%d lqi=%d white=%v snr=%s",
				clocks[shardOf[i]].Now(), data[0], info.LQI, info.White, hexf(info.SNRdB)))
		})
	}
	send := func(at sim.Time, id int) {
		data := make([]byte, 20)
		data[0] = byte(id)
		clocks[shardOf[id]].At(at, func() {
			if !m.Radio(id).Transmitting() && !m.Radio(id).Down() {
				m.Radio(id).Transmit(data)
			}
		})
	}
	for i := 0; i < n; i++ {
		send(sim.Millisecond+sim.Time(i)*500*sim.Microsecond, i) // staggered, overlapping airtimes
		send(20*sim.Millisecond, i)                              // the whole line at one instant
		send(40*sim.Millisecond+sim.Time(i%3)*sim.Millisecond, i)
	}
	send(29500*sim.Microsecond, 4) // still on the air at radio 5 when it goes down
	g.ScheduleControl(30*sim.Millisecond, func() { m.Radio(5).SetDown(true) })
	g.ScheduleControl(50*sim.Millisecond, func() { m.Radio(5).SetDown(false) })
	for i := 0; i < n; i += 2 {
		send(55*sim.Millisecond, i)
	}
	g.RunUntil(70 * sim.Millisecond)
	if m.Stats.DroppedRadioDown != 1 {
		t.Errorf("shards=%d: DroppedRadioDown = %d, want 1 (radio 5 goes down mid-reception)",
			shards, m.Stats.DroppedRadioDown)
	}

	var b strings.Builder
	fmt.Fprintf(&b, "stats=%+v events=%d\n", m.Stats, g.Events())
	for i, log := range logs {
		fmt.Fprintf(&b, "node %d:\n  %s\n", i, strings.Join(log, "\n  "))
	}
	return b.String()
}

// hexf formats a float's exact bit pattern (mirrors the experiment
// package's fingerprint formatting).
func hexf(v float64) string { return fmt.Sprintf("%x", v) }

// TestShardCountInvarianceMedium is the phy-layer half of the tentpole
// contract: the same script over the same seeds produces bit-identical
// deliveries, stats, and counted event totals for every shard count —
// including 1, whose single "shard" still runs the handoff machinery.
func TestShardCountInvarianceMedium(t *testing.T) {
	want := runShardScript(t, 1)
	for _, shards := range []int{2, 3, 4, 6} {
		if got := runShardScript(t, shards); got != want {
			t.Errorf("shards=%d trace diverged from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, want, shards, got)
		}
	}
}

// TestShardHandoffMergeOrder pins the canonical handoff order directly:
// two frames with the *same start instant* from different sources must
// apply at the receiver in ascending source id, for every shard count and
// regardless of the order the sends were scheduled in. Receiver 1 hears
// node 0 strongly (5 m) and node 2 weakly (25 m); if the strong frame
// applies first there is no capture switch, while the reversed order
// would lock onto the weak frame and then stomp it (CaptureSwitches > 0)
// — so the stat is a direct witness of the merge order.
func TestShardHandoffMergeOrder(t *testing.T) {
	for _, shards := range []int{1, 3} {
		clocks, shardOf, m, g := shardedTestbed(t, axisTopo(0, 5, 30), shards, 3)
		var got []string
		m.Radio(1).OnReceive(func(data []byte, info RxInfo) {
			got = append(got, fmt.Sprintf("from=%d", data[0]))
		})
		at := 1 * sim.Millisecond
		// Schedule the high-id sender first: with one shard both sends
		// share a wheel slot and would otherwise enter the outbox in
		// schedule order, so this exercises the exchange's same-start
		// repair, not just the cross-shard merge.
		for _, id := range []int{2, 0} {
			id := id
			data := make([]byte, 20)
			data[0] = byte(id)
			clocks[shardOf[id]].At(at, func() { m.Radio(id).Transmit(data) })
		}
		g.RunUntil(10 * sim.Millisecond)
		g.Close()
		if m.Stats.CaptureSwitches != 0 {
			t.Errorf("shards=%d: %d capture switches; the weak same-start frame applied before the strong one",
				shards, m.Stats.CaptureSwitches)
		}
		if len(got) != 1 || got[0] != "from=0" {
			t.Errorf("shards=%d: delivered %v, want exactly the strong frame from node 0", shards, got)
		}
	}
}

// TestMediumStatsAddCoversEveryField guards the barrier merge: a counter
// added to MediumStats but not to add would silently read zero in
// Medium.Stats on the sharded path.
func TestMediumStatsAddCoversEveryField(t *testing.T) {
	var one, sum MediumStats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	sum.add(&one)
	sum.add(&one)
	s := reflect.ValueOf(sum)
	for i := 0; i < s.NumField(); i++ {
		if got, want := s.Field(i).Uint(), 2*uint64(i+1); got != want {
			t.Errorf("MediumStats.add: %s = %d, want %d", s.Type().Field(i).Name, got, want)
		}
	}
}
