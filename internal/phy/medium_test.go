package phy

import (
	"fmt"
	"strings"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// testbed builds a clock + medium over a line of n nodes at the given
// spacing with all randomness disabled except the reception draw.
func testbed(t *testing.T, n int, spacing float64, seed uint64) (*sim.Simulator, *Medium) {
	t.Helper()
	clock := sim.New(seed)
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	ch := lineChannel(n, spacing, p, seed)
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), sim.NewSeedSpace(seed))
	return clock, m
}

func TestAirtimeMatchesBitrate(t *testing.T) {
	_, m := testbed(t, 2, 5, 1)
	// (6 preamble + 34 payload) bytes * 8 bits / 250 kbit/s = 1.28 ms.
	if got := m.Airtime(34); got != 1280*sim.Microsecond {
		t.Fatalf("Airtime(34) = %v, want 1.28ms", got)
	}
}

func TestStrongLinkDelivers(t *testing.T) {
	clock, m := testbed(t, 2, 5, 1) // 5 m at 0 dBm: huge margin
	var got []RxInfo
	m.Radio(1).OnReceive(func(data []byte, info RxInfo) {
		if len(data) != 20 {
			t.Errorf("payload len %d, want 20", len(data))
		}
		got = append(got, info)
	})
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d/50 on a 5 m link", len(got))
	}
	for _, info := range got {
		if !info.White {
			t.Error("white bit clear on a very strong link")
		}
		if info.LQI < 105 {
			t.Errorf("LQI %d on a very strong link", info.LQI)
		}
		if info.SNRdB < 20 {
			t.Errorf("SNR %v dB, want > 20", info.SNRdB)
		}
	}
}

func TestOutOfRangeLinkDeliversNothing(t *testing.T) {
	clock, m := testbed(t, 2, 120, 2) // 120 m: below detection at 0 dBm
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	for i := 0; i < 50; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	}
	clock.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d frames on a 120 m link", delivered)
	}
}

func TestIntermediateLinkLossy(t *testing.T) {
	// Place the receiver in the grey region and verify PRR is intermediate.
	clock, m := testbed(t, 2, 55, 3)
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	n := 600
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 30)) })
	}
	clock.Run()
	prr := float64(delivered) / float64(n)
	if prr < 0.02 || prr > 0.98 {
		t.Fatalf("PRR at 26.5 m = %.3f, want intermediate (grey region)", prr)
	}
}

func TestHalfDuplexSenderDoesNotHearItself(t *testing.T) {
	clock, m := testbed(t, 2, 5, 4)
	heardSelf := false
	m.Radio(0).OnReceive(func([]byte, RxInfo) { heardSelf = true })
	clock.At(0, func() { m.Radio(0).Transmit(make([]byte, 20)) })
	clock.Run()
	if heardSelf {
		t.Fatal("sender received its own frame")
	}
}

func TestConcurrentSendersCollideAtMidpoint(t *testing.T) {
	// Nodes 0 and 2 transmit simultaneously; node 1 sits exactly between
	// them, so neither signal can capture: both frames must be lost.
	clock := sim.New(5)
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	ch := lineChannel(3, 10, p, 5)
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), sim.NewSeedSpace(5))
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	for i := 0; i < 100; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 30)) })
		clock.At(at, func() { m.Radio(2).Transmit(make([]byte, 30)) })
	}
	clock.Run()
	if delivered != 0 {
		t.Fatalf("delivered %d frames under symmetric collision, want 0", delivered)
	}
	if m.Stats.DroppedCollision == 0 {
		t.Fatal("no collision drops recorded")
	}
}

func TestCaptureStrongerSignalWins(t *testing.T) {
	// Node 1 is 5 m from node 0 but 35 m from node 2: node 2's signal is
	// acquirable but node 0's is ~25 dB stronger, far above the capture
	// margin, so node 0's frames should stomp node 2's and get through
	// even when node 2 transmits first.
	clock := sim.New(6)
	p := DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	ch := PrecomputeGeo(axisTopo(0, 5, 40), p).NewChannel(sim.NewSeedSpace(6))
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), sim.NewSeedSpace(6))
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	n := 100
	for i := 0; i < n; i++ {
		at := sim.Time(i) * 10 * sim.Millisecond
		// Weak interferer starts first, strong signal arrives mid-frame.
		clock.At(at, func() { m.Radio(2).Transmit(make([]byte, 30)) })
		clock.At(at+200*sim.Microsecond, func() { m.Radio(0).Transmit(make([]byte, 30)) })
	}
	clock.Run()
	if delivered < n*8/10 {
		t.Fatalf("capture delivered %d/%d, want most", delivered, n)
	}
	if m.Stats.CaptureSwitches == 0 {
		t.Fatal("no capture switches recorded")
	}
}

func TestChannelClearReflectsActivity(t *testing.T) {
	clock, m := testbed(t, 2, 5, 7)
	if !m.Radio(1).ChannelClear() {
		t.Fatal("idle channel reported busy")
	}
	clock.At(0, func() {
		m.Radio(0).Transmit(make([]byte, 60))
	})
	clock.At(100*sim.Microsecond, func() {
		if m.Radio(1).ChannelClear() {
			t.Error("channel clear while 5 m neighbor transmitting")
		}
		if m.Radio(0).ChannelClear() {
			t.Error("transmitting radio reported channel clear")
		}
	})
	clock.Run()
	if !m.Radio(1).ChannelClear() {
		t.Fatal("channel busy after all transmissions ended")
	}
}

func TestTurnaroundAbortsReception(t *testing.T) {
	clock, m := testbed(t, 2, 5, 8)
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	clock.At(0, func() { m.Radio(0).Transmit(make([]byte, 60)) })
	// Node 1 turns around to transmit mid-reception.
	clock.At(300*sim.Microsecond, func() { m.Radio(1).Transmit(make([]byte, 10)) })
	clock.Run()
	if delivered != 0 {
		t.Fatal("frame delivered despite receiver turning to transmit")
	}
	if m.Stats.DroppedTxWhileRx != 1 {
		t.Fatalf("DroppedTxWhileRx = %d, want 1", m.Stats.DroppedTxWhileRx)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	clock, m := testbed(t, 2, 5, 9)
	clock.At(0, func() {
		m.Radio(0).Transmit(make([]byte, 60))
		defer func() {
			if recover() == nil {
				t.Error("double Transmit did not panic")
			}
		}()
		m.Radio(0).Transmit(make([]byte, 10))
	})
	clock.Run()
}

func TestLowPowerShrinksRange(t *testing.T) {
	deliver := func(power float64) int {
		clock, m := testbed(t, 2, 30, uint64(10+int(power)))
		m.Radio(0).SetTxPower(power)
		count := 0
		m.Radio(1).OnReceive(func([]byte, RxInfo) { count++ })
		for i := 0; i < 200; i++ {
			at := sim.Time(i) * 10 * sim.Millisecond
			clock.At(at, func() { m.Radio(0).Transmit(make([]byte, 30)) })
		}
		clock.Run()
		return count
	}
	at0 := deliver(0)
	at20 := deliver(-20)
	if at0 < 190 {
		t.Fatalf("22 m link at 0 dBm delivered %d/200, want ~all", at0)
	}
	if at20 > 10 {
		t.Fatalf("22 m link at -20 dBm delivered %d/200, want ~none", at20)
	}
}

// TestRadioDownAbortsReception: powering the receiver off mid-frame loses
// the reception and counts it exactly once, in DroppedRadioDown alone.
func TestRadioDownAbortsReception(t *testing.T) {
	clock, m := testbed(t, 2, 5, 8)
	delivered := 0
	m.Radio(1).OnReceive(func([]byte, RxInfo) { delivered++ })
	clock.At(0, func() { m.Radio(0).Transmit(make([]byte, 60)) })
	clock.At(300*sim.Microsecond, func() { m.Radio(1).SetDown(true) })
	clock.Run()
	if delivered != 0 {
		t.Fatal("frame delivered to a radio powered off mid-reception")
	}
	if want := (MediumStats{Transmissions: 1, DroppedRadioDown: 1}); m.Stats != want {
		t.Fatalf("Stats = %+v, want %+v", m.Stats, want)
	}
}

// TestMediumStatsConsistency runs one 300-frame script through the shared
// receiver sweep on both dispatch paths: every frame counts as one
// transmission, and every delivered callback as one Delivered.
func TestMediumStatsConsistency(t *testing.T) {
	const frames = 300
	check := func(t *testing.T, m *Medium, at func(sim.Time, func()), run func()) {
		var rx [3]int // one counter per receiver: shards dispatch concurrently
		for i := 1; i < 3; i++ {
			i := i
			m.Radio(i).OnReceive(func([]byte, RxInfo) { rx[i]++ })
		}
		for i := 0; i < frames; i++ {
			at(sim.Time(i)*5*sim.Millisecond, func() { m.Radio(0).Transmit(make([]byte, 25)) })
		}
		run()
		if m.Stats.Transmissions != frames {
			t.Fatalf("Transmissions = %d, want %d", m.Stats.Transmissions, frames)
		}
		if got := uint64(rx[1] + rx[2]); got != m.Stats.Delivered || got == 0 {
			t.Fatalf("delivered callbacks %d != Stats.Delivered %d (or none)", got, m.Stats.Delivered)
		}
	}
	t.Run("serial", func(t *testing.T) {
		clock, m := testbed(t, 3, 18, 11)
		check(t, m, func(at sim.Time, fn func()) { clock.At(at, fn) }, clock.Run)
	})
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			clocks, shardOf, m, g := shardedTestbed(t, topo.Line(3, 18), shards, 11)
			defer g.Close()
			check(t, m, func(at sim.Time, fn func()) { clocks[shardOf[0]].At(at, fn) },
				func() { g.RunUntil(frames*5*sim.Millisecond + 10*sim.Millisecond) })
		})
	}
}

// TestAddressFilterMatchesPromiscuousMedium is the differential test of
// the overheard path. Two media are built from one seed with the channel
// randomness on (shadowing, fading, noise drift and bursts, per-packet
// jitter) and carry one script of unicast data, acks and broadcasts, dense
// enough to collide. One medium's radios carry addresses, so it resolves
// overheard frames through overhear; the other's are promiscuous, and
// their handler applies the MAC's address filter itself. Both must count
// the same MediumStats, hand every addressee the same frames with the same
// RxInfo, and leave every random stream at the same position — serially
// and sharded. The second script crowds four times the frames onto
// sparser, burst-ridden links, so overhear also meets heavy co-channel
// interference and low SINRs and falls back to the exact path through
// each of its fallbacks (TestOverhearBranches reaches the rarest ones
// directly).
func TestAddressFilterMatchesPromiscuousMedium(t *testing.T) {
	const n, seed = 12, 5
	type script struct {
		name     string   // subtest prefix; the default script has none
		spacing  float64  // metres between neighbours on the line
		frames   int      // sent over the first frames/3 ms of a 1 s run
		burstOff sim.Time // mean gap between noise bursts
	}
	run := func(t *testing.T, sc script, shards int, addressed bool) string {
		seeds := sim.NewSeedSpace(seed)
		p := DefaultParams()
		p.NoiseBurstMeanOff = sc.burstOff
		ch := PrecomputeGeo(topo.Line(n, sc.spacing), p).NewChannel(seeds)
		clocks := []*sim.Simulator{sim.New(seed)}
		m := NewMedium(clocks[0], ch, DefaultRadioParams(), DefaultLQIParams(), seeds)
		shardOf := make([]int32, n)
		var g *sim.ShardGroup
		if shards > 0 {
			clocks = make([]*sim.Simulator, shards)
			for i := range clocks {
				clocks[i] = sim.New(seed)
			}
			for i := range shardOf {
				shardOf[i] = int32(i * shards / n)
			}
			const epoch = 200 * sim.Microsecond
			m.EnableSharded(clocks, shardOf, epoch, seeds)
			g = sim.NewShardGroup(clocks, epoch, m.ShardExchange)
			defer g.Close()
		}
		logs := make([][]string, n) // per receiver: shards dispatch concurrently
		for i := 0; i < n; i++ {
			i := i
			if addressed {
				m.Radio(i).SetAddr(packet.Addr(i))
			}
			m.Radio(i).OnReceive(func(data []byte, info RxInfo) {
				if dst, ok := packet.FrameDst(data); !addressed && ok && dst != packet.Addr(i) && dst != packet.Broadcast {
					return
				}
				logs[i] = append(logs[i], fmt.Sprintf("%x %+v snr=%s", data, info, hexf(info.SNRdB)))
			})
		}
		// The script comes from its own stream, identical in both runs:
		// every node sends every ~4 ms, so airtimes overlap.
		script := sim.NewRand(seed)
		frames := sc.frames
		for k := 0; k < frames; k++ {
			src := script.Intn(n)
			f := packet.Frame{Type: packet.TypeData, Seq: uint8(k), Src: packet.Addr(src), Dst: packet.Broadcast,
				Payload: make([]byte, 5+script.Intn(30))}
			switch script.Intn(3) {
			case 0:
				f.Dst = packet.Addr((src + 1 + script.Intn(n-1)) % n)
			case 1:
				f.Type, f.Payload, f.Dst = packet.TypeAck, nil, packet.Addr((src+1+script.Intn(n-1))%n)
			}
			data, err := f.Encode()
			if err != nil {
				t.Fatal(err)
			}
			at := sim.Time(script.Int63n(int64(sim.Time(frames/n*4) * sim.Millisecond)))
			clocks[shardOf[src]].At(at, func() {
				if r := m.Radio(src); !r.Transmitting() {
					r.Transmit(data)
				}
			})
		}
		if g != nil {
			g.RunUntil(sim.Second)
		} else {
			clocks[0].RunUntil(sim.Second)
		}

		var b strings.Builder
		fmt.Fprintf(&b, "stats=%+v\n", m.Stats)
		names := []string{"phy/medium", "phy/noise", "phy/fade", "phy/static"}
		next := seeds.Stream
		if shards > 0 {
			names, next = nil, seeds.Light
			for i := 0; i < n; i++ {
				names = append(names, fmt.Sprintf("shard/medium/%d", i), fmt.Sprintf("shard/fade/%d", i), fmt.Sprintf("shard/noise/%d", i))
			}
		}
		for _, name := range names {
			fmt.Fprintf(&b, "%s next=%d\n", name, next(name).Int63())
		}
		delivered := 0
		for i, log := range logs {
			delivered += len(log)
			fmt.Fprintf(&b, "node %d:\n  %s\n", i, strings.Join(log, "\n  "))
		}
		if m.Stats.DroppedBER+m.Stats.DroppedCollision == 0 || m.Stats.Delivered <= uint64(delivered) || delivered == 0 {
			t.Errorf("degenerate script: stats %+v, %d addressed deliveries", m.Stats, delivered)
		}
		return b.String()
	}
	for _, sc := range []script{
		{spacing: 9, frames: 600, burstOff: DefaultParams().NoiseBurstMeanOff},
		{name: "crowded-lossy-bursty/", spacing: 14, frames: 2400, burstOff: 200 * sim.Millisecond},
	} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%sshards=%d", sc.name, shards), func(t *testing.T) {
				if got, want := run(t, sc, shards, true), run(t, sc, shards, false); got != want {
					t.Fatalf("addressed medium diverges from promiscuous one\naddressed:\n%s\npromiscuous:\n%s", got, want)
				}
			})
		}
	}
}

// BenchmarkMediumResolve is the medium's rung of the layer ladder: one op
// is one transmission on a Mirage-sized medium (85 nodes; a frame reaches
// most of them) from a rotating sender, cycling unicast data, a broadcast
// beacon and an ack. Every radio carries its address as the MAC sets it,
// so most receivers resolve the frame through overhear, as in a full run.
// The clock runs through each frame's end, so an op covers the arrive
// sweep, the resolve sweep and the addressees' upcalls. A warm-up round
// fills the frame pool, the timer wheel and the PRR-table cache; the
// steady state must not allocate. On a 2-CPU x86-64 VM (with FMA) it
// measured ~8.1 µs/op before overheard receptions resolved from certified
// bounds and ~7.6 µs/op after (medians of 3 alternating runs each).
func BenchmarkMediumResolve(b *testing.B) {
	const n = 85
	seeds := sim.NewSeedSpace(1)
	clock := sim.New(1)
	ch := PrecomputeGeo(topo.Mirage(1), DefaultParams()).NewChannel(seeds)
	m := NewMedium(clock, ch, DefaultRadioParams(), DefaultLQIParams(), seeds)
	upcalls := 0
	frames := make([][3][]byte, n) // per sender: data, beacon, ack
	for i := 0; i < n; i++ {
		m.Radio(i).SetAddr(packet.Addr(i))
		m.Radio(i).OnReceive(func([]byte, RxInfo) { upcalls++ })
		src, dst := packet.Addr(i), packet.Addr((i+1)%n)
		for k, f := range []packet.Frame{
			{Type: packet.TypeData, AckRequest: true, Src: src, Dst: dst, Payload: make([]byte, 28)},
			{Type: packet.TypeBeacon, Src: src, Dst: packet.Broadcast, Payload: make([]byte, 14)},
			{Type: packet.TypeAck, Src: src, Dst: dst},
		} {
			enc, err := f.Encode()
			if err != nil {
				b.Fatal(err)
			}
			frames[i][k] = enc
		}
	}
	send := func(k int) {
		src := k % n
		air := m.Radio(src).Transmit(frames[src][k%3])
		clock.RunUntil(clock.Now() + air + sim.Millisecond)
	}
	for k := 0; k < 3*n; k++ {
		send(k)
	}
	st0, up0 := m.Stats, upcalls
	b.ReportAllocs()
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		send(k)
	}
	b.StopTimer()
	tx := float64(m.Stats.Transmissions - st0.Transmissions)
	if m.Stats.Delivered == st0.Delivered || upcalls == up0 {
		b.Fatal("medium bench delivered nothing; medium degenerate")
	}
	b.ReportMetric(float64(m.Stats.Delivered-st0.Delivered)/tx, "rx/tx")
	b.ReportMetric(float64(upcalls-up0)/tx, "upcalls/tx")
}
