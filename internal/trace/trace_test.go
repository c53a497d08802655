package trace

import (
	"bytes"
	"math"
	"testing"

	"fourbit/internal/mac"
	"fourbit/internal/node"
	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// beaconNet builds a 2-node env over a quiet channel with a MAC on each
// node, so frames reach the recorder as probe-bus events.
func beaconNet(seed uint64, spacing float64) (*node.Env, []*mac.MAC) {
	cfg := node.DefaultEnvConfig(seed, 0)
	p := &cfg.Phy
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	env := node.NewEnv(topo.Line(2, spacing), cfg)
	macs := make([]*mac.MAC, 2)
	for i := range macs {
		macs[i] = mac.New(env.Clock, env.Medium.Radio(i), packet.Addr(i), cfg.MAC, env.Seeds.Stream("mac"))
	}
	return env, macs
}

// sendLoop has m send a copy of f every period, skipping ticks while a
// previous send is still in flight.
func sendLoop(clock *sim.Simulator, m *mac.MAC, f packet.Frame, period sim.Time) {
	clock.Every(period, period, func() {
		if m.Busy() {
			return
		}
		fr := f
		if err := m.Send(&fr, nil); err != nil {
			panic(err)
		}
	})
}

// beacon is a broadcast frame of realistic beacon length from node 0.
var beacon = packet.Frame{Type: packet.TypeBeacon, Src: 0, Dst: packet.Broadcast, Payload: make([]byte, 30)}

func TestRecorderCapturesCleanLink(t *testing.T) {
	env, macs := beaconNet(1, 10)
	rec := NewRecorder(env, 10*sim.Second, "clean")
	sendLoop(env.Clock, macs[0], beacon, sim.Second)
	// Run past the minute boundary so the last beacon's reception (airtime
	// later) is dispatched before the trace is finalized.
	env.Clock.RunUntil(60*sim.Second + 600*sim.Millisecond)
	tr := rec.Finalize()

	lt := tr.Link(0, 1)
	if lt == nil {
		t.Fatal("link 0->1 not recorded")
	}
	if len(lt.Samples) < 5 {
		t.Fatalf("only %d samples", len(lt.Samples))
	}
	for _, s := range lt.Samples {
		if s.Sent == 0 {
			continue
		}
		if prr := s.PRR(); prr < 0.99 {
			t.Fatalf("clean 10 m link recorded PRR %.2f", prr)
		}
		if s.MeanLQI < 100 {
			t.Fatalf("clean link mean LQI %.1f", s.MeanLQI)
		}
	}
	if tr.Link(1, 0) != nil {
		t.Fatal("recorded a link with no traffic")
	}
}

func TestRecorderCapturesLossyLink(t *testing.T) {
	env, macs := beaconNet(2, 55) // grey region
	rec := NewRecorder(env, 10*sim.Second, "grey")
	sendLoop(env.Clock, macs[0], beacon, 200*sim.Millisecond)
	env.Clock.RunUntil(2 * sim.Minute)
	tr := rec.Finalize()
	lt := tr.Link(0, 1)
	if lt == nil {
		t.Fatal("link not recorded")
	}
	var sent, rcvd int
	for _, s := range lt.Samples {
		sent += s.Sent
		rcvd += s.Rcvd
	}
	prr := float64(rcvd) / float64(sent)
	if prr < 0.02 || prr > 0.98 {
		t.Fatalf("grey link overall PRR %.3f, want intermediate", prr)
	}
}

func TestRecorderCountsUnicastOut(t *testing.T) {
	env, macs := beaconNet(3, 10)
	rec := NewRecorder(env, 10*sim.Second, "unicast")
	data := packet.Frame{Type: packet.TypeData, Src: 0, Dst: 1, AckRequest: true}
	sendLoop(env.Clock, macs[0], data, sim.Second)
	env.Clock.RunUntil(30 * sim.Second)
	if macs[1].Stats.RxData == 0 {
		t.Fatal("no unicast traffic reached the receiver")
	}
	if tr := rec.Finalize(); len(tr.Links) != 0 {
		t.Fatal("unicast traffic leaked into the broadcast trace")
	}
}

func TestTraceJSONRoundTrip(t *testing.T) {
	in := &Trace{
		Name:   "x",
		Window: 10 * sim.Second,
		Links: []LinkTrace{{From: 1, To: 2, Samples: []Sample{
			{At: 10 * sim.Second, Sent: 5, Rcvd: 4, MeanLQI: 104.5},
		}}},
	}
	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || out.Window != in.Window || len(out.Links) != 1 {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if out.Links[0].Samples[0] != in.Links[0].Samples[0] {
		t.Fatal("sample mismatch")
	}
}

func TestReplayerImposesRecordedPRR(t *testing.T) {
	lt := &LinkTrace{From: 0, To: 1, Samples: []Sample{
		{At: 10 * sim.Second, Sent: 10, Rcvd: 10}, // clean window
		{At: 20 * sim.Second, Sent: 10, Rcvd: 3},  // bad window
	}}
	rp, err := NewReplayer(lt, 10*sim.Second, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	count := func(t0, t1 sim.Time) (lossy, total int) {
		for at := t0; at < t1; at += 10 * sim.Millisecond {
			total++
			if rp.ExtraLossDB(at) > 0 {
				lossy++
			}
		}
		return
	}
	lossyClean, totalClean := count(0, 10*sim.Second)
	if frac := float64(lossyClean) / float64(totalClean); frac > 0.02 {
		t.Fatalf("clean window lossy fraction %.3f", frac)
	}
	lossyBad, totalBad := count(10*sim.Second, 20*sim.Second)
	frac := float64(lossyBad) / float64(totalBad)
	if math.Abs(frac-0.7) > 0.06 {
		t.Fatalf("bad window lossy fraction %.3f, want ~0.7", frac)
	}
	// Past the last sample: the final window's PRR persists.
	lossyTail, totalTail := count(25*sim.Second, 30*sim.Second)
	if f := float64(lossyTail) / float64(totalTail); math.Abs(f-0.7) > 0.1 {
		t.Fatalf("tail lossy fraction %.3f, want ~0.7", f)
	}
}

func TestReplayerRejectsEmpty(t *testing.T) {
	if _, err := NewReplayer(&LinkTrace{}, sim.Second, sim.NewRand(1)); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := NewReplayer(nil, sim.Second, sim.NewRand(1)); err == nil {
		t.Fatal("nil trace accepted")
	}
}

func TestReplayerSilentWindowIsNotLoss(t *testing.T) {
	lt := &LinkTrace{Samples: []Sample{{At: 10 * sim.Second, Sent: 0, Rcvd: 0}}}
	rp, err := NewReplayer(lt, 10*sim.Second, sim.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	for at := sim.Time(0); at < 10*sim.Second; at += sim.Second {
		if rp.ExtraLossDB(at) != 0 {
			t.Fatal("silent window treated as lossy")
		}
	}
}

func TestRecorderReplayerEndToEnd(t *testing.T) {
	// Record a grey link, then replay it onto a clean link and verify the
	// replayed PRR matches the recording.
	env, macs := beaconNet(4, 55)
	rec := NewRecorder(env, 5*sim.Second, "e2e")
	sendLoop(env.Clock, macs[0], beacon, 100*sim.Millisecond)
	env.Clock.RunUntil(2 * sim.Minute)
	tr := rec.Finalize()
	lt := tr.Link(0, 1)
	var sent, rcvd int
	for _, s := range lt.Samples {
		sent += s.Sent
		rcvd += s.Rcvd
	}
	recordedPRR := float64(rcvd) / float64(sent)

	// Replay onto a 10 m (perfect) link: node 0 sends only the beacons the
	// replayer lets through.
	env2, macs2 := beaconNet(5, 10)
	rp, err := NewReplayer(lt, 5*sim.Second, sim.NewRand(9))
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	macs2[1].OnReceive(func(*packet.Frame, phy.RxInfo) { got++ })
	sentCount := 0
	env2.Clock.Every(sim.Second, 100*sim.Millisecond, func() {
		if macs2[0].Busy() {
			return
		}
		if rp.ExtraLossDB(env2.Clock.Now()) == 0 {
			fr := beacon
			if err := macs2[0].Send(&fr, nil); err != nil {
				panic(err)
			}
		}
		sentCount++
	})
	env2.Clock.RunUntil(2 * sim.Minute)
	replayPRR := float64(got) / float64(sentCount)
	if math.Abs(replayPRR-recordedPRR) > 0.12 {
		t.Fatalf("replayed PRR %.3f vs recorded %.3f", replayPRR, recordedPRR)
	}
}
