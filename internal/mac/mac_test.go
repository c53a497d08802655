package mac

import (
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/phy"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
)

// rig is a small line network of MACs over a quiet channel.
type rig struct {
	clock *sim.Simulator
	med   *phy.Medium
	macs  []*MAC
}

func newRig(t *testing.T, n int, spacing float64, seed uint64) *rig {
	t.Helper()
	clock := sim.New(seed)
	p := phy.DefaultParams()
	p.ShadowSigmaDB, p.TxVarSigmaDB, p.FadeSigmaDB, p.NoiseDriftSigmaDB = 0, 0, 0, 0
	p.NoiseBurstAmpDB = 0
	p.PacketJitterSigmaDB = 0
	seeds := sim.NewSeedSpace(seed)
	ch := phy.PrecomputeGeo(topo.Line(n, spacing), p).NewChannel(seeds)
	med := phy.NewMedium(clock, ch, phy.DefaultRadioParams(), phy.DefaultLQIParams(), seeds)
	r := &rig{clock: clock, med: med}
	for i := 0; i < n; i++ {
		r.macs = append(r.macs, New(clock, med.Radio(i), packet.Addr(i), DefaultParams(), seeds.Stream("mac")))
	}
	return r
}

func TestUnicastDeliveredAndAcked(t *testing.T) {
	r := newRig(t, 2, 5, 1)
	var delivered *packet.Frame
	var deliveredInfo phy.RxInfo
	r.macs[1].OnReceive(func(f *packet.Frame, info phy.RxInfo) {
		delivered, deliveredInfo = f, info
	})
	var res *TxResult
	f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1, Payload: []byte("x")}
	r.clock.At(0, func() {
		if err := r.macs[0].Send(f, func(tr TxResult) { res = &tr }); err != nil {
			t.Fatal(err)
		}
	})
	r.clock.Run()
	if delivered == nil {
		t.Fatal("frame not delivered")
	}
	if delivered.Src != 0 || string(delivered.Payload) != "x" {
		t.Fatalf("bad delivery: %+v", delivered)
	}
	if !deliveredInfo.White {
		t.Error("white bit clear on a 5 m link")
	}
	if res == nil {
		t.Fatal("completion callback not invoked")
	}
	if !res.Sent || !res.Acked {
		t.Fatalf("result = %+v, want Sent+Acked", *res)
	}
	if r.macs[1].Stats.TxAcks != 1 {
		t.Fatalf("receiver sent %d acks, want 1", r.macs[1].Stats.TxAcks)
	}
	if r.macs[0].Stats.TxData != 1 {
		t.Fatalf("TxData = %d, want 1", r.macs[0].Stats.TxData)
	}
}

func TestUnicastToDeadNodeNotAcked(t *testing.T) {
	r := newRig(t, 2, 200, 2) // out of range
	var res *TxResult
	f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1, Payload: []byte("x")}
	r.clock.At(0, func() { r.macs[0].Send(f, func(tr TxResult) { res = &tr }) })
	r.clock.Run()
	if res == nil {
		t.Fatal("no completion")
	}
	if !res.Sent || res.Acked {
		t.Fatalf("result = %+v, want Sent, not Acked", *res)
	}
	if r.macs[0].Stats.AckTimeouts != 1 {
		t.Fatalf("AckTimeouts = %d, want 1", r.macs[0].Stats.AckTimeouts)
	}
}

func TestBroadcastNoAckAwaited(t *testing.T) {
	r := newRig(t, 3, 5, 3)
	got := 0
	for _, m := range r.macs[1:] {
		m.OnReceive(func(*packet.Frame, phy.RxInfo) { got++ })
	}
	var res *TxResult
	f := &packet.Frame{Type: packet.TypeBeacon, Src: 0, Dst: packet.Broadcast, Payload: []byte("b")}
	r.clock.At(0, func() { r.macs[0].Send(f, func(tr TxResult) { res = &tr }) })
	r.clock.Run()
	if got != 2 {
		t.Fatalf("broadcast reached %d nodes, want 2", got)
	}
	if res == nil || !res.Sent || res.Acked {
		t.Fatalf("result = %+v", res)
	}
	if r.macs[1].Stats.TxAcks+r.macs[2].Stats.TxAcks != 0 {
		t.Fatal("broadcast must not be acked")
	}
	if r.macs[0].Stats.TxBeacons != 1 {
		t.Fatalf("TxBeacons = %d, want 1", r.macs[0].Stats.TxBeacons)
	}
}

func TestSendWhileBusyReturnsErrBusy(t *testing.T) {
	r := newRig(t, 2, 5, 4)
	f1 := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}
	f2 := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}
	r.clock.At(0, func() {
		if err := r.macs[0].Send(f1, nil); err != nil {
			t.Fatal(err)
		}
		if err := r.macs[0].Send(f2, nil); err != ErrBusy {
			t.Fatalf("second Send: %v, want ErrBusy", err)
		}
	})
	r.clock.Run()
}

func TestCompletionAllowsImmediateNextSend(t *testing.T) {
	r := newRig(t, 2, 5, 5)
	sent := 0
	var send func()
	send = func() {
		f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}
		err := r.macs[0].Send(f, func(TxResult) {
			sent++
			if sent < 5 {
				send()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r.clock.At(0, send)
	r.clock.Run()
	if sent != 5 {
		t.Fatalf("chained sends completed %d, want 5", sent)
	}
}

func TestSequenceNumbersIncrement(t *testing.T) {
	r := newRig(t, 2, 5, 6)
	var seqs []uint8
	r.macs[1].OnReceive(func(f *packet.Frame, _ phy.RxInfo) { seqs = append(seqs, f.Seq) })
	for i := 0; i < 3; i++ {
		at := sim.Time(i) * 100 * sim.Millisecond
		r.clock.At(at, func() {
			r.macs[0].Send(&packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}, nil)
		})
	}
	r.clock.Run()
	if len(seqs) != 3 || seqs[0]+1 != seqs[1] || seqs[1]+1 != seqs[2] {
		t.Fatalf("seqs = %v, want consecutive", seqs)
	}
}

func TestUnicastNotDeliveredToThirdParty(t *testing.T) {
	r := newRig(t, 3, 5, 7)
	overheard := false
	r.macs[2].OnReceive(func(*packet.Frame, phy.RxInfo) { overheard = true })
	r.clock.At(0, func() {
		r.macs[0].Send(&packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}, nil)
	})
	r.clock.Run()
	if overheard {
		t.Fatal("MAC delivered unicast addressed to another node")
	}
}

func TestCSMADefersToOngoingTransmission(t *testing.T) {
	// Two nodes within carrier-sense range send at the same instant; CSMA
	// backoff must serialize them so the far receiver gets both.
	r := newRig(t, 3, 8, 8)
	got := 0
	r.macs[2].OnReceive(func(*packet.Frame, phy.RxInfo) { got++ })
	for trial := 0; trial < 50; trial++ {
		at := sim.Time(trial) * 50 * sim.Millisecond
		r.clock.At(at, func() {
			r.macs[0].Send(&packet.Frame{Type: packet.TypeData, AckRequest: false, Src: 0, Dst: 2, Payload: make([]byte, 50)}, nil)
			r.macs[1].Send(&packet.Frame{Type: packet.TypeData, AckRequest: false, Src: 1, Dst: 2, Payload: make([]byte, 50)}, nil)
		})
	}
	r.clock.Run()
	if got < 95 {
		t.Fatalf("CSMA delivered %d/100 under contention", got)
	}
}

func TestAckBitFrequencyTracksLinkPRR(t *testing.T) {
	// On a grey-region link the fraction of acked transmissions estimates
	// the round-trip delivery probability — the quantity the 4B unicast
	// stream consumes. Check it is intermediate and roughly PRR(fwd)*PRR(ack).
	r := newRig(t, 2, 55, 9)
	acked, total := 0, 0
	var send func()
	send = func() {
		f := &packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1, Payload: make([]byte, 20)}
		r.macs[0].Send(f, func(tr TxResult) {
			if tr.Sent {
				total++
				if tr.Acked {
					acked++
				}
			}
			if total < 400 {
				r.clock.After(5*sim.Millisecond, send)
			}
		})
	}
	r.clock.At(0, send)
	r.clock.Run()
	frac := float64(acked) / float64(total)
	if frac < 0.05 || frac > 0.95 {
		t.Fatalf("acked fraction = %.3f on grey link, want intermediate", frac)
	}
}

func TestStatsRxCounts(t *testing.T) {
	r := newRig(t, 2, 5, 10)
	r.clock.At(0, func() {
		r.macs[0].Send(&packet.Frame{Type: packet.TypeData, AckRequest: true, Src: 0, Dst: 1}, nil)
	})
	r.clock.At(sim.Second, func() {
		r.macs[0].Send(&packet.Frame{Type: packet.TypeBeacon, Src: 0, Dst: packet.Broadcast}, nil)
	})
	r.clock.Run()
	if r.macs[1].Stats.RxData != 1 || r.macs[1].Stats.RxBeacons != 1 {
		t.Fatalf("rx stats = %+v", r.macs[1].Stats)
	}
	if r.macs[0].Stats.RxAcks != 1 {
		t.Fatalf("sender RxAcks = %d, want 1", r.macs[0].Stats.RxAcks)
	}
}
