package core

import (
	"math"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// Worked examples for the competing estimator kinds, mirroring the style
// of TestFigure5WorkedExample: deterministic packet scripts with every
// intermediate value checked by hand.

// kindBeacon feeds one beacon with a reverse-quality footer through any
// LinkEstimator.
func kindBeacon(t *testing.T, est LinkEstimator, src packet.Addr, seq uint16, inQ uint8, lqi uint8) {
	t.Helper()
	le := &packet.LEFrame{Seq: seq, Entries: []packet.LinkEntry{{Addr: self, InQuality: inQ}}}
	if _, ok := est.OnBeacon(src, le, RxMeta{White: true, LQI: lqi}, 0); !ok {
		t.Fatal("OnBeacon rejected well-formed beacon")
	}
}

func wantKindETX(t *testing.T, est LinkEstimator, addr packet.Addr, want float64) {
	t.Helper()
	got, ok := est.Quality(addr)
	if !ok {
		t.Fatalf("no estimate for %v, want %v", addr, want)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ETX(%v) = %.12f, want %.12f", addr, got, want)
	}
}

func TestWMEWMAWorkedExample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MAWindow = 4
	est := newEstimator(KindWMEWMA, self, cfg, nil, sim.NewRand(1))

	// Window 1: beacons 1..4 all received, reverse quality 255 (1.0).
	// PRR EWMA initializes to 1.0; ETX = 1/(1.0*1.0) = 1.0.
	for seq := uint16(1); seq <= 3; seq++ {
		kindBeacon(t, est, 7, seq, 255, 100)
	}
	if _, ok := est.Quality(7); ok {
		t.Fatal("estimate exists before the window filled")
	}
	kindBeacon(t, est, 7, 4, 255, 100)
	wantKindETX(t, est, 7, 1.0)

	// Window 2: seq 5 and 8 received, 6 and 7 missed — sample 2/4 = 0.5.
	// PRR EWMA: 0.9*1.0 + 0.1*0.5 = 0.95. ETX sample 1/0.95; outer EWMA:
	// 0.9*1.0 + 0.1/0.95.
	kindBeacon(t, est, 7, 5, 255, 100)
	kindBeacon(t, est, 7, 8, 255, 100)
	wantKindETX(t, est, 7, 0.9+0.1/0.95)

	// Unicast failures must not move a beacon-only estimate.
	before, _ := est.Quality(7)
	for i := 0; i < 50; i++ {
		est.TxResult(7, false)
	}
	wantKindETX(t, est, 7, before)
	if est.Counters().UnicastWindows != 0 {
		t.Fatal("beacon-only estimator completed a unicast window")
	}
	if est.Counters().BeaconWindows != 2 {
		t.Fatalf("BeaconWindows = %d, want 2", est.Counters().BeaconWindows)
	}
}

func TestWMEWMANeedsReverseQuality(t *testing.T) {
	est := newEstimator(KindWMEWMA, self, DefaultConfig(), nil, sim.NewRand(1))
	// Beacons without our address in the footer: inbound PRR is known but
	// no bidirectional estimate can form.
	for seq := uint16(1); seq <= 10; seq++ {
		le := &packet.LEFrame{Seq: seq}
		est.OnBeacon(7, le, RxMeta{}, 0)
	}
	if _, ok := est.Quality(7); ok {
		t.Fatal("bidirectional estimate without reverse quality")
	}
}

func TestPDRWorkedExample(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MAWindow = 4
	est := newEstimator(KindPDR, self, cfg, nil, sim.NewRand(1))

	// Window 1: 4/4 received at reverse quality 1.0 → ETX exactly 1.
	for seq := uint16(1); seq <= 4; seq++ {
		kindBeacon(t, est, 7, seq, 255, 100)
	}
	wantKindETX(t, est, 7, 1.0)

	// Window 2: seq 5, 8 received (6, 7 missed) → sample 0.5. The SMA
	// family publishes the window mean verbatim: ETX = 1/0.5 = 2 — no
	// memory of the perfect window 1 (contrast WMEWMA's 0.9+0.1/0.95).
	kindBeacon(t, est, 7, 5, 255, 100)
	kindBeacon(t, est, 7, 8, 255, 100)
	wantKindETX(t, est, 7, 2.0)

	// Window 3: perfect again → snaps straight back to 1.
	for seq := uint16(9); seq <= 12; seq++ {
		kindBeacon(t, est, 7, seq, 255, 100)
	}
	wantKindETX(t, est, 7, 1.0)
}

func TestLQIWorkedExample(t *testing.T) {
	// DefaultConfig carries FooterEntries 8 and FourBit() features; the
	// lqi kind must honour neither.
	est := newEstimator(KindLQI, self, DefaultConfig(), nil, sim.NewRand(1))

	// First beacon at saturated LQI 110: mean 110 → cost AdjustLQI(110)
	// normalized to 1.0. The estimate exists immediately (no window).
	kindBeacon(t, est, 7, 1, 0, 110)
	wantKindETX(t, est, 7, 1.0)

	// A beacon at LQI 60: mean = 0.9*110 + 0.1*60 = 105 →
	// AdjustLQI(105)/AdjustLQI(110).
	kindBeacon(t, est, 7, 2, 0, 60)
	wantKindETX(t, est, 7, float64(AdjustLQI(105))/float64(AdjustLQI(110)))

	// The defining blindness: 100 failed unicasts change nothing.
	before, _ := est.Quality(7)
	for i := 0; i < 100; i++ {
		est.TxResult(7, false)
	}
	wantKindETX(t, est, 7, before)

	// But overheard frames do refine the moving average...
	est.OnOverhear(7, RxMeta{LQI: 110}, 0)
	after, _ := est.Quality(7)
	if after > before {
		t.Fatalf("high-LQI overhear worsened the estimate: %v -> %v", before, after)
	}
	// ...without admitting unknown senders into the table.
	est.OnOverhear(99, RxMeta{LQI: 110}, 0)
	if est.Table().Find(99) != nil {
		t.Fatal("overheard frame admitted an unknown sender")
	}

	// On a populated table — beacons with sequence gaps and a footer that
	// names us, acked and failed unicasts — the envelope still carries no
	// footer, its cursor stays put, and no entry keeps sequence, footer or
	// unicast state.
	for src := packet.Addr(8); src < 12; src++ {
		kindBeacon(t, est, src, 1, 200, 100)
		kindBeacon(t, est, src, 4, 200, 90)
		est.TxResult(src, true)
		est.TxResult(src, false)
	}
	for i := 0; i < 3; i++ {
		if le := est.MakeBeacon(nil); len(le.Entries) != 0 || le.Seq != uint16(i+1) {
			t.Fatalf("beacon %d: seq %d with %d footer entries, want seq %d and none", i, le.Seq, len(le.Entries), i+1)
		}
	}
	if est.footerIdx != 0 {
		t.Fatalf("footer cursor moved to %d", est.footerIdx)
	}
	for _, e := range est.Table().Entries() {
		if e.seqInit || e.lastSeq != 0 || e.rcvd != 0 || e.missed != 0 ||
			e.outValid || e.outQuality != 0 || e.uTotal != 0 || e.uAcked != 0 || e.failsSince != 0 {
			t.Fatalf("entry %v keeps beacon-window state: %+v", e.Addr, *e)
		}
	}
}

func TestLQIAgingDoublesCost(t *testing.T) {
	est := newEstimator(KindLQI, self, DefaultConfig(), nil, sim.NewRand(1))
	kindBeacon(t, est, 7, 1, 0, 110)
	wantKindETX(t, est, 7, 1.0)
	est.Age(sim.Second, 10*sim.Second) // silent well past the budget
	wantKindETX(t, est, 7, 2.0)
	// Doubling saturates at MaxETX.
	for i := 0; i < 20; i++ {
		est.Age(sim.Second, sim.Time(20+i*10)*sim.Second)
	}
	wantKindETX(t, est, 7, DefaultConfig().MaxETX)
}

func TestETXFromLQIMonotoneAndClamped(t *testing.T) {
	prev := math.Inf(1)
	for lqi := 0.0; lqi <= 120; lqi++ {
		etx := ETXFromLQI(lqi, 50)
		if etx > prev {
			t.Fatalf("ETXFromLQI not monotone at %v: %v > %v", lqi, etx, prev)
		}
		if etx < 1 || etx > 50 {
			t.Fatalf("ETXFromLQI(%v) = %v outside [1, 50]", lqi, etx)
		}
		prev = etx
	}
	if got := ETXFromLQI(110, 50); got != 1 {
		t.Fatalf("saturated LQI cost = %v, want 1", got)
	}
}

// TestAdjustLQIDelegation pins the cubic the MultiHopLQI router calls
// (core.AdjustLQI, with no router-side copy) at the TinyOS reference
// points; the router's own tests check its shape.
func TestAdjustLQIDelegation(t *testing.T) {
	cases := map[uint8]uint16{110: 125, 100: 420, 80: 1950}
	for lqi, want := range cases {
		if got := AdjustLQI(lqi); got != want {
			t.Errorf("AdjustLQI(%d) = %d, want %d", lqi, got, want)
		}
	}
}

// TestNoOpHooksConsumeNoRandomness pins the interface contract that
// ignored feedback hooks are strict no-ops: the estimator's rng stream
// must be untouched by them, or estimator comparisons would decorrelate
// through hooks the estimator does not even use.
func TestNoOpHooksConsumeNoRandomness(t *testing.T) {
	for _, kind := range EstimatorKinds() {
		rng := sim.NewRand(42)
		est, err := NewKind(kind, self, DefaultConfig(), nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Drive only hooks that are no-ops for at least one kind: none may
		// draw. (Admission paths draw by design; they are not exercised on
		// an empty table.)
		est.TxResult(7, false)
		est.OnOverhear(7, RxMeta{LQI: 100}, 0)
		est.Age(sim.Second, sim.Minute)
		probe := rng.Uint64()
		want := sim.NewRand(42).Uint64()
		if probe != want {
			t.Errorf("%s: hooks consumed randomness (stream advanced)", kind)
		}
	}
}

// Every kind must survive the malformed-beacon contract.
func TestKindsRejectNilBeacon(t *testing.T) {
	for _, kind := range EstimatorKinds() {
		est, err := NewKind(kind, self, DefaultConfig(), nil, sim.NewRand(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := est.OnBeacon(7, nil, RxMeta{}, 0); ok {
			t.Errorf("%s: nil beacon accepted", kind)
		}
	}
}
