package core

import (
	"math"
	"testing"
	"testing/quick"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

const self packet.Addr = 100

func newEst(features Features) *Estimator {
	cfg := DefaultConfig()
	cfg.Features = features
	return New(self, cfg, nil, sim.NewRand(1))
}

// beacon feeds a minimal LE beacon with the given sequence number.
func beacon(t *testing.T, est *Estimator, src packet.Addr, seq uint16, white bool) {
	t.Helper()
	le := &packet.LEFrame{Seq: seq}
	if _, ok := est.OnBeacon(src, le, RxMeta{White: white}, 0); !ok {
		t.Fatal("OnBeacon rejected well-formed beacon")
	}
}

func wantETX(t *testing.T, est *Estimator, addr packet.Addr, want float64) {
	t.Helper()
	got, ok := est.Quality(addr)
	if !ok {
		t.Fatalf("no estimate for %v, want %v", addr, want)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("ETX(%v) = %.12f, want %.12f", addr, got, want)
	}
}

// TestFigure5WorkedExample drives the hybrid estimator through a
// deterministic packet sequence and checks every intermediate value of the
// two windows and the outer EWMA, mirroring the structure of the paper's
// Figure 5 (ku=5, kb=2; EWMA weights 0.9).
func TestFigure5WorkedExample(t *testing.T) {
	est := newEst(FourBit())

	// Two beacons (seq 1,2): first beacon window = 2/2 received.
	// PRR EWMA initializes to 1.0; ETX sample 1/1.0 = 1.0 initializes the
	// hybrid estimate.
	beacon(t, est, 7, 1, true)
	if _, ok := est.Quality(7); ok {
		t.Fatal("estimate exists after a single beacon (window is kb=2)")
	}
	beacon(t, est, 7, 2, true)
	wantETX(t, est, 7, 1.0)

	// Beacons seq 3 then 6 (4 and 5 lost): window = 2 received, 2 missed.
	// PRR sample 0.5 -> EWMA 0.9*1.0 + 0.1*0.5 = 0.95.
	// ETX sample 1/0.95 = 1.0526...; hybrid = 0.9*1.0 + 0.1/0.95.
	beacon(t, est, 7, 3, true)
	beacon(t, est, 7, 6, true)
	wantETX(t, est, 7, 0.9+0.1/0.95)
	prev := 0.9 + 0.1/0.95

	// Unicast window: 4 of 5 acked -> sample ku/a = 5/4 = 1.25.
	for i := 0; i < 5; i++ {
		est.TxResult(7, i != 0) // one failure, four acks
	}
	want := 0.9*prev + 0.1*1.25
	wantETX(t, est, 7, want)
	prev = want

	// Five straight failures: a=0, estimate = failures since last success = 5.
	for i := 0; i < 5; i++ {
		est.TxResult(7, false)
	}
	want = 0.9*prev + 0.1*5
	wantETX(t, est, 7, want)
	prev = want

	// Five more failures: the failure run is now 10 — the sample grows.
	for i := 0; i < 5; i++ {
		est.TxResult(7, false)
	}
	want = 0.9*prev + 0.1*10
	wantETX(t, est, 7, want)
}

func TestBeaconSeqWraparound(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 65534, true)
	beacon(t, est, 7, 65535, true) // window 1: 2/2
	beacon(t, est, 7, 0, true)     // wraps; gap = 1
	beacon(t, est, 7, 1, true)     // window 2: 2/2
	wantETX(t, est, 7, 1.0)
	if est.Stats.BeaconWindows != 2 {
		t.Fatalf("BeaconWindows = %d, want 2", est.Stats.BeaconWindows)
	}
}

func TestBeaconDuplicateSeqIgnored(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 1, true)
	beacon(t, est, 7, 1, true) // duplicate must not complete the window
	if _, ok := est.Quality(7); ok {
		t.Fatal("duplicate beacon completed the window")
	}
	beacon(t, est, 7, 2, true)
	wantETX(t, est, 7, 1.0)
}

func TestHugeSeqGapReinitializesWindow(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 1, true)
	beacon(t, est, 7, 2, true) // window: PRR 1.0, ETX 1.0
	// Neighbor silent for 1000 beacons (or rebooted): instead of recording
	// 999 misses, the window restarts.
	beacon(t, est, 7, 1002, true)
	beacon(t, est, 7, 1003, true) // fresh window: 2/2
	wantETX(t, est, 7, 1.0)
	if est.Stats.BeaconWindows != 2 {
		t.Fatalf("BeaconWindows = %d, want 2", est.Stats.BeaconWindows)
	}
}

func TestBroadcastVariantNeedsFooter(t *testing.T) {
	est := newEst(BroadcastOnly())
	// Many perfect beacons but the neighbor never advertises our inbound
	// quality: the bidirectional estimator cannot produce an estimate.
	for i := 1; i <= 10; i++ {
		beacon(t, est, 7, uint16(i), true)
	}
	if _, ok := est.Quality(7); ok {
		t.Fatal("bidirectional estimate produced without reverse quality")
	}
	// Now the neighbor's footer reports it hears us at 0.8.
	le := &packet.LEFrame{Seq: 11, Entries: []packet.LinkEntry{{Addr: self, InQuality: 204}}}
	est.OnBeacon(7, le, RxMeta{}, 0)
	le2 := &packet.LEFrame{Seq: 12, Entries: []packet.LinkEntry{{Addr: self, InQuality: 204}}}
	est.OnBeacon(7, le2, RxMeta{}, 0)
	etx, ok := est.Quality(7)
	if !ok {
		t.Fatal("no estimate after reverse quality arrived")
	}
	want := 1 / (1.0 * (204.0 / 255.0))
	if math.Abs(etx-want) > 1e-9 {
		t.Fatalf("bidirectional ETX = %v, want %v", etx, want)
	}
}

func TestBroadcastVariantIgnoresAckBit(t *testing.T) {
	est := newEst(BroadcastOnly())
	beacon(t, est, 7, 1, true)
	for i := 0; i < 20; i++ {
		est.TxResult(7, false)
	}
	if est.Stats.UnicastWindows != 0 {
		t.Fatal("broadcast-only variant consumed ack bits")
	}
}

func TestUnicastStreamRequiresTableEntry(t *testing.T) {
	est := newEst(FourBit())
	for i := 0; i < 10; i++ {
		est.TxResult(55, true) // 55 was never heard from
	}
	if _, ok := est.Quality(55); ok {
		t.Fatal("estimate created for neighbor never in table")
	}
}

func TestFreeSlotInsertion(t *testing.T) {
	est := newEst(BroadcastOnly())
	for i := 1; i <= est.cfg.TableSize; i++ {
		beacon(t, est, packet.Addr(i), 1, false)
	}
	if est.Table().Len() != est.cfg.TableSize {
		t.Fatalf("table len %d, want %d", est.Table().Len(), est.cfg.TableSize)
	}
	if est.Stats.Inserted != uint64(est.cfg.TableSize) {
		t.Fatalf("Inserted = %d", est.Stats.Inserted)
	}
}

func TestFullTableWithoutWhiteCompareRejects(t *testing.T) {
	est := newEst(Features{AckBit: true}) // no WhiteCompare
	for i := 1; i <= est.cfg.TableSize; i++ {
		beacon(t, est, packet.Addr(i), 1, true)
	}
	beacon(t, est, 200, 1, true) // white, but feature disabled
	if est.Table().Find(200) != nil {
		t.Fatal("entry admitted to full table without white/compare")
	}
	if est.Stats.RejectedFull == 0 {
		t.Fatal("rejection not counted")
	}
}

func TestWhiteCompareReplacement(t *testing.T) {
	compared := 0
	cmp := ComparerFunc(func(src packet.Addr, _ []byte) bool {
		compared++
		return true
	})
	cfg := DefaultConfig()
	est := New(self, cfg, cmp, sim.NewRand(1))
	for i := 1; i <= cfg.TableSize; i++ {
		beacon(t, est, packet.Addr(i), 1, true)
	}
	// Non-white packet from an unknown node: compare must not be asked.
	beacon(t, est, 200, 1, false)
	if compared != 0 {
		t.Fatal("compare bit asked for a non-white packet")
	}
	if est.Table().Find(200) != nil {
		t.Fatal("non-white packet admitted to full table")
	}
	// White packet: compare asked, entry replaces a random unpinned one.
	beacon(t, est, 201, 1, true)
	if compared != 1 {
		t.Fatalf("compare asked %d times, want 1", compared)
	}
	if est.Table().Find(201) == nil {
		t.Fatal("white+compare packet not admitted")
	}
	if est.Table().Len() != cfg.TableSize {
		t.Fatal("table size changed across replacement")
	}
	if est.Stats.Replaced != 1 {
		t.Fatalf("Replaced = %d, want 1", est.Stats.Replaced)
	}
}

func TestWhiteCompareRespectsComparerVerdict(t *testing.T) {
	cmp := ComparerFunc(func(packet.Addr, []byte) bool { return false })
	cfg := DefaultConfig()
	est := New(self, cfg, cmp, sim.NewRand(1))
	for i := 1; i <= cfg.TableSize; i++ {
		beacon(t, est, packet.Addr(i), 1, true)
	}
	beacon(t, est, 201, 1, true)
	if est.Table().Find(201) != nil {
		t.Fatal("admitted although network layer said the route is not better")
	}
}

func TestAllPinnedBlocksReplacement(t *testing.T) {
	cmp := ComparerFunc(func(packet.Addr, []byte) bool { return true })
	cfg := DefaultConfig()
	est := New(self, cfg, cmp, sim.NewRand(1))
	for i := 1; i <= cfg.TableSize; i++ {
		beacon(t, est, packet.Addr(i), 1, true)
		est.Pin(packet.Addr(i))
	}
	beacon(t, est, 201, 1, true)
	if est.Table().Find(201) != nil {
		t.Fatal("replacement evicted a pinned entry")
	}
	for i := 1; i <= cfg.TableSize; i++ {
		if est.Table().Find(packet.Addr(i)) == nil {
			t.Fatalf("pinned entry %d missing", i)
		}
	}
}

func TestPinUnpinThroughEstimator(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 1, true)
	if !est.Pin(7) {
		t.Fatal("Pin failed")
	}
	if est.Pin(99) {
		t.Fatal("Pin of unknown neighbor succeeded")
	}
	if !est.Unpin(7) {
		t.Fatal("Unpin failed")
	}
}

func TestMakeBeaconSequenceAndFooter(t *testing.T) {
	est := newEst(FourBit())
	// Two neighbors with initialized inbound quality, one without.
	for seq := uint16(1); seq <= 2; seq++ {
		beacon(t, est, 1, seq, true)
		beacon(t, est, 2, seq, true)
	}
	beacon(t, est, 3, 1, true) // window not complete: no prr yet

	// MakeBeacon returns estimator-owned scratch, valid only until the next
	// call — snapshot what we need before asking for the second beacon.
	b1ptr := est.MakeBeacon([]byte{0xAA})
	b1 := *b1ptr
	b1.NetPayload = append([]byte(nil), b1ptr.NetPayload...)
	b1.Entries = append([]packet.LinkEntry(nil), b1ptr.Entries...)
	b2 := est.MakeBeacon(nil)
	if b2.Seq != b1.Seq+1 {
		t.Fatalf("beacon seqs %d,%d not consecutive", b1.Seq, b2.Seq)
	}
	if string(b1.NetPayload) != "\xAA" {
		t.Fatal("net payload not carried")
	}
	if len(b1.Entries) != 2 {
		t.Fatalf("footer has %d entries, want 2 (only initialized ones)", len(b1.Entries))
	}
	for _, e := range b1.Entries {
		if e.Addr == 3 {
			t.Fatal("uninitialized neighbor advertised in footer")
		}
		if e.InQuality != 255 {
			t.Fatalf("InQuality = %d, want 255 for perfect link", e.InQuality)
		}
	}
}

func TestMakeBeaconFooterRotates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.FooterEntries = 2
	est := New(self, cfg, nil, sim.NewRand(1))
	for i := 1; i <= 5; i++ {
		beacon(t, est, packet.Addr(i), 1, true)
		beacon(t, est, packet.Addr(i), 2, true)
	}
	seen := map[packet.Addr]bool{}
	for i := 0; i < 10; i++ {
		for _, e := range est.MakeBeacon(nil).Entries {
			seen[e.Addr] = true
		}
	}
	if len(seen) != 5 {
		t.Fatalf("rotation advertised %d distinct neighbors over 10 beacons, want all 5", len(seen))
	}
}

func TestAgePenalizesSilentNeighbors(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 1, true)
	beacon(t, est, 7, 2, true) // ETX 1.0, heard at t=0
	before, _ := est.Quality(7)
	// Silent for a long time: aging injects misses, completing windows
	// with PRR 0 samples that drag the estimate up.
	for i := 1; i <= 8; i++ {
		est.Age(30*sim.Second, sim.Time(i)*sim.Minute)
	}
	after, _ := est.Quality(7)
	if !(after > before) {
		t.Fatalf("ETX did not degrade for silent neighbor: %v -> %v", before, after)
	}
	if est.Stats.AgedMisses == 0 {
		t.Fatal("no aged misses recorded")
	}
}

func TestAgeSkipsFreshAndNeverHeard(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 7, 1, true)
	est.Age(30*sim.Second, 10*sim.Second) // within silence budget
	if est.Stats.AgedMisses != 0 {
		t.Fatal("aged a recently-heard neighbor")
	}
}

func TestNeighborsList(t *testing.T) {
	est := newEst(FourBit())
	beacon(t, est, 3, 1, true)
	beacon(t, est, 5, 1, true)
	got := est.Neighbors()
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Fatalf("Neighbors = %v", got)
	}
}

// Property: the hybrid estimate stays within [1, MaxETX] under arbitrary
// interleavings of beacon receptions, losses, acks and failures.
func TestPropertyETXBounds(t *testing.T) {
	f := func(ops []byte, seed uint64) bool {
		est := New(self, DefaultConfig(), nil, sim.NewRand(seed))
		seq := uint16(0)
		for _, op := range ops {
			switch op % 4 {
			case 0: // beacon received
				seq++
				est.OnBeacon(7, &packet.LEFrame{Seq: seq}, RxMeta{White: true}, 0)
			case 1: // beacons lost
				seq += uint16(op%7) + 1
			case 2:
				est.TxResult(7, true)
			case 3:
				est.TxResult(7, false)
			}
			if etx, ok := est.Quality(7); ok {
				if etx < 1 || etx > est.cfg.MaxETX || math.IsNaN(etx) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: estimates converge to ~1/PRR on a Bernoulli link driven only by
// beacons (unidirectional bootstrap).
func TestBeaconStreamConvergesToInversePRR(t *testing.T) {
	for _, prr := range []float64{0.9, 0.7, 0.5} {
		est := newEst(FourBit())
		rng := sim.NewRand(uint64(prr * 1000))
		seq := uint16(0)
		for i := 0; i < 4000; i++ {
			seq++
			if rng.Bernoulli(prr) {
				est.OnBeacon(7, &packet.LEFrame{Seq: seq}, RxMeta{}, 0)
			}
		}
		etx, ok := est.Quality(7)
		if !ok {
			t.Fatalf("no estimate at PRR %.1f", prr)
		}
		want := 1 / prr
		if math.Abs(etx-want) > 0.25*want {
			t.Errorf("PRR %.1f: ETX = %.2f, want ~%.2f", prr, etx, want)
		}
	}
}

// Property: with heavy data traffic, the unicast stream dominates and the
// estimate converges to ~1/p where p is the ack probability (§3.3: "when
// there is heavy data traffic, unicast estimates dominate").
func TestUnicastStreamConvergesToInverseAckRate(t *testing.T) {
	for _, p := range []float64{0.8, 0.5} {
		est := newEst(FourBit())
		beacon(t, est, 7, 1, true)
		beacon(t, est, 7, 2, true) // bootstrap at ETX 1
		rng := sim.NewRand(uint64(p * 997))
		for i := 0; i < 5000; i++ {
			est.TxResult(7, rng.Bernoulli(p))
		}
		etx, _ := est.Quality(7)
		want := 1 / p
		if math.Abs(etx-want) > 0.3*want {
			t.Errorf("ack rate %.1f: ETX = %.2f, want ~%.2f", p, etx, want)
		}
	}
}

// txToDetectDeath counts the failed unicast transmissions a 4B estimator
// with unicast window ku needs, after a perfect link dies completely, to
// push its estimate past ETX 5 (bad enough that any route would switch).
func txToDetectDeath(t *testing.T, ku int) int {
	t.Helper()
	cfg := DefaultConfig()
	cfg.UnicastWindow = ku
	est := New(self, cfg, nil, sim.NewRand(1))
	beacon(t, est, 7, 1, true)
	beacon(t, est, 7, 2, true)
	for tx := 1; tx <= 500; tx++ {
		est.TxResult(7, false)
		if etx, _ := est.Quality(7); etx > 5 {
			return tx
		}
	}
	t.Fatalf("ku=%d: estimator never noticed dead link", ku)
	return 0
}

func TestEstimatorAgilityAfterLinkDeath(t *testing.T) {
	// At the paper's ku=5 the hybrid estimator must notice within a
	// handful of windows.
	if tx := txToDetectDeath(t, DefaultConfig().UnicastWindow); tx > 40 {
		t.Errorf("needed %d failed transmissions to exceed ETX 5; too sluggish", tx)
	}
}

// TestUnicastWindowTradesAgility pins the tradeoff §3.3 settles at ku=5: a
// longer unicast window averages more samples per update but notices a
// dead link later, so detection cost rises strictly with ku (14, 20 and 30
// transmissions at ku = 2, 5 and 10).
func TestUnicastWindowTradesAgility(t *testing.T) {
	prev, prevKU := 0, 0
	for _, ku := range []int{2, 5, 10} {
		tx := txToDetectDeath(t, ku)
		if tx <= prev {
			t.Errorf("ku=%d detects a dead link in %d transmissions, ku=%d in %d; want strictly more",
				ku, tx, prevKU, prev)
		}
		t.Logf("ku=%d: %d transmissions", ku, tx)
		prev, prevKU = tx, ku
	}
}

func TestVariantNames(t *testing.T) {
	cases := map[string]Features{
		"4B":         FourBit(),
		"CTP+unidir": {AckBit: true},
		"CTP+white":  {WhiteCompare: true},
		"CTP":        BroadcastOnly(),
	}
	for want, f := range cases {
		if got := f.String(); got != want {
			t.Errorf("Features%+v.String() = %q, want %q", f, got, want)
		}
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero table size accepted")
		}
	}()
	New(self, Config{}, nil, sim.NewRand(1))
}
