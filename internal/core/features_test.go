package core

import (
	"math"
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// The Figure 6 design space: each feature bit must change exactly its own
// behavior. These tests drive the four feature sets — BroadcastOnly,
// AckBit-only, WhiteCompare-only, FourBit — through one deterministic
// two-node script and pin the full behavioral delta matrix: the ack bit
// decides (a) whether beacon-window estimates are unidirectional or need
// the neighbor's reverse quality and (b) whether unicast outcomes move the
// estimate at all; the white/compare bit decides admission to a full
// table and nothing else.

// featureScript drives an estimator of the given features through the
// shared two-node script: two beacons from neighbor 7 (footer advertising
// reverse quality 204/255 = 0.8 for us), then five failed unicast
// transmissions.
func featureScript(t *testing.T, f Features) (est *Estimator, afterBeacons, afterFails float64) {
	t.Helper()
	est = newEst(f)
	footer := []packet.LinkEntry{{Addr: self, InQuality: 204}}
	for seq := uint16(1); seq <= 2; seq++ {
		le := &packet.LEFrame{Seq: seq, Entries: footer}
		if _, ok := est.OnBeacon(7, le, RxMeta{White: true}, 0); !ok {
			t.Fatal("OnBeacon rejected well-formed beacon")
		}
	}
	var ok bool
	afterBeacons, ok = est.Quality(7)
	if !ok {
		t.Fatal("no estimate after a full beacon window")
	}
	for i := 0; i < 5; i++ {
		est.TxResult(7, false)
	}
	afterFails, ok = est.Quality(7)
	if !ok {
		t.Fatal("estimate vanished")
	}
	return est, afterBeacons, afterFails
}

func TestFeatureBitBehavioralDeltas(t *testing.T) {
	// Expected values, worked by hand. Beacon window (kb=2, both received):
	// PRR EWMA = 1.0. With the ack bit the ETX sample is unidirectional,
	// 1/1.0 = 1; without it the reverse quality factors in, 1/(1.0*0.8) =
	// 1.25. Five straight unicast failures complete one ku=5 window with
	// sample = failsSince = 5, folding 0.9*1.0 + 0.1*5 = 1.4 — but only
	// when the ack bit exists.
	cases := []struct {
		name                     string
		features                 Features
		afterBeacons, afterFails float64
		unicastWindows           uint64
	}{
		{"4B", FourBit(), 1.0, 1.4, 1},
		{"AckBit-only", Features{AckBit: true}, 1.0, 1.4, 1},
		{"WhiteCompare-only", Features{WhiteCompare: true}, 1.25, 1.25, 0},
		{"BroadcastOnly", BroadcastOnly(), 1.25, 1.25, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			est, afterBeacons, afterFails := featureScript(t, c.features)
			if math.Abs(afterBeacons-c.afterBeacons) > 1e-12 {
				t.Errorf("after beacons: ETX = %.12f, want %.12f", afterBeacons, c.afterBeacons)
			}
			if math.Abs(afterFails-c.afterFails) > 1e-12 {
				t.Errorf("after failures: ETX = %.12f, want %.12f", afterFails, c.afterFails)
			}
			if est.Stats.UnicastWindows != c.unicastWindows {
				t.Errorf("UnicastWindows = %d, want %d", est.Stats.UnicastWindows, c.unicastWindows)
			}
		})
	}
}

// TestWhiteCompareBitGatesAdmission pins the other half of the matrix: with
// a full one-entry table and the lottery disabled, only the WhiteCompare
// variants admit a compare-qualified newcomer; the others must reject it
// without asking the compare bit. The ack bit plays no role in admission,
// but decides whether unicast failures move the incumbent's estimate. The
// beacon-only kinds honour neither bit, whatever cfg.Features says.
func TestWhiteCompareBitGatesAdmission(t *testing.T) {
	cases := []struct {
		name     string
		kind     EstimatorKind
		features Features
		admitted bool
		txMoves  bool // (rejected cases) failed unicasts move the incumbent's estimate
	}{
		{"4B", KindFourBit, FourBit(), true, false},
		{"WhiteCompare-only", KindFourBit, Features{WhiteCompare: true}, true, false},
		{"AckBit-only", KindFourBit, Features{AckBit: true}, false, true},
		{"BroadcastOnly", KindFourBit, BroadcastOnly(), false, false},
		{"wmewma", KindWMEWMA, FourBit(), false, false},
		{"pdr", KindPDR, FourBit(), false, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.TableSize = 1
			cfg.LotteryProb = 0 // isolate the compare path from the FREQUENCY lottery
			cfg.Features = c.features
			always := ComparerFunc(func(packet.Addr, []byte) bool { return true })
			est, err := NewKind(c.kind, self, cfg, always, sim.NewRand(1))
			if err != nil {
				t.Fatal(err)
			}
			est.SetComparer(always)
			// Fill the single slot with an incumbent that has an estimate.
			for seq := uint16(1); seq <= uint16(cfg.MAWindow); seq++ {
				kindBeacon(t, est, 7, seq, 255, 100)
			}
			before, ok := est.Quality(7)
			if !ok {
				t.Fatal("incumbent has no estimate")
			}
			kindBeacon(t, est, 8, 1, 255, 100) // newcomer, white, compare says yes
			gotEntry := est.Table().Find(8) != nil
			if gotEntry != c.admitted {
				t.Fatalf("newcomer admitted = %v, want %v", gotEntry, c.admitted)
			}
			st := est.Counters()
			if c.admitted {
				if st.Replaced != 1 || st.CompareAsked != 1 || st.CompareTrue != 1 {
					t.Errorf("stats = %+v, want one compare-gated replacement", st)
				}
				if est.Table().Find(7) != nil {
					t.Error("victim survived a one-entry replacement")
				}
				return
			}
			if st.RejectedFull != 1 || st.CompareAsked != 0 {
				t.Errorf("stats = %+v, want one silent rejection", st)
			}
			for i := 0; i < 2*cfg.UnicastWindow; i++ {
				est.TxResult(7, false)
			}
			after, _ := est.Quality(7)
			if moved := after != before; moved != c.txMoves {
				t.Errorf("failed unicasts moved the estimate = %v (%v -> %v), want %v", moved, before, after, c.txMoves)
			}
		})
	}
}
