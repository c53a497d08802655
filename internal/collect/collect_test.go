package collect

import (
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/probe"
	"fourbit/internal/sim"
)

func TestReadingRoundTrip(t *testing.T) {
	b := EncodeReading(0xDEADBEEF, 12)
	if len(b) != 12 {
		t.Fatalf("payload len %d, want 12", len(b))
	}
	seq, err := DecodeReading(b)
	if err != nil || seq != 0xDEADBEEF {
		t.Fatalf("decode = (%x, %v)", seq, err)
	}
	if _, err := DecodeReading([]byte{1, 2}); err == nil {
		t.Fatal("short reading accepted")
	}
	if len(EncodeReading(1, 2)) != 4 {
		t.Fatal("undersized request not padded to the seq width")
	}
}

// generateSink tallies the bus's GenerateEvents by outcome.
type generateSink struct {
	probe.BaseSink
	accepted, refused int
}

func (s *generateSink) OnGenerate(e probe.GenerateEvent) {
	if e.Accepted {
		s.accepted++
	} else {
		s.refused++
	}
}

func TestSourceRateAndAccounting(t *testing.T) {
	clock := sim.New(1)
	gens := &generateSink{}
	probe.NewBus(clock).Attach(gens)
	ledger := NewLedger()
	wl := DefaultWorkload()
	var sent int
	src := NewSource(clock, 5, wl, sim.NewRand(2), func(data []byte) bool {
		if _, err := DecodeReading(data); err != nil {
			t.Fatal(err)
		}
		sent++
		return sent%4 != 0 // refuse every 4th
	}, ledger)
	src.Start(0)
	clock.RunUntil(10 * sim.Minute)
	// ~60 packets in 10 min at 1/10 s; jitter makes it 54-66.
	if sent < 50 || sent > 70 {
		t.Fatalf("sent %d packets in 10 min, want ~60", sent)
	}
	if gens.accepted+gens.refused != sent || gens.refused != sent/4 {
		t.Fatalf("bus saw %d accepted + %d refused, want %d with %d refused",
			gens.accepted, gens.refused, sent, sent/4)
	}
	if g := ledger.Generated(); g != uint64(sent) {
		t.Fatalf("ledger.Generated = %d, want %d", g, sent)
	}
}

func TestLedgerUniqueAndDuplicates(t *testing.T) {
	l := NewLedger()
	l.NoteGenerated(1, 1)
	l.NoteGenerated(1, 2)
	l.NoteGenerated(1, 3)
	l.NoteGenerated(2, 1)

	l.NoteDelivered(1, 1, 2)
	l.NoteDelivered(1, 1, 2) // duplicate
	l.NoteDelivered(1, 2, 3)
	l.NoteDelivered(2, 1, 1)

	if l.Unique() != 3 {
		t.Fatalf("Unique = %d, want 3", l.Unique())
	}
	if l.Duplicates() != 1 {
		t.Fatalf("Duplicates = %d, want 1", l.Duplicates())
	}
	if got := l.DeliveryRatio(1); got != 2.0/3.0 {
		t.Fatalf("DeliveryRatio(1) = %v, want 2/3", got)
	}
	if got := l.DeliveryRatio(2); got != 1 {
		t.Fatalf("DeliveryRatio(2) = %v, want 1", got)
	}
	if got := l.TotalDeliveryRatio(); got != 3.0/4.0 {
		t.Fatalf("TotalDeliveryRatio = %v, want 3/4", got)
	}
	if got := l.MeanHops(); got != (2+3+1)/3.0 {
		t.Fatalf("MeanHops = %v, want 2", got)
	}
	ratios := l.DeliveryRatios()
	if len(ratios) != 2 {
		t.Fatalf("DeliveryRatios has %d origins", len(ratios))
	}
}

func TestLedgerGeneratedTracksHighestSeq(t *testing.T) {
	l := NewLedger()
	// Out-of-order generation notes keep the max.
	l.NoteGenerated(packet.Addr(3), 5)
	l.NoteGenerated(packet.Addr(3), 2)
	if l.Generated() != 5 {
		t.Fatalf("Generated = %d, want 5", l.Generated())
	}
}

func TestLedgerEmptyOriginRatioIsOne(t *testing.T) {
	l := NewLedger()
	if l.DeliveryRatio(9) != 1 || l.TotalDeliveryRatio() != 1 {
		t.Fatal("empty ledger ratios should be 1")
	}
}
