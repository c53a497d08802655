package probe

import (
	"testing"

	"fourbit/internal/packet"
	"fourbit/internal/sim"
)

// recordSink captures every event for inspection.
type recordSink struct {
	tx       []TxEvent
	rx       []RxEvent
	beacons  []BeaconEvent
	parents  []ParentChangeEvent
	tables   []TableEvent
	gens     []GenerateEvent
	delivers []DeliverEvent
}

func (s *recordSink) OnTx(ev TxEvent)                     { s.tx = append(s.tx, ev) }
func (s *recordSink) OnRx(ev RxEvent)                     { s.rx = append(s.rx, ev) }
func (s *recordSink) OnBeacon(ev BeaconEvent)             { s.beacons = append(s.beacons, ev) }
func (s *recordSink) OnParentChange(ev ParentChangeEvent) { s.parents = append(s.parents, ev) }
func (s *recordSink) OnTable(ev TableEvent)               { s.tables = append(s.tables, ev) }
func (s *recordSink) OnGenerate(ev GenerateEvent)         { s.gens = append(s.gens, ev) }
func (s *recordSink) OnDeliver(ev DeliverEvent)           { s.delivers = append(s.delivers, ev) }

func TestNilBusEmitsAreSafe(t *testing.T) {
	var b *Bus
	if b.Active() {
		t.Fatal("nil bus reports active")
	}
	// Every emit on a nil bus must be a no-op, not a panic — layers emit
	// unconditionally.
	b.Tx(1, 2, true, true, 1)
	b.Rx(1, 2, packet.Broadcast, 100)
	b.Beacon(1, 10, false)
	b.ParentChange(1, 2, 3, 1.5)
	b.Table(1, 2, OpInsert)
	b.Generate(1, 1, true)
	b.Deliver(1, 1, 2)
}

func TestFromSim(t *testing.T) {
	clock := sim.New(1)
	if FromSim(clock) != nil {
		t.Fatal("fresh simulator carries a bus")
	}
	if FromSim(nil) != nil {
		t.Fatal("nil simulator carries a bus")
	}
	b := NewBus(clock)
	if FromSim(clock) != b {
		t.Fatal("NewBus did not install itself on the clock")
	}
}

func TestBusStampsAndFansOut(t *testing.T) {
	clock := sim.New(1)
	b := NewBus(clock)
	if b.Active() {
		t.Fatal("sinkless bus reports active")
	}
	s1, s2 := &recordSink{}, &recordSink{}
	b.Attach(s1)
	b.Attach(s2)
	if !b.Active() {
		t.Fatal("bus with sinks reports inactive")
	}

	clock.At(5*sim.Second, func() {
		b.Tx(3, 4, true, true, 2)
		b.Deliver(7, 9, 3)
	})
	clock.Run()

	for _, s := range []*recordSink{s1, s2} {
		if len(s.tx) != 1 || len(s.delivers) != 1 {
			t.Fatalf("fan-out: tx=%d delivers=%d, want 1/1", len(s.tx), len(s.delivers))
		}
		ev := s.tx[0]
		if ev.At != 5*sim.Second {
			t.Errorf("event not stamped with clock time: %v", ev.At)
		}
		if ev.Node != 3 || ev.Dest != 4 || !ev.Sent || !ev.Acked || ev.CCAAttempts != 2 {
			t.Errorf("tx event fields: %+v", ev)
		}
		if ev.Broadcast() {
			t.Error("unicast event claims broadcast")
		}
	}
}

func TestTableOpStrings(t *testing.T) {
	want := map[TableOp]string{OpInsert: "insert", OpReplace: "replace", OpEvict: "evict", OpReject: "reject", TableOp(99): "unknown"}
	for op, s := range want {
		if op.String() != s {
			t.Errorf("TableOp(%d).String() = %q, want %q", op, op.String(), s)
		}
	}
}
