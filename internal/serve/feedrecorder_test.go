package serve

import (
	"bytes"
	"io"
	"math"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// TestFeedRecorderReplayReproducesEstimator is the recorder's contract: a
// stream recorded from a live estimator and replayed through the wire
// decoder into a fresh estimator of the same kind/seed/config rebuilds the
// same table, bit for bit — the scenario-to-service bridge.
func TestFeedRecorderReplayReproducesEstimator(t *testing.T) {
	for _, kind := range core.EstimatorKinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := core.DefaultConfig()
			inner, err := core.NewKind(kind, 0, cfg, nil, sim.NewCountedRand(11))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rec := NewFeedRecorder(inner, &buf)

			// Drive the recorder with a deterministic mixed stream.
			script := sim.NewRand(0xFEED)
			now := sim.Time(0)
			seqs := map[packet.Addr]uint16{}
			var le packet.LEFrame
			for i := 0; i < 3000; i++ {
				now += sim.Time(script.Int63n(int64(sim.Second)))
				src := packet.Addr(1 + script.Intn(20))
				switch k := script.Intn(10); {
				case k < 6:
					seqs[src]++
					le = packet.LEFrame{Seq: seqs[src]}
					if script.Bernoulli(0.6) {
						le.Entries = []packet.LinkEntry{{Addr: 0, InQuality: uint8(script.Intn(256))}}
					}
					meta := core.RxMeta{White: script.Bernoulli(0.5), LQI: uint8(50 + script.Intn(60))}
					if script.Bernoulli(0.3) {
						meta.SNRdB = script.Normal(8, 3)
					}
					rec.OnBeacon(src, &le, meta, now)
				case k < 8:
					rec.TxResult(src, script.Bernoulli(0.7))
				case k < 9:
					rec.OnOverhear(src, core.RxMeta{LQI: uint8(40 + script.Intn(60))}, now)
				default:
					rec.Age(2*sim.Second, now)
				}
			}
			if err := rec.Err(); err != nil {
				t.Fatal(err)
			}

			// Replay through the JSONL wire decoder into a twin estimator.
			twin, err := core.NewKind(kind, 0, cfg, nil, sim.NewCountedRand(11))
			if err != nil {
				t.Fatal(err)
			}
			var dec wire.EventDecoder
			var ev wire.Event
			lines := 0
			for _, line := range bytes.Split(buf.Bytes(), []byte("\n")) {
				if len(line) == 0 {
					continue
				}
				lines++
				if err := dec.Decode(line, &ev); err != nil {
					t.Fatalf("line %d %q: %v", lines, line, err)
				}
				applyToEstimator(twin, &ev)
			}
			if lines != 3000 {
				t.Fatalf("recorded %d lines, want 3000", lines)
			}
			sameEstimator(t, "jsonl replay", inner, twin)

			// Third twin: convert the recorded feed to the binary batch
			// format (feedconv's path) and replay that — the converted
			// feed must reproduce the estimator bit for bit too.
			var bin bytes.Buffer
			n, err := wire.ConvertJSONLToBinary(&bin, bytes.NewReader(buf.Bytes()), 256)
			if err != nil {
				t.Fatalf("ConvertJSONLToBinary: %v", err)
			}
			if n != 3000 {
				t.Fatalf("converted %d events, want 3000", n)
			}
			binTwin, err := core.NewKind(kind, 0, cfg, nil, sim.NewCountedRand(11))
			if err != nil {
				t.Fatal(err)
			}
			fr := wire.NewFrameReader(&bin, 0, false)
			for {
				evs, err := fr.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("binary replay: %v", err)
				}
				for i := range evs {
					applyToEstimator(binTwin, &evs[i])
				}
			}
			sameEstimator(t, "binary replay", inner, binTwin)
		})
	}
}

// applyToEstimator drives one decoded wire event into est — the replay leg
// shared by both wire formats.
func applyToEstimator(est core.LinkEstimator, ev *wire.Event) {
	switch ev.Ev {
	case wire.EvBeacon:
		relay := packet.LEFrame{Seq: ev.Seq, Entries: ev.Links}
		est.OnBeacon(ev.Src, &relay, core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}, ev.At)
	case wire.EvTx:
		est.TxResult(ev.Src, ev.Acked)
	case wire.EvRx:
		est.OnOverhear(ev.Src, core.RxMeta{White: ev.White, LQI: ev.LQI, SNRdB: ev.SNR}, ev.At)
	case wire.EvAge:
		est.Age(ev.Silence, ev.At)
	}
}

// sameEstimator asserts two estimators are in bit-identical observable
// state: counters, per-address quality bits, neighbor order.
func sameEstimator(t *testing.T, leg string, a, b core.LinkEstimator) {
	t.Helper()
	if a.Counters() != b.Counters() {
		t.Fatalf("%s: counters differ:\n%+v\n%+v", leg, a.Counters(), b.Counters())
	}
	for addr := packet.Addr(0); addr < 24; addr++ {
		qa, oka := a.Quality(addr)
		qb, okb := b.Quality(addr)
		if oka != okb || math.Float64bits(qa) != math.Float64bits(qb) {
			t.Fatalf("%s: quality for %v differs: (%x,%v) vs (%x,%v)", leg, addr, qa, oka, qb, okb)
		}
	}
	na, nb := a.Neighbors(), b.Neighbors()
	if len(na) != len(nb) {
		t.Fatalf("%s: neighbors differ: %v vs %v", leg, na, nb)
	}
	for i := range na {
		if na[i] != nb[i] {
			t.Fatalf("%s: neighbor order differs: %v vs %v", leg, na, nb)
		}
	}
}

// TestFeedRecorderPassThrough: wrapping changes nothing the inner estimator
// computes (same rng draws, same results as an unwrapped twin).
func TestFeedRecorderPassThrough(t *testing.T) {
	cfg := core.DefaultConfig()
	plain := core.New(0, cfg, nil, sim.NewCountedRand(3))
	wrapped := NewFeedRecorder(core.New(0, cfg, nil, sim.NewCountedRand(3)), &bytes.Buffer{})

	var le packet.LEFrame
	for i := 1; i <= 500; i++ {
		src := packet.Addr(1 + i%15)
		le = packet.LEFrame{Seq: uint16(i), Entries: []packet.LinkEntry{{Addr: 0, InQuality: 200}}}
		meta := core.RxMeta{White: i%2 == 0, LQI: 90}
		now := sim.Time(i) * sim.Second
		plain.OnBeacon(src, &le, meta, now)
		le = packet.LEFrame{Seq: uint16(i), Entries: []packet.LinkEntry{{Addr: 0, InQuality: 200}}}
		wrapped.OnBeacon(src, &le, meta, now)
		plain.TxResult(src, i%3 != 0)
		wrapped.TxResult(src, i%3 != 0)
	}
	if plain.Counters() != wrapped.Counters() {
		t.Fatalf("counters diverged: %+v vs %+v", plain.Counters(), wrapped.Counters())
	}
	for addr := packet.Addr(0); addr < 16; addr++ {
		qa, oka := plain.Quality(addr)
		qb, okb := wrapped.Quality(addr)
		if oka != okb || math.Float64bits(qa) != math.Float64bits(qb) {
			t.Fatalf("quality for %v diverged", addr)
		}
	}
}
