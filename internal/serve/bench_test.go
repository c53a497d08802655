package serve

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"fourbit/internal/core"
	"fourbit/internal/packet"
	"fourbit/internal/serve/wire"
	"fourbit/internal/sim"
)

// benchLines builds a representative wire stream: mostly footered beacons,
// some tx/rx/age — the shape a scenario feed replays.
func benchLines(n int) [][]byte {
	r := sim.NewRand(0xBE7C)
	var now int64
	var seqs [32]uint16
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		now += 1 + r.Int63n(int64(sim.Second))
		src := 1 + r.Intn(18)
		var line string
		switch k := r.Intn(10); {
		case k < 6:
			seqs[src]++
			line = fmt.Sprintf(`{"ev":"beacon","at":%d,"src":%d,"seq":%d,"lqi":%d,"white":true,"links":[{"addr":0,"q":%d}]}`,
				now, src, seqs[src], 40+r.Intn(80), r.Intn(256))
		case k < 8:
			line = fmt.Sprintf(`{"ev":"tx","at":%d,"dest":%d,"acked":%v}`, now, src, r.Bernoulli(0.7))
		case k < 9:
			line = fmt.Sprintf(`{"ev":"rx","at":%d,"src":%d,"lqi":%d}`, now, src, 40+r.Intn(60))
		default:
			line = fmt.Sprintf(`{"ev":"age","at":%d,"silence":%d}`, now, 2*int64(sim.Second))
		}
		out = append(out, []byte(line))
	}
	return out
}

// benchFrame encodes the same stream benchLines yields as one binary frame,
// so the two ingest sub-benchmarks push identical event sequences.
func benchFrame(b *testing.B, lines [][]byte) []byte {
	b.Helper()
	var dec wire.EventDecoder
	evs := make([]wire.Event, len(lines))
	for i, line := range lines {
		if err := dec.Decode(line, &evs[i]); err != nil {
			b.Fatal(err)
		}
		evs[i].Links = append([]packet.LinkEntry(nil), evs[i].Links...)
	}
	frame, err := wire.AppendBatch(nil, evs)
	if err != nil {
		b.Fatal(err)
	}
	return frame
}

// BenchmarkServeDecodeEvent measures the per-line cost of the strict wire
// decoder — the hot edge of every JSONL ingest request. Budgeted in
// scripts/alloc_budget.txt: the fast path's scratch reuse must hold.
func BenchmarkServeDecodeEvent(b *testing.B) {
	lines := benchLines(1024)
	var dec wire.EventDecoder
	var ev wire.Event
	for _, line := range lines { // warm scratch: 1x runs measure steady state
		if err := dec.Decode(line, &ev); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dec.Decode(lines[i%len(lines)], &ev); err != nil {
			b.Fatal(err)
		}
	}
}

// benchInstances builds n warm estimator instances and registers cleanup.
func benchInstances(b *testing.B, n int) []*instance {
	b.Helper()
	ins := make([]*instance, n)
	for i := range ins {
		in, err := newInstance(fmt.Sprintf("bench-%d", i), core.KindFourBit, 0, core.DefaultConfig(),
			uint64(i), 1024, Backpressure)
		if err != nil {
			b.Fatal(err)
		}
		ins[i] = in
		b.Cleanup(func() { <-in.close() })
	}
	return ins
}

// BenchmarkServeIngest measures end-to-end ingest throughput past the HTTP
// edge for both wire formats: 8 concurrent instances, each decoding and
// applying a 512-event batch per op through its bounded queue and worker,
// barrier-synced. The jsonl leg decodes line by line and admits event by
// event; the binary leg decodes one frame and admits the batch in one ring
// transaction — the tentpole hot path. events/sec is the per-process
// ceiling; allocs/op is budgeted in scripts/alloc_budget.txt.
func BenchmarkServeIngest(b *testing.B) {
	const instances = 8
	const batch = 512
	lines := benchLines(batch)

	bench := func(b *testing.B, run func(in *instance, slot int)) {
		ins := benchInstances(b, instances)
		iter := func() {
			var wg sync.WaitGroup
			for i, in := range ins {
				i, in := i, in
				wg.Add(1)
				go func() {
					defer wg.Done()
					run(in, i)
					in.barrier(nil)
				}()
			}
			wg.Wait()
		}
		iter() // warm slot buffers and tables so 1x runs are steady-state
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			iter()
		}
		b.StopTimer()
		b.ReportMetric(float64(instances*batch*b.N)/b.Elapsed().Seconds(), "events/sec")
	}

	b.Run("jsonl", func(b *testing.B) {
		decs := make([]wire.EventDecoder, instances)
		bench(b, func(in *instance, slot int) {
			dec := &decs[slot]
			var ev wire.Event
			for _, line := range lines {
				if err := dec.Decode(line, &ev); err != nil {
					b.Error(err)
					return
				}
				for {
					err := in.enqueue(&ev)
					if err == nil {
						break
					}
					if err != ErrQueueFull {
						b.Error(err)
						return
					}
					in.barrier(nil) // wait out the worker, then retry
				}
			}
		})
	})

	b.Run("binary", func(b *testing.B) {
		frame := benchFrame(b, lines)
		frs := make([]*wire.FrameReader, instances)
		rds := make([]*bytes.Reader, instances)
		for i := range frs {
			frs[i] = wire.NewFrameReader(nil, 0, false)
			rds[i] = bytes.NewReader(nil)
		}
		bench(b, func(in *instance, slot int) {
			rd, fr := rds[slot], frs[slot]
			rd.Reset(frame)
			fr.Reset(rd)
			for {
				evs, err := fr.Next()
				if err == io.EOF {
					return
				}
				if err != nil {
					b.Error(err)
					return
				}
				for len(evs) > 0 {
					n, err := in.enqueueBatch(evs)
					evs = evs[n:]
					if err == nil {
						break
					}
					if err != ErrQueueFull {
						b.Error(err)
						return
					}
					in.barrier(nil) // wait out the worker, then retry
				}
			}
		})
	})
}
