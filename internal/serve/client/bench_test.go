package client_test

import (
	"testing"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/serve"
	"fourbit/internal/serve/client"
	"fourbit/internal/sim"
)

// BenchmarkServeHTTPIngest is the HTTP ingest rung of the layer ladder:
// one op is one 512-event binary flush through a Feed, over loopback,
// into the service's handler — encode, round trip, frame decode and queue
// admission. The queue holds 64 batches, so the instance's worker
// keeps up and no flush meets backpressure (retries/op reports it if one
// does). conns/op counts the connections the server accepted per op and
// must read 0: the feed keeps one keep-alive connection. allocs/op is
// mostly net/http's, so it carries no budget.
func BenchmarkServeHTTPIngest(b *testing.B) {
	const batch = 512
	ts, conns := connCounter(b, serve.NewServer(serve.Options{QueueDepth: 64 * batch}))
	c := oneConn()
	defer c.CloseIdleConnections()
	if err := client.CreateInstance(c, ts.URL, "b", core.KindFourBit, 1, 1, nil); err != nil {
		b.Fatal(err)
	}
	feed := client.New(ts.URL, "b", client.Options{BatchEvents: batch, HTTPClient: c, RetryCap: time.Millisecond})
	evs := testEvents(batch)
	span := evs[batch-1].At
	var shift sim.Time
	flush := func() {
		for i := range evs {
			ev := evs[i]
			ev.At += shift // keep the stream in time order across ops
			if err := feed.Send(&ev); err != nil {
				b.Fatal(err)
			}
		}
		shift += span
	}
	flush() // dial the connection and warm both sides: 1x runs are steady state
	open, retries := conns.Load(), feed.Stats().Retries
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flush()
	}
	b.StopTimer()
	b.ReportMetric(float64(conns.Load()-open)/float64(b.N), "conns/op")
	b.ReportMetric(float64(feed.Stats().Retries-retries)/float64(b.N), "retries/op")
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "events/sec")
}
