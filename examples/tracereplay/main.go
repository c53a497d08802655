// Tracereplay: trace-driven simulation. Record the link dynamics of a live
// collection run (per-link PRR/LQI time series), save them as JSON, then
// re-impose the recorded behaviour of one link onto a fresh simulation — the
// workflow for reproducing a field failure in the lab.
//
// Run: go run ./examples/tracereplay
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"fourbit"
	"fourbit/internal/collect"
	"fourbit/internal/ctp"
	"fourbit/internal/node"
)

func main() {
	// Phase 1: record. A 4-node line with a scripted bursty middle link.
	tp := fourbit.Line(4, 30)
	env := node.NewEnv(tp, node.DefaultEnvConfig(3, 0))
	ge := fourbit.NewGilbertElliott(50, 4*fourbit.Second, 4*fourbit.Second, 5)
	env.Chan.SetModifierBoth(1, 2, ge)

	// One CTP router per node over the four-bit estimator; node.Build wires
	// every layer and starts the collection traffic.
	newRouter := node.CTP(ctp.DefaultConfig(), fourbit.DefaultEstimatorConfig(), fourbit.KindFourBit)
	rec := fourbit.NewTraceRecorder(env, 30*fourbit.Second, "line-capture")
	net := node.Build(env, newRouter, collect.DefaultWorkload())
	env.Clock.RunUntil(10 * fourbit.Minute)
	tr := rec.Finalize()

	fmt.Printf("recorded %d links over 10 min (delivery %.1f%%)\n",
		len(tr.Links), net.Ledger.TotalDeliveryRatio()*100)

	// Save to JSON, reload — the trace is a portable artifact.
	path := filepath.Join(os.TempDir(), "fourbit-trace.json")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if err := tr.WriteJSON(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("trace written to %s\n", path)

	lt := tr.Link(1, 2)
	if lt == nil {
		log.Fatal("link 1->2 not observed in the trace")
	}
	var sent, rcvd int
	for _, s := range lt.Samples {
		sent += s.Sent
		rcvd += s.Rcvd
	}
	fmt.Printf("link 1->2 as recorded: PRR %.2f over %d beacons\n",
		float64(rcvd)/float64(sent), sent)

	// Phase 2: replay the recorded link 1->2 onto a clean line.
	env2 := node.NewEnv(tp, node.DefaultEnvConfig(4, 0))
	rp, err := fourbit.NewTraceReplayer(lt, 30*fourbit.Second, 77)
	if err != nil {
		log.Fatal(err)
	}
	env2.Chan.SetModifier(1, 2, rp)

	rec2 := fourbit.NewTraceRecorder(env2, 30*fourbit.Second, "replay")
	node.Build(env2, newRouter, collect.DefaultWorkload())
	env2.Clock.RunUntil(10 * fourbit.Minute)
	tr2 := rec2.Finalize()

	if lt2 := tr2.Link(1, 2); lt2 != nil {
		var sent2, rcvd2 int
		for _, s := range lt2.Samples {
			sent2 += s.Sent
			rcvd2 += s.Rcvd
		}
		fmt.Printf("link 1->2 under replay:  PRR %.2f over %d beacons\n",
			float64(rcvd2)/float64(sent2), sent2)
	}
	fmt.Println("the replayed link reproduces the recorded loss process.")
}
