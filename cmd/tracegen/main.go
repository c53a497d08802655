// Command tracegen records per-link PRR/LQI traces from a simulated
// collection run and writes them as JSON — the input format of the
// trace-driven replay mode (see examples/tracereplay).
//
// Usage:
//
//	tracegen [-topo mirage|tutornet] [-proto 4b|lqi] [-seed N]
//	         [-minutes M] [-window S] [-o file]
package main

import (
	"flag"
	"fmt"
	"os"

	"fourbit/internal/collect"
	"fourbit/internal/core"
	"fourbit/internal/ctp"
	"fourbit/internal/lqirouter"
	"fourbit/internal/node"
	"fourbit/internal/sim"
	"fourbit/internal/topo"
	"fourbit/internal/trace"
)

func main() {
	topoName := flag.String("topo", "mirage", "mirage | tutornet")
	proto := flag.String("proto", "4b", "4b | lqi (traffic driving the trace)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	minutes := flag.Float64("minutes", 20, "simulated duration")
	window := flag.Float64("window", 60, "sampling window in seconds")
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	var tp *topo.Topology
	switch *topoName {
	case "mirage":
		tp = topo.Mirage(*seed)
	case "tutornet":
		tp = topo.TutorNet(*seed)
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown topo %q\n", *topoName)
		os.Exit(2)
	}

	win := sim.FromSeconds(*window)
	if win <= 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -window must be positive, got %gs\n", *window)
		os.Exit(2)
	}

	env := node.NewEnv(tp, node.DefaultEnvConfig(*seed, 0))
	rec := trace.NewRecorder(env, win, fmt.Sprintf("%s-%s", *topoName, *proto))
	switch *proto {
	case "4b":
		node.BuildCTP(env, ctp.DefaultConfig(), core.DefaultConfig(), collect.DefaultWorkload())
	case "lqi":
		node.BuildLQI(env, lqirouter.DefaultConfig(), collect.DefaultWorkload())
	default:
		fmt.Fprintf(os.Stderr, "tracegen: unknown proto %q\n", *proto)
		os.Exit(2)
	}
	env.Clock.RunUntil(sim.FromSeconds(*minutes * 60))
	tr := rec.Finalize()

	f := os.Stdout
	if *out != "" {
		var err error
		f, err = os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tracegen:", err)
			os.Exit(1)
		}
		defer f.Close()
	}
	if err := tr.WriteJSON(f); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "tracegen: %d links, window %gs, %s traffic on %s\n",
		len(tr.Links), *window, *proto, tp.Name)
}
