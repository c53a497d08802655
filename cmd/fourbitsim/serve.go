package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"fourbit/internal/core"
	"fourbit/internal/experiment"
	"fourbit/internal/packet"
	"fourbit/internal/scenario"
	"fourbit/internal/serve"
)

// runServe starts the estimation service: an HTTP/JSONL server hosting
// estimator instances (internal/serve). SIGTERM/SIGINT drains gracefully;
// with -snapshot-dir, state is restored from disk at startup and written
// back on shutdown, so a kill/restart cycle loses nothing.
func runServe(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8404", "listen address (host:port; port 0 picks a free port)")
	queueDepth := fs.Int("queue-depth", 1024, "per-instance ingest queue bound")
	overflow := fs.String("overflow", "backpressure", "full-queue policy: backpressure (429 + Retry-After) or drop-oldest")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline (ingest reads and query barrier waits)")
	idleEvict := fs.Duration("idle-evict", 0, "evict instances untouched for this long (0 = never)")
	maxInstances := fs.Int("max-instances", 4096, "concurrent instance bound")
	snapDir := fs.String("snapshot-dir", "", "restore instance snapshots (*.json) from this directory at startup and write them back on shutdown")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	policy, err := serve.ParseOverflowPolicy(*overflow)
	if err != nil {
		fatal(err)
	}
	srv := serve.NewServer(serve.Options{
		QueueDepth:     *queueDepth,
		Policy:         policy,
		RequestTimeout: *reqTimeout,
		IdleEvict:      *idleEvict,
		MaxInstances:   *maxInstances,
	})
	if *snapDir != "" {
		n, err := restoreSnapshotDir(srv, *snapDir)
		if err != nil {
			fatal(err)
		}
		if n > 0 {
			fmt.Printf("restored %d instance(s) from %s\n", n, *snapDir)
		}
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	fmt.Printf("fourbitsim serve listening on http://%s\n", ln.Addr())

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		fatal(err)
	case sig := <-sigCh:
		fmt.Printf("%v: draining\n", sig)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Refuse new work, snapshot consistent state, then flush and stop.
	srv.StopIngest()
	if *snapDir != "" {
		n, err := writeSnapshotDir(srv, ctx, *snapDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "snapshot on shutdown:", err)
		} else {
			fmt.Printf("snapshotted %d instance(s) to %s\n", n, *snapDir)
		}
	}
	if err := srv.Drain(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		fatal(err)
	}
}

// restoreSnapshotDir loads every *.json instance snapshot in dir.
func restoreSnapshotDir(srv *serve.Server, dir string) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return 0, err
	}
	n := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return n, err
		}
		snap, err := serve.DecodeSnapshot(f)
		f.Close()
		if err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		if err := srv.RestoreSnapshot(snap); err != nil {
			return n, fmt.Errorf("%s: %w", path, err)
		}
		n++
	}
	return n, nil
}

// writeSnapshotDir serializes every instance to dir/<name>.json.
func writeSnapshotDir(srv *serve.Server, ctx context.Context, dir string) (int, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	snaps, err := srv.SnapshotAll(ctx)
	if err != nil {
		return 0, err
	}
	for _, snap := range snaps {
		data, err := json.Marshal(snap)
		if err != nil {
			return 0, err
		}
		if err := os.WriteFile(filepath.Join(dir, snap.Name+".json"), data, 0o644); err != nil {
			return 0, err
		}
	}
	return len(snaps), nil
}

// runScenarioWithFeed executes a scenario as a single run, wrapping every
// node's estimator in a serve.FeedRecorder that writes node-<addr>.jsonl
// into dir — the files replay directly into `fourbitsim serve` instance
// event streams (see docs/SCENARIOS.md, "Replaying a scenario into a live
// server"). Recording is a pass-through tap: the run's results are
// bit-identical to the unrecorded scenario.
func runScenarioWithFeed(spec *scenario.Spec, dir string) (*experiment.Replicated, error) {
	if spec.Replicates > 1 {
		fmt.Fprintf(os.Stderr, "note: -estfeed-dir records a single run; ignoring Replicates=%d\n", spec.Replicates)
		spec.Replicates = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rc, err := spec.RunConfig()
	if err != nil {
		return nil, err
	}
	var files []*os.File
	var bufs []*bufio.Writer
	var recs []*serve.FeedRecorder
	defer func() {
		for _, f := range files {
			f.Close()
		}
	}()
	rc.WrapEstimator = func(addr packet.Addr, est core.LinkEstimator) core.LinkEstimator {
		f, err := os.Create(filepath.Join(dir, fmt.Sprintf("node-%d.jsonl", addr)))
		if err != nil {
			fatal(err)
		}
		b := bufio.NewWriterSize(f, 1<<16)
		r := serve.NewFeedRecorder(est, b)
		files, bufs, recs = append(files, f), append(bufs, b), append(recs, r)
		return r
	}
	res := experiment.Run(rc)
	for i, r := range recs {
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("estimator feed %d: %w", i, err)
		}
	}
	for _, b := range bufs {
		if err := b.Flush(); err != nil {
			return nil, err
		}
	}
	for _, f := range files {
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	files = nil
	fmt.Printf("wrote %d estimator feed(s) to %s\n", len(recs), dir)
	return experiment.Aggregate(rc.Protocol, rc.TxPowerDBm, []uint64{rc.Seed}, []*experiment.Result{res}), nil
}
