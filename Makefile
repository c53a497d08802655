GO ?= go

.PHONY: all build test vet tier1 bench-smoke bench-guard docs lint golden fuzz-smoke fma-guard golden-nofma serve-soak clean

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# tier1 is the gate every PR must keep green.
tier1: build test

# docs checks that every package carries a doc comment for its godoc front
# page: `// Package <name>` for libraries (internal/* and the root),
# `// Command <name>` for cmd/*, and any leading doc comment for examples.
docs:
	@fail=0; \
	for d in internal/*/ .; do \
		grep -qs '^// Package ' $$d/*.go || { echo "missing '// Package' comment in $$d"; fail=1; }; \
	done; \
	for d in cmd/*/; do \
		grep -qs '^// Command ' $$d/*.go || { echo "missing '// Command' comment in $$d"; fail=1; }; \
	done; \
	for d in examples/*/; do \
		head -1 $$d/main.go | grep -qs '^//' || { echo "missing doc comment in $$d"; fail=1; }; \
	done; \
	[ $$fail -eq 0 ] && echo "package comments: OK" || exit 1

# lint is the static gate CI runs: formatting, vet, package comments.
lint: vet docs
	@test -z "$$(gofmt -l .)" || { echo "gofmt needed:"; gofmt -l .; exit 1; }

# golden regenerates the pinned goldens from the current model: the
# run-fingerprint goldens, the timeline-figure stdout and the estimator
# snapshot bytes. Only for
# deliberate, documented model changes — the goldens certify that
# performance kernels and refactors (like the estimator framework
# extraction and the probe bus) leave simulation trajectories
# bit-identical, so a regen that accompanies an "exact" rewrite is a red
# flag in review.
golden:
	$(GO) test ./internal/experiment -run TestGoldenRunFingerprints -update-goldens
	$(GO) test ./internal/scenario -run TestGoldenTimelineFigure -update-goldens
	$(GO) test ./internal/core -run TestSnapshotGoldens -update-snapshots

# fuzz-smoke runs each native fuzz target briefly against the saved seed
# corpus plus a few seconds of new inputs — a tripwire for decoder and
# parser regressions (panics, untyped errors, scratch aliasing, specs that
# do not survive a JSON round trip), for an overheard reception whose
# bound-only decision leaves the exact path and for a seed whose owned
# random source leaves math/rand's sequence — not a deep campaign. Longer runs:
# go test -fuzz FuzzDecodeEvent ./internal/serve/wire
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecodeFrame -fuzztime 5s ./internal/packet
	$(GO) test -run '^$$' -fuzz FuzzDecodeLEFrame -fuzztime 5s ./internal/packet
	$(GO) test -run '^$$' -fuzz FuzzDecodeEvent -fuzztime 5s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz FuzzDecodeWireBatch -fuzztime 5s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz FuzzRestoreSnapshot -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzCreateInstance -fuzztime 5s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzParseSpec -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzParseSweep -fuzztime 5s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzOverheardResolve -fuzztime 5s ./internal/phy
	$(GO) test -run '^$$' -fuzz FuzzStreamSeed -fuzztime 5s ./internal/sim

# fma-guard fails if the compiler fuses a multiply-add in the packages it
# lists. The Go spec lets arm64, ppc64le, s390x and riscv64 fuse x*y + z,
# which rounds once instead of twice, so a fused site can move the
# positions, path losses and draws the goldens pin; an explicit
# float64(...) around the product blocks fusion and is a no-op on amd64.
# -a defeats the build cache: a cached package prints no assembly, and the
# guard would pass vacuously.
FMA_PKGS = ./internal/topo ./internal/sim ./internal/phy ./internal/core ./internal/ctp ./internal/metrics ./internal/scenario ./internal/experiment
fma-guard:
	@out=$$(GOARCH=arm64 $(GO) build -a -gcflags=-S $(FMA_PKGS) 2>&1) || { echo "$$out" | tail -20; exit 1; }; \
	echo "$$out" | grep -q ' STEXT ' || { echo "fma-guard: no assembly printed"; exit 1; }; \
	if echo "$$out" | grep -E 'F(N)?M(ADD|SUB)[DS]'; then \
		echo "fma-guard: fused multiply-add above; round the product with float64(...)"; exit 1; \
	fi; \
	echo "fma-guard: no fused ops in $(FMA_PKGS) on arm64"

# golden-nofma re-runs the golden tests with the CPU's FMA unit switched off
# for the Go runtime: math.Exp on amd64 uses FMA only when the CPU has it,
# so a golden that depends on an exp rounded one way fails here. -count=1
# keeps a cached pass from standing in, as -a does for fma-guard.
golden-nofma:
	GODEBUG=cpu.fma=off $(GO) test -count=1 \
		-run '^(TestGoldenRunFingerprints|TestGoldenTimelineFigure|TestSnapshotGoldens)$$' \
		./internal/experiment ./internal/scenario ./internal/core

# serve-soak is the long-haul chaos run: 8 instances (2 per estimator
# kind) under sustained randomized ingest with concurrent queriers, one
# kill/snapshot/restore cycle in the middle, 60 s total, under -race.
# Nightly-tier — not part of tier1 or the per-PR CI gate.
serve-soak:
	$(GO) test -race -count=1 -run TestServeSoak ./internal/serve/chaostest \
		-soak -soak-duration 60s -timeout 10m -v

# bench-smoke is CI's per-PR bench pass: every benchmark once in short
# mode (skipInShort drops the multi-second cases), so a bench that no
# longer builds or runs fails here. Timings from one iteration are warmup,
# not a perf record — perfbench/ (BENCHMARK.json) is that.
bench-smoke:
	$(GO) test -short -run '^$$' -bench . -benchtime 1x -benchmem ./...

# bench-guard enforces the committed allocation budgets
# (scripts/alloc_budget.txt): CI fails when a budgeted benchmark's
# allocs/op regresses past its ceiling. ns/op is too machine-dependent to
# gate on; allocation counts are exact, so they make the durable ratchet.
bench-guard:
	./scripts/bench_guard.sh

clean:
	$(GO) clean ./...
