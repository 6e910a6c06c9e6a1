GO ?= go

# Tier-1 gate: what CI and the roadmap require to stay green.
.PHONY: tier1
tier1:
	$(GO) build ./...
	$(GO) test ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Deeper static analysis. staticcheck is fetched via `go run`, which
# needs either a warm module cache or network access; when neither is
# available (hermetic CI, offline dev) the target degrades to a skip
# message instead of failing the whole check pipeline. The probe runs
# `-version` first so real findings on the main invocation still fail.
STATICCHECK_VERSION ?= 2023.1.7
STATICCHECK = $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
.PHONY: staticcheck
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck unavailable (offline module cache?) -- skipped"; \
	fi

# Race-detector pass over the concurrent record path (probe registry
# fired while the agent attaches and detaches, per-CPU rings, store,
# control plane, metrics run against live tables) plus the cluster
# conformance corpus. tracedb runs on one P and on two, so a scan's
# producer and consumer goroutines run both interleaved and in parallel.
.PHONY: race
race:
	$(GO) test -race ./internal/kernel ./internal/vnet ./internal/core ./internal/control ./internal/metrics ./internal/conformance
	$(GO) test -race -cpu 1,2 ./internal/tracedb

# Fault-injection pass over delivery semantics: flaky collector, lost
# acknowledgements, connection kill before reply, collector restart, and
# spool eviction — all under the race detector.
.PHONY: faults
faults:
	$(GO) test -race -run 'TestFault' ./internal/control

# Deep conformance sweep: the full scenario corpus under the race
# detector plus a wide seed sweep of the fault-heavy scenarios. The
# 3-seed default rides in tier-1; this raises it.
CONFORMANCE_SEEDS ?= 25
.PHONY: conformance
conformance:
	CONFORMANCE_SEEDS=$(CONFORMANCE_SEEDS) $(GO) test -race -count=1 ./internal/conformance

# Native fuzz targets, one short burst each (Go runs one -fuzz target
# per invocation). The committed corpora under testdata/fuzz replay in
# plain `go test` runs; this explores beyond them.
FUZZTIME ?= 5s
.PHONY: fuzz
fuzz:
	$(GO) test -run NONE -fuzz FuzzDecodeBatchFrame -fuzztime $(FUZZTIME) ./internal/control
	$(GO) test -run NONE -fuzz FuzzTraceIDStrip -fuzztime $(FUZZTIME) ./internal/vnet
	$(GO) test -run NONE -fuzz FuzzVerifyProgram -fuzztime $(FUZZTIME) ./internal/ebpf
	$(GO) test -run NONE -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzDecodeAggFrame -fuzztime $(FUZZTIME) ./internal/control
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzLatenciesOf -fuzztime $(FUZZTIME) ./internal/metrics

# Coverage summary over the whole module.
.PHONY: cover
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

# bench/ is a module of its own (the pipeline benchmark BENCHMARK.json
# declares), so tier-1 never compiles it; this keeps it building and its
# tests passing against the packages it calls.
.PHONY: bench-build
bench-build:
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

# The latency join's own number, without the pipeline under it: 1 M
# records a side through metrics.LatenciesOf and through the two-pass map
# join it replaced (its test oracle). One iteration, so check only proves
# it still compiles and joins; raise -benchtime to measure.
.PHONY: bench-join
bench-join:
	$(GO) test -run NONE -bench BenchmarkLatenciesOf -benchtime 1x -benchmem ./internal/metrics

# The table scan's own number: ~300 spilled default-size extents through
# Table.ScanAligned, with an idle consumer and one that does ~20 ns a
# record. One iteration, as bench-join; raise -benchtime to measure.
.PHONY: bench-scan
bench-scan:
	$(GO) test -run NONE -bench BenchmarkTableScan -benchtime 1x -benchmem ./internal/tracedb

# Everything here leaves `git status` clean: what it writes (cover.out,
# .bench_build/) is ignored.
.PHONY: check
check: tier1 vet staticcheck race faults crash fuzz cover bench-build bench-join bench-scan

# Opt-in regression gate (not part of check: a 10-pair set takes ~35 min
# and needs an otherwise idle machine). Exports PARENT under
# .bench_build/, alternates parent/change runs of the pipeline benchmark
# per workload, prints median [q1..q3] and pairs won per end-to-end metric
# and fails when a change median is worse than the parent's by more than
# the metric's bound in BENCHMARK.json, or more operations fail. Run again
# after an interruption, it keeps the runs already made.
PAIRS ?= 10
.PHONY: bench-gate
bench-gate:
	@test -n "$(PARENT)" || { echo "usage: make bench-gate PARENT=<ref> [PAIRS=10]"; exit 2; }
	bash scripts/bench-gate.sh "$(PARENT)" $(PAIRS)

# Opt-in proof that a refactor changed nothing observable (not part of
# check or tier-1: ~1 min). Exports PARENT under .bench_build/ and diffs
# the full `vntbench -quick` output (elapsed lines stripped), the 300
# seed-sweep digests and digests.golden against the working tree.
.PHONY: nochange
nochange:
	@test -n "$(PARENT)" || { echo "usage: make nochange PARENT=<ref>"; exit 2; }
	bash scripts/nochange.sh "$(PARENT)"

# Non-test Go lines outside bench/: the number a CHANGES.md size line
# quotes. Not part of check — it measures, it cannot fail.
.PHONY: loc
loc:
	@bash scripts/loc.sh

.PHONY: bench-wire
bench-wire:
	$(GO) test -run NONE -bench 'BenchmarkBatchWireEncoding|BenchmarkCollectorIngest' .

# Crash-recovery conformance: the kill -9 collector scenarios (recover
# mid-traffic from WAL + checkpoint; recovery racing the ring's agent
# re-homing) swept across CONFORMANCE_SEEDS seeds under the race
# detector. The acceptance bar for the durable collector.
.PHONY: crash
crash:
	CONFORMANCE_SEEDS=$(CONFORMANCE_SEEDS) $(GO) test -race -count=1 \
		-run 'TestScenarioCorpus/(collector-kill-recover|recover-vs-rehome)|TestSeedSweep/(collector-kill-recover|recover-vs-rehome)' \
		./internal/conformance
