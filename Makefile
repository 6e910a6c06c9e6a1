GO ?= go

# Tier-1 gate: what CI and the roadmap require to stay green.
.PHONY: tier1
tier1:
	$(GO) build ./...
	$(GO) test ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# Formatting gate: fails, listing the files, when gofmt would change any
# Go file (bench/ included; dot-directories such as .bench_build/, where
# other targets export a parent tree, are not ours to format).
GOFMT ?= gofmt
.PHONY: fmt
fmt:
	@out=$$($(GOFMT) -l $$(find . -name '*.go' -not -path './.*')) || exit 1; \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

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
# control plane, metrics run against live tables), the aggregation maps
# (probes on four CPUs incrementing while a drainer resets), the root
# package's Session (the control plane's one assembly: dispatcher,
# cluster, agents, collectors) plus the cluster conformance corpus. tracedb runs on one P and on two, so a
# scan's producer and consumer goroutines run both interleaved and in
# parallel; metrics runs on one, two and four, so the latency join's
# workers share its partition pairs and buckets at each width. Tests run
# in shuffled order, so state one test leaves behind (a pooled VM, a
# package-level cache) cannot hide a bug in the next; a failure prints
# the -shuffle seed that replays its order.
.PHONY: race
race:
	$(GO) test -race -shuffle=on . ./internal/kernel ./internal/vnet ./internal/core ./internal/ebpf ./internal/script ./internal/control ./internal/conformance
	$(GO) test -race -shuffle=on -cpu 1,2 ./internal/tracedb
	$(GO) test -race -shuffle=on -cpu 1,2,4 ./internal/metrics

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
# plain `go test` runs; this explores beyond them. Minimising each new
# input is bounded at 100 execs: Go's default of 60 s per input let one
# new input stall a worker for the whole burst, its execs uncounted.
FUZZTIME ?= 5s
.PHONY: fuzz
fuzz:
	$(GO) test -run NONE -fuzz FuzzDecodeBatchFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/control
	$(GO) test -run NONE -fuzz FuzzTraceIDStrip -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/vnet
	$(GO) test -run NONE -fuzz FuzzVerifyProgram -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/ebpf
	$(GO) test -run NONE -fuzz FuzzSegmentDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzDecodeAggFrame -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/control
	$(GO) test -run NONE -fuzz FuzzWALDecode -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzIDFilter -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzPackAdopt -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/tracedb
	$(GO) test -run NONE -fuzz FuzzLatenciesOf -fuzztime $(FUZZTIME) -fuzzminimizetime 100x ./internal/metrics

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

# The latency join's own numbers: 1 M generated records a side through
# metrics.LatenciesOf and through the two-pass map join it replaced (its
# test oracle), then two spilled tables of ~1.6 M records each, the
# pipeline query's shape, with the scans that scatter both sides (scan-ms)
# reported apart from the partition pairs' join and sort (join-ms). The
# scatter's fan-out is chosen on the tables case: the generated source
# has no decode beside the scatter, so it hides what a wide fan-out
# costs. One iteration, so check only proves it still compiles and joins;
# raise -benchtime to measure.
.PHONY: bench-join
bench-join:
	$(GO) test -run NONE -bench BenchmarkLatenciesOf -benchtime 1x -benchmem ./internal/metrics

# The table scan's own number: ~300 spilled default-size extents through
# Table.ScanAligned, with an idle consumer and one that does ~20 ns a
# record. One iteration, as bench-join; raise -benchtime to measure.
.PHONY: bench-scan
bench-scan:
	$(GO) test -run NONE -bench BenchmarkTableScan -benchtime 1x -benchmem ./internal/tracedb

# The trace-ID lookup's own numbers: one default-size segment as a head,
# a resident extent and a spilled one (a hit and a filter false
# positive), then a table of ~300 spilled extents from 1024-record runs
# plus a head, looked up by seeded present IDs, reporting µs per lookup,
# the extents a lookup reads, and the pack files the store keeps open
# (the table's two, within the DB's handle budget, so no lookup opens a
# file; a hit verifies one block and decodes the one row it asks for).
# One iteration, as bench-join; raise -benchtime to measure.
.PHONY: bench-lookup
bench-lookup:
	$(GO) test -run NONE -bench BenchmarkTableLookup -benchtime 1x -benchmem .

# Recovery's own number: tracedb.Recover over a records-bulk-shaped
# crashed directory (two tables, about half the records adopted from
# packs and half replayed from the WAL), in ns per record and allocs per
# recovery. One iteration, as bench-join; raise -benchtime (and compare
# -cpu 1 with the default) to measure.
.PHONY: bench-recover
bench-recover:
	$(GO) test -run NONE -bench BenchmarkRecover -benchtime 1x -benchmem .

# The compiled eBPF engine's own numbers: the record script on a packet
# it matches and on one it filters out, the aggregation script (the
# aggregates-bulk probe program) on one flow, the same script over whole
# drain intervals (2 scripts x 256 flows x 4 CPUs, a drain per 4096
# firings; allocs/firing counts the map churn), and a flow map at
# capacity refusing a new flow and hitting a live one; then what a firing
# costs around the program: the ctx build (a UDP and a VXLAN firing) and
# a whole probe firing (unattached, a no-op handler, the record script
# through core.Machine). One iteration each, as bench-join; raise
# -benchtime to measure.
.PHONY: bench-ebpf
bench-ebpf:
	$(GO) test -run NONE -bench 'BenchmarkEBPFCompiled(RecordScript|AggScript|AggInterval|FilterMiss)$$|BenchmarkHashMapIncFull$$|BenchmarkBuildCtx$$|BenchmarkProbeFire$$' -benchtime 1x -benchmem .

# Everything here leaves `git status` clean: what it writes (cover.out,
# .bench_build/) is ignored.
.PHONY: check
check: tier1 fmt vet staticcheck race faults crash fuzz cover bench-build bench-join bench-scan bench-lookup bench-recover bench-ebpf

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
# check or tier-1: ~2 min). Exports PARENT under .bench_build/ and diffs
# the full `vntbench -quick` output (elapsed lines stripped), the 375
# seed-sweep digests, digests.golden and the stdout of every examples/
# program against the working tree.
.PHONY: nochange
nochange:
	@test -n "$(PARENT)" || { echo "usage: make nochange PARENT=<ref>"; exit 2; }
	bash scripts/nochange.sh "$(PARENT)"

# Non-test Go lines outside bench/: the number a CHANGES.md size line
# quotes. Not part of check — it measures, it cannot fail.
.PHONY: loc
loc:
	@bash scripts/loc.sh

# The record path's wire numbers at the records-bulk batch of 2048:
# encode (AppendBatchFrame, one copy of the records' bytes, plus
# wire-bytes/record), decode (DecodeBatchFrame viewing a section placed
# as the TCP server places it) and the agent flush (ring drain into the
# batch's record array, to a sink that keeps nothing), each in
# ns/record; then the collector's ingest at 128-record batches.
.PHONY: bench-wire
bench-wire:
	$(GO) test -run NONE -bench 'BenchmarkBatchWireEncoding|BenchmarkCollectorIngest' .

# Crash-recovery conformance: the kill -9 collector scenarios (recover
# mid-traffic from WAL + checkpoint; recovery racing the ring's agent
# re-homing; recovery re-provisioning agents that ship aggregates;
# recovery after an agent rebooted into a new sequence space; a re-homed
# agent's new home crashing before any checkpoint) swept
# across CONFORMANCE_SEEDS seeds under the race detector. The acceptance
# bar for the durable collector.
CRASH_SCENARIOS = collector-kill-recover|recover-vs-rehome|reprovision-drains-aggregates|recover-after-agent-reboot|rehome-then-successor-crash
.PHONY: crash
crash:
	CONFORMANCE_SEEDS=$(CONFORMANCE_SEEDS) $(GO) test -race -count=1 \
		-run 'TestScenarioCorpus/($(CRASH_SCENARIOS))|TestSeedSweep/($(CRASH_SCENARIOS))' \
		./internal/conformance
