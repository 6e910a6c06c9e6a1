package main

import (
	"fmt"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/vnet"
)

// ingestSlices is how many equal-count slices the ingest phase is cut
// into; every ingest metric is the median slice.
const ingestSlices = 40

// referenceSeconds is the --seconds value the frozen sizes below are
// stated for (BENCHMARK.json's run_seconds). Another value scales the
// firing total in proportion; nothing else changes.
const referenceSeconds = 20

type siteSpec struct {
	site string
	tpid uint32
	name string
}

// workload is the frozen shape of one benchmark workload. Work is fixed
// by count: the firing total, round size and checkpoint positions decide
// every segment boundary, WAL tail and count metric, so they are the same
// on every run and under every seed.
type workload struct {
	name string
	why  string

	sites        []siteSpec
	actions      []script.Action
	aggregates   bool // scripts aggregate in-probe and ship v5 frames
	flows        int
	pktsPerRound int   // packets per round; each fires every site once
	firings      int   // probe firings at referenceSeconds
	segmentBytes int   // 0 = the store's default
	checkpoints  []int // percent of the firings after which a checkpoint is cut

	// pacedRecPerS > 0 makes the loop open: rounds are due on a fixed
	// schedule at this record rate. 0 is a closed loop.
	pacedRecPerS int

	// yardstickEvery is how many rounds of a closed loop pass between
	// yardstick readings: about one reading per 4 ms of pipeline time.
	yardstickEvery int

	setupCycles int // cold builds of the pipeline; set-up time is their median

	// After the crash the run recovers the state and serves from it
	// serveCycles times; each cycle asks the question set queryPasses
	// times and lookups point questions.
	serveCycles int
	queryPasses int
	lookups     int
	fullQueries bool // per-hop decomposition, throughput and per-flow throughput beside the tx→rx join
}

func (w *workload) firingsPerRound() int { return w.pktsPerRound * len(w.sites) }

// scaled returns the workload sized for a --seconds budget: the firing
// total is cut to whole slices of whole rounds.
func (w *workload) scaled(seconds int) *workload {
	out := *w
	unit := ingestSlices * w.firingsPerRound()
	n := w.firings / referenceSeconds * seconds / unit
	if n < 1 {
		n = 1
	}
	out.firings = n * unit
	return &out
}

func (w *workload) rounds() int { return w.firings / w.firingsPerRound() }

// specs returns the trace scripts the agent installs.
func (w *workload) specs() []script.Spec {
	out := make([]script.Spec, len(w.sites))
	for i, s := range w.sites {
		out[i] = script.Spec{
			Name:     s.name,
			TPID:     s.tpid,
			Attach:   core.AttachPoint{Kind: core.AttachKProbe, Site: s.site},
			Filter:   script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
			Actions:  w.actions,
			NumCPU:   simCPUs,
			MaxFlows: 1024,
		}
	}
	return out
}

var (
	txSite = siteSpec{kernel.SiteUDPSendSkb, 1, "udp-tx"}
	rxSite = siteSpec{kernel.SiteUDPRecvmsg, 4, "udp-rx"}
)

var workloads = []*workload{
	{
		name:  "records-bulk",
		why:   "closed loop of 2048-record flushes: per-record costs dominate, so every record-path layer (probe, ring, drain, v4 codec, WAL, head insert, seal) does most of its work here",
		sites: []siteSpec{txSite, rxSite}, actions: []script.Action{script.ActionRecord},
		flows: 64, pktsPerRound: 1024, firings: 3_276_800, yardstickEvery: 2,
		checkpoints: []int{25, 50, 75},
		setupCycles: 41, serveCycles: 5, queryPasses: 1, lookups: 160,
	},
	{
		name:  "records-paced",
		why:   "open loop at 200k rec/s in 256-record rounds, far below capacity: per-batch costs (syscalls, framing, ledger, ack) dominate and a faster layer shows as lower lag and CPU, not throughput",
		sites: []siteSpec{txSite, rxSite}, actions: []script.Action{script.ActionRecord},
		flows: 64, pktsPerRound: 128, firings: 1_843_200, pacedRecPerS: 200_000,
		checkpoints: []int{25, 50, 75},
		setupCycles: 41, serveCycles: 7, queryPasses: 1, lookups: 120,
	},
	{
		name:       "aggregates-bulk",
		why:        "closed loop of in-probe aggregation shipped as v5 frames: eBPF and map layers do nearly all the work and the record wire/WAL/segment path none, so an ingest-path change must show no change here",
		sites:      []siteSpec{txSite, rxSite},
		actions:    []script.Action{script.ActionCount, script.ActionCPUHist, script.ActionHist, script.ActionFlowCount},
		aggregates: true,
		flows:      256, pktsPerRound: 2048, firings: 24_576_000, yardstickEvery: 2,
		checkpoints: []int{25, 50, 75},
		setupCycles: 41, serveCycles: 9, queryPasses: 250, lookups: 512,
	},
	{
		name: "query-recover",
		why:  "the read side: four tracepoint tables, then per-hop joins, scans, lookups and recovery (half adopted, half replayed) over spilled extents, so a write-path gain that moves cost to reads shows up",
		sites: []siteSpec{
			txSite,
			{kernel.SiteSkbPut, 2, "skb-put"},
			{kernel.SiteNetRxAction, 3, "net-rx"},
			rxSite,
		},
		actions: []script.Action{script.ActionRecord},
		flows:   64, pktsPerRound: 512, firings: 2_048_000, yardstickEvery: 2,
		checkpoints: []int{50},
		setupCycles: 41, serveCycles: 5, queryPasses: 1, lookups: 160, fullQueries: true,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
