// Command vntquery analyzes a trace dump produced by
// `vnettracer collector -out records.jsonl`: it loads the record batches
// into a trace database and computes the paper's metrics between two
// tracepoints.
//
//	vntquery -in records.jsonl                      # list tables
//	vntquery -in records.jsonl -tp 1                # throughput at tracepoint 1
//	vntquery -in records.jsonl -from 1 -to 2        # latency/jitter/loss 1 -> 2
//	vntquery -in records.jsonl -from 1 -to 2 -skew 150000
//	vntquery agents -in records.jsonl               # per-agent supervision ledger
//	vntquery storage -in records.jsonl              # segment-store accounting
//	vntquery storage -data-dir d -wal w             # crash-recovery inspection
//	vntquery agg -in agg.jsonl                      # merged in-probe aggregates
//	vntquery cluster -in col0.jsonl -in col1.jsonl  # merged multi-collector view
//	vntquery cluster -in c0.jsonl -in c1.jsonl -from 1 -to 2
//	vntquery cluster -in c0.jsonl -in c1.jsonl -tp 1 -top 10
//	vntquery cluster -agg-in a0.jsonl -agg-in a1.jsonl -script udp-rx
//
// A plain query loads its dump as a cluster of one partition, so both
// forms compute through the same layer and differ only in what they
// print. The cluster subcommand takes one dump per collector of a
// scaled-out tier and answers through the merge layer: table listings and
// throughput k-way merge the per-collector partitions on aligned
// timestamps, latency/loss joins pair trace IDs across collector
// boundaries (an agent re-homed by a collector failure leaves its
// stream split over two dumps), -top merges per-collector top-K flow
// sketches with exact overflow accounting, and -script merges in-probe
// aggregate sketches (log2 histogram buckets and counters add, flows
// merge by key).
//
// The agents subcommand replays the dump through the epoch-aware delivery
// ledger and reports, per agent: the registration epoch, last heartbeat,
// sequence progress, missing/duplicate batches, fenced (stale-epoch)
// traffic, and the self-reported degradation level.
//
// The storage subcommand loads the dump into a segment store (segment
// size, spill dir, and retention configurable by flags) and reports, per
// table: segment counts, resident vs on-disk bytes, compression ratio,
// and evicted-record counts. With -wal it runs the collector's crash
// recovery over the directories instead; a cold start (no checkpoint, no
// logged entry) over a data directory that holds extents — an unlogged
// collector's sealed heads — is refused, and nothing is deleted.
//
// The agg subcommand replays an aggregate-frame dump (produced by
// `vnettracer collector -agg-out agg.jsonl`) through the same
// exactly-once aggregate store the live collector runs, and prints the
// merged in-probe metrics per script: event counters, per-CPU hit
// spread, latency-histogram percentiles (exact to one log2 bucket), and
// per-flow packet/byte sums.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vnettracer"
	"vnettracer/internal/control"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "agents" {
		fs := flag.NewFlagSet("agents", flag.ExitOnError)
		in := fs.String("in", "", "records.jsonl produced by the collector")
		stale := fs.Int64("stale", 0, "mark agents whose last heartbeat trails the newest by more than this many ns")
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		if *in == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runAgents(*in, *stale); err != nil {
			fmt.Fprintf(os.Stderr, "vntquery: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "agg" {
		fs := flag.NewFlagSet("agg", flag.ExitOnError)
		in := fs.String("in", "", "agg.jsonl produced by the collector's -agg-out")
		only := fs.String("script", "", "only print this script's aggregates")
		topFlows := fs.Int("top-flows", 20, "print at most this many flows per script (0 = all)")
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		if *in == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runAgg(*in, *only, *topFlows); err != nil {
			fmt.Fprintf(os.Stderr, "vntquery: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "cluster" {
		if err := runClusterCmd(os.Args[2:]); err != nil {
			fmt.Fprintf(os.Stderr, "vntquery: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "storage" {
		fs := flag.NewFlagSet("storage", flag.ExitOnError)
		in := fs.String("in", "", "records.jsonl produced by the collector")
		segBytes := fs.Int("segment-bytes", tracedb.DefaultSegmentBytes, "raw bytes per table head before sealing a segment")
		dataDir := fs.String("data-dir", "", "spill sealed segments to this directory")
		retention := fs.Int64("retention", 0, "max compressed sealed bytes per table (0 = keep all)")
		walDir := fs.String("wal", "", "recover from this WAL/checkpoint directory instead of replaying a dump (requires -data-dir)")
		if err := fs.Parse(os.Args[2:]); err != nil {
			os.Exit(2)
		}
		if *in == "" && *walDir == "" {
			fs.Usage()
			os.Exit(2)
		}
		if err := runStorage(*in, *walDir, tracedb.Config{SegmentBytes: *segBytes, DataDir: *dataDir, RetainBytes: *retention}); err != nil {
			fmt.Fprintf(os.Stderr, "vntquery: %v\n", err)
			os.Exit(1)
		}
		return
	}
	in := flag.String("in", "", "records.jsonl produced by the collector")
	tp := flag.Uint("tp", 0, "tracepoint for throughput")
	flows := flag.Bool("flows", false, "with -tp: print per-flow throughput")
	from := flag.Uint("from", 0, "latency source tracepoint")
	to := flag.Uint("to", 0, "latency destination tracepoint")
	skew := flag.Int64("skew", 0, "clock skew (ns) of the destination's node, subtracted from its timestamps")
	flag.Parse()
	if *in == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*in, uint32(*tp), uint32(*from), uint32(*to), *skew, *flows); err != nil {
		fmt.Fprintf(os.Stderr, "vntquery: %v\n", err)
		os.Exit(1)
	}
}

// loadJSONL decodes each line of a collector dump into a T and hands it
// to admit, returning the number of lines read.
func loadJSONL[T any](path string, admit func(*T)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	lines := 0
	for sc.Scan() {
		var v T
		if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
			return lines, fmt.Errorf("%s line %d: %w", path, lines+1, err)
		}
		admit(&v)
		lines++
	}
	return lines, sc.Err()
}

// loadRecordDump replays a records.jsonl dump into db through the
// admission front door the live collector runs: a batch the dump holds
// twice (a transport retry) or under a stale epoch lands once or not at
// all, exactly as it did in the collector that wrote the dump.
func loadRecordDump(path string, db *tracedb.DB) (int, error) {
	door := tracedb.Unlogged(db, tracedb.NewAggStore())
	return loadJSONL(path, func(b *control.RecordBatch) {
		door.AdmitRecordBatch(b.Agent, b.Epoch, b.Seq, b.Records, b.AgentTimeNs, b.Degraded)
	})
}

// loadAggDump replays an agg.jsonl dump through a fresh exactly-once
// aggregate store, by the same front door.
func loadAggDump(path string) (*tracedb.AggStore, int, error) {
	st := tracedb.NewAggStore()
	door := tracedb.Unlogged(tracedb.New(), st)
	frames, err := loadJSONL(path, func(f *control.AggBatch) {
		door.AdmitAggFrame(f.Agent, f.Epoch, f.Seq, f.Scripts, f.AgentTimeNs, f.Degraded)
	})
	return st, frames, err
}

// runAgents replays a trace dump through the epoch-aware delivery ledger
// and prints each agent's supervision state.
func runAgents(path string, staleNs int64) error {
	db := tracedb.New()
	lines, err := loadRecordDump(path, db)
	if err != nil {
		return err
	}
	fmt.Printf("replayed %d batches\n", lines)

	var newest int64
	for _, name := range db.Agents() {
		if l, _ := db.Ledger(name); l.LastSeenNs > newest {
			newest = l.LastSeenNs
		}
	}
	levels := []string{"full", "stretched-flush", "sampling"}
	for _, name := range db.Agents() {
		l, ok := db.Ledger(name)
		if !ok {
			continue
		}
		level := fmt.Sprintf("level %d", l.Degraded)
		if int(l.Degraded) < len(levels) {
			level = levels[l.Degraded]
		}
		mark := ""
		if staleNs > 0 && newest-l.LastSeenNs > staleNs {
			mark = "  STALE"
		}
		fmt.Printf("agent %s: epoch %d, last heartbeat t=%dns, degradation %s%s\n",
			name, l.Epoch, l.LastSeenNs, level, mark)
		fmt.Printf("  seq: high-water %d / max %d, pending %d, missing %d, duplicates %d\n",
			l.HighWaterSeq, l.MaxSeq, l.PendingBatches, l.MissingBatches, l.DupBatches)
		if l.FencedBatches > 0 {
			fmt.Printf("  fenced: %d stale-epoch batches rejected, %d records lost to fencing\n",
				l.FencedBatches, l.FencedRecords)
		}
	}
	return nil
}

// runAgg replays an aggregate-frame dump through the collector's
// exactly-once aggregate store and prints the merged per-script metrics.
func runAgg(path, only string, topFlows int) error {
	store, lines, err := loadAggDump(path)
	if err != nil {
		return err
	}
	tot := store.Totals()
	fmt.Printf("replayed %d frames: %d merged, %d dup, %d fenced — %d scripts, %d flows\n",
		lines, tot.FramesMerged, tot.FramesDup, tot.FramesFenced, tot.Scripts, tot.Flows)

	names := store.Scripts()
	if only != "" {
		names = []string{only}
	}
	for _, name := range names {
		agg, ok := store.Get(name)
		if !ok {
			return fmt.Errorf("no aggregates for script %q", name)
		}
		fmt.Printf("script %s:\n", name)
		if len(agg.Counters) > 0 {
			var pkts, bytes uint64
			if len(agg.Counters) > script.SlotPackets {
				pkts = agg.Counters[script.SlotPackets]
			}
			if len(agg.Counters) > script.SlotBytes {
				bytes = agg.Counters[script.SlotBytes]
			}
			fmt.Printf("  counters: %d packets, %d bytes\n", pkts, bytes)
		}
		if n := metrics.HistCount(agg.CPUHits); n > 0 {
			fmt.Printf("  cpu hits:")
			for cpu, hits := range agg.CPUHits {
				if hits > 0 {
					fmt.Printf(" cpu%d=%d", cpu, hits)
				}
			}
			fmt.Println()
		}
		if hs := metrics.HistSummarize(agg.Hist); hs.Count > 0 {
			fmt.Printf("  latency histogram over %d samples (log2-bucket upper bounds):\n", hs.Count)
			fmt.Printf("    mean~%.1fus p50<=%.1fus p99<=%.1fus p99.9<=%.1fus max<=%.1fus\n",
				hs.MeanNs/1e3, float64(hs.P50Ns)/1e3, float64(hs.P99Ns)/1e3,
				float64(hs.P999Ns)/1e3, float64(hs.MaxNs)/1e3)
		}
		for i, fl := range agg.Flows {
			if topFlows > 0 && i == topFlows {
				fmt.Printf("  ... %d more flows\n", len(agg.Flows)-i)
				break
			}
			key := metrics.FlowKey{SrcIP: fl.SrcIP, DstIP: fl.DstIP, SrcPort: fl.SrcPort, DstPort: fl.DstPort, Proto: fl.Proto}
			fmt.Printf("  %-40s %8d pkts %12d bytes\n", key, fl.Packets, fl.Bytes)
		}
	}
	return nil
}

// runStorage loads a trace dump into a segment store under the given
// configuration, seals the heads, and prints per-table and aggregate
// storage accounting — a dry run of what the live collector's resident
// footprint would be under those settings. With a WAL directory it
// instead runs the collector's crash-recovery path against the on-disk
// state (checkpoint + WAL replay + spilled extents) and reports what a
// restarted collector would resume with; note recovery repairs in
// place, truncating torn WAL tails and sweeping orphaned tmp files.
func runStorage(path, walDir string, cfg tracedb.Config) error {
	if walDir != "" && cfg.DataDir == "" {
		return fmt.Errorf("-wal requires -data-dir: recovery reopens spilled segments from it")
	}
	col, dur, rec, err := control.OpenCollector(cfg, tracedb.DurabilityConfig{Dir: walDir, Fsync: tracedb.FsyncNever})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	db := col.DB()
	if dur != nil {
		defer dur.Close()
		fmt.Printf("recovered from %q (data-dir %q)\n", walDir, cfg.DataDir)
		fmt.Printf("  checkpoint loaded=%v lsn=%d, next lsn %d\n", rec.CheckpointLoaded, rec.CheckpointLSN, rec.NextLSN)
		fmt.Printf("  extents: %d adopted (%d records), %d dropped past checkpoint, %d corrupt\n",
			rec.AdoptedExtents, rec.AdoptedRecords, rec.DroppedExtents, rec.CorruptExtents)
		fmt.Printf("  WAL: %d entries replayed (%d records, %d agg frames, %d dup), %d torn tails truncated, %d tmp files swept\n",
			rec.ReplayedEntries, rec.ReplayedRecords, rec.ReplayedFrames, rec.ReplayedDup, rec.TornTails, rec.SweptTmp)
	} else {
		lines, err := loadRecordDump(path, db)
		if err != nil {
			return err
		}
		db.SealAll()
		fmt.Printf("loaded %d batches (segment-bytes %d, retention %d, data-dir %q)\n",
			lines, db.Config().SegmentBytes, cfg.RetainBytes, cfg.DataDir)
	}

	printStats := func(label string, s tracedb.StorageStats) {
		fmt.Printf("%s: %d records (%d head, %d sealed), %d segments (%d spilled)\n",
			label, s.Records(), s.HeadRecords, s.SealedRecords, s.Extents, s.SpilledExtents)
		fmt.Printf("  resident %d B, on-disk %d B, raw sealed %d B, compression %.1fx\n",
			s.ResidentBytes, s.SpilledBytes, s.SealedRawBytes, s.CompressionRatio())
		if s.EvictedRecords > 0 || s.ReadErrors > 0 {
			fmt.Printf("  evicted %d records in %d segments, %d read errors\n",
				s.EvictedRecords, s.EvictedExtents, s.ReadErrors)
		}
		if s.SpilledExtents > 0 || s.HandleBudget > 0 {
			fmt.Printf("  open pack files: %d", s.OpenHandles)
			if s.HandleBudget > 0 {
				fmt.Printf(" (budget %d)", s.HandleBudget)
			}
			fmt.Println()
		}
		if s.SpillErrors > 0 {
			fmt.Printf("  spill errors: %d (last: %s)\n", s.SpillErrors, s.LastSpillError)
		}
	}
	for _, s := range db.StorageStats() {
		printStats(fmt.Sprintf("tracepoint %d (%s)", s.TPID, s.Name), s)
	}
	printStats("total", db.StorageTotals())
	return nil
}

// addDump loads one collector's record dump as a partition of q, with
// the destination tracepoint's skew applied, and returns the batches read.
func addDump(q *vnettracer.ClusterQuery, path string, to uint32, skew int64) (int, error) {
	db := tracedb.New()
	batches, err := loadRecordDump(path, db)
	if err != nil {
		return 0, err
	}
	if skew != 0 && to != 0 {
		db.SetSkew(to, skew)
	}
	q.AddDB(db)
	return batches, nil
}

// printPair answers -from/-to: the latency join with its jitter range,
// and the loss between the two tracepoints. prefix and suffix are the
// mode's own parts of the heading.
func printPair(q *vnettracer.ClusterQuery, from, to uint32, prefix, suffix string) error {
	lats, err := q.Latencies(from, to)
	if err != nil {
		return err
	}
	lost, rate, err := q.Loss(from, to)
	if err != nil {
		return err
	}
	sum := metrics.Summarize(metrics.Values(lats))
	lo, hi := metrics.JitterRange(lats)
	fmt.Printf("%slatency %d -> %d over %d packets%s:\n", prefix, from, to, sum.Count, suffix)
	fmt.Printf("  mean=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus\n",
		sum.MeanNs/1e3, float64(sum.P50Ns)/1e3, float64(sum.P99Ns)/1e3,
		float64(sum.P999Ns)/1e3, float64(sum.MaxNs)/1e3)
	fmt.Printf("  jitter range: (%.1f, %.1f)us\n", float64(lo)/1e3, float64(hi)/1e3)
	fmt.Printf("  loss: %d packets (%.2f%%)\n", lost, rate*100)
	return nil
}

// run answers the single-dump queries: one collector's dump is a cluster
// of one partition, queried through the same layer the cluster subcommand
// uses.
func run(path string, tp, from, to uint32, skew int64, flows bool) error {
	q := vnettracer.NewClusterQuery()
	batches, err := addDump(q, path, to, skew)
	if err != nil {
		return err
	}
	fmt.Printf("loaded %d batches\n", batches)

	switch {
	case from != 0 && to != 0:
		return printPair(q, from, to, "", "")
	case tp != 0 && flows:
		stats, err := q.PerFlowThroughput(tp)
		if err != nil {
			return err
		}
		for _, fs := range stats {
			fmt.Printf("  %-40s %6d pkts %10d bytes %10.3f Mbps\n",
				fs.Flow, fs.Packets, fs.Bytes, fs.ThroughputBps/1e6)
		}
	case tp != 0:
		bps, err := q.Throughput(tp)
		if err != nil {
			return err
		}
		m, _ := q.Table(tp)
		fmt.Printf("tracepoint %d: %d records, throughput %.3f Mbps\n", tp, m.Len(), bps/1e6)
	default:
		for _, id := range q.Tables() {
			m, _ := q.Table(id)
			fmt.Printf("  tracepoint %d: %d records, %d distinct packet IDs\n",
				id, m.Len(), m.NumTraceIDs())
		}
	}
	return nil
}
