package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"vnettracer/internal/control"
	"vnettracer/internal/tracedb"
)

// runCollector serves the collector endpoint until interrupted, printing a
// summary line per second and optionally appending batches to a JSONL file
// that vntquery can analyze offline.
func runCollector(args []string) error {
	fs := flag.NewFlagSet("collector", flag.ExitOnError)
	listen := fs.String("listen", ":7701", "address to listen on")
	out := fs.String("out", "", "append record batches as JSON lines to this file")
	aggOut := fs.String("agg-out", "", "append aggregate frames as JSON lines to this file (vntquery agg reads it)")
	workers := fs.Int("workers", 4, "ingest worker goroutines")
	queue := fs.Int("queue", 1024, "ingest queue depth (full queue drops batches)")
	segBytes := fs.Int("segment-bytes", tracedb.DefaultSegmentBytes, "raw bytes per table head before sealing a compressed segment")
	retention := fs.Int64("retention", 0, "max compressed sealed bytes per table; oldest whole segments evicted beyond this (0 = keep forever)")
	dataDir := fs.String("data-dir", "", "spill sealed segments to this directory instead of keeping them resident")
	walDir := fs.String("wal", "", "write-ahead-log + checkpoint directory; enables crash durability (requires -data-dir)")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
	ckptEvery := fs.Duration("checkpoint-interval", 30*time.Second, "snapshot ledgers and aggregates this often, truncating the WAL (0 = only at shutdown)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *walDir != "" && *dataDir == "" {
		return fmt.Errorf("-wal requires -data-dir: recovery reopens spilled segments from it")
	}
	policy, err := tracedb.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	col, dur, rec, err := control.OpenCollector(
		tracedb.Config{SegmentBytes: *segBytes, DataDir: *dataDir, RetainBytes: *retention},
		tracedb.DurabilityConfig{Dir: *walDir, Fsync: policy})
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	db := col.DB()
	if dur != nil {
		fmt.Printf("recovered: checkpoint=%v lsn=%d, adopted %d extents (%d records), replayed %d WAL entries (%d records, %d agg frames, %d dup), next lsn %d\n",
			rec.CheckpointLoaded, rec.CheckpointLSN, rec.AdoptedExtents, rec.AdoptedRecords,
			rec.ReplayedEntries, rec.ReplayedRecords, rec.ReplayedFrames, rec.ReplayedDup, rec.NextLSN)
		if rec.DroppedPacks+rec.CorruptExtents+rec.TornTails+rec.SweptTmp > 0 {
			fmt.Printf("  repair: %d post-checkpoint pack files dropped, %d corrupt extents skipped, %d torn WAL tails truncated, %d tmp files swept\n",
				rec.DroppedPacks, rec.CorruptExtents, rec.TornTails, rec.SweptTmp)
		}
	}
	// Move DB inserts off the transport goroutines onto the bounded
	// ingest queue; a full queue drops batches rather than stalling agents.
	col.StartIngest(*workers, *queue)
	defer col.StopIngest()
	var sink control.RecordSink = col
	if *out != "" || *aggOut != "" {
		tee := &teeSink{next: col, agg: col}
		if *out != "" {
			f, err := os.OpenFile(*out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open -out: %w", err)
			}
			defer f.Close()
			tee.file = f
		}
		if *aggOut != "" {
			f, err := os.OpenFile(*aggOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return fmt.Errorf("open -agg-out: %w", err)
			}
			defer f.Close()
			tee.aggFile = f
		}
		sink = tee
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := control.Serve(ln, nil, sink)
	defer srv.Close()
	fmt.Printf("collector listening on %s\n", srv.Addr())

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var ckptC <-chan time.Time
	if dur != nil && *ckptEvery > 0 {
		ct := time.NewTicker(*ckptEvery)
		defer ct.Stop()
		ckptC = ct.C
	}
	var lastRecords uint64
	for {
		select {
		case <-ckptC:
			if err := dur.Checkpoint(); err != nil {
				fmt.Fprintf(os.Stderr, "checkpoint: %v\n", err)
			}
		case <-stop:
			col.StopIngest() // drain queued batches before reporting
			batches, records, drops := col.Stats()
			_, dropped := col.IngestStats()
			dupB, dupR, missing := col.DeliveryStats()
			fencedB, fencedR := col.FencedStats()
			fmt.Printf("\nshutting down: %d batches, %d records, %d ring drops, %d dropped batches, %d dup batches (%d records), %d missing batches, %d fenced batches (%d records), %d rejected frames, %d tables\n",
				batches, records, drops, dropped, dupB, dupR, missing, fencedB, fencedR, srv.RejectedFrames(), len(db.Tables()))
			if at := col.Aggregates().Totals(); at.FramesMerged+at.FramesDup+at.FramesFenced > 0 {
				fmt.Printf("aggregates: %d frames merged (%d dup, %d fenced, %d unsupported), %d rows over %d scripts / %d flows\n",
					at.FramesMerged, at.FramesDup, at.FramesFenced, srv.UnsupportedAggFrames(),
					at.RowsMerged, at.Scripts, at.Flows)
			}
			db.SealAll() // flush heads so a data dir holds the full history
			st := db.StorageTotals()
			fmt.Printf("storage: %d records in %d segments (%d spilled), %s resident, %s on disk, %.1fx compression, %d records evicted\n",
				st.Records(), st.Extents, st.SpilledExtents,
				fmtBytes(st.ResidentBytes), fmtBytes(st.SpilledBytes),
				st.CompressionRatio(), st.EvictedRecords)
			if st.SpillErrors > 0 {
				fmt.Printf("  spill errors: %d (last: %s)\n", st.SpillErrors, st.LastSpillError)
			}
			if dur != nil {
				// Final checkpoint so a clean restart replays nothing.
				if err := dur.Checkpoint(); err != nil {
					fmt.Fprintf(os.Stderr, "final checkpoint: %v\n", err)
				}
				ds := dur.Stats()
				fmt.Printf("durability: fsync=%s, %d WAL entries (%s, %d syncs, %d errors), %d checkpoints (%d failed), last checkpoint lsn %d\n",
					ds.Policy, ds.WALEntries, fmtBytes(ds.WALBytes), ds.WALSyncs, ds.WALErrors,
					ds.Checkpoints, ds.CheckpointErrors, ds.LastCheckpointLSN)
				if ds.LastError != "" {
					fmt.Printf("  last durability error: %s\n", ds.LastError)
				}
				if err := dur.Close(); err != nil {
					fmt.Fprintf(os.Stderr, "wal close: %v\n", err)
				}
			}
			if err := db.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "store close: %v\n", err)
			}
			return nil
		case <-tick.C:
			_, records, _ := col.Stats()
			if records != lastRecords {
				depth, dropped := col.IngestStats()
				dupB, _, missing := col.DeliveryStats()
				fmt.Printf("records: %d (+%d), queue: %d, dropped batches: %d, dups: %d, missing: %d, agents: %v\n",
					records, records-lastRecords, depth, dropped, dupB, missing, db.Agents())
				lastRecords = records
			}
		}
	}
}

// fmtBytes renders a byte count with a binary-unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// teeSink forwards batches and aggregate frames and appends them to
// JSONL files (records and aggregates dumped separately, since they are
// replayed through different ledgers). It forwards the collector's
// backpressure report too: a dump file must not cost the agents their
// overload degradation.
type teeSink struct {
	next    control.AckingRecordSink
	agg     control.AggSink
	mu      sync.Mutex
	file    *os.File
	aggFile *os.File
}

var _ control.AckingRecordSink = (*teeSink)(nil)

func (t *teeSink) HandleBatch(b control.RecordBatch) error {
	_, err := t.HandleBatchAck(b)
	return err
}

func (t *teeSink) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	ack, err := t.next.HandleBatchAck(b)
	if err != nil || t.file == nil {
		return ack, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return ack, writeJSON(t.file, b)
}

func (t *teeSink) HandleAgg(b control.AggBatch) error {
	if err := t.agg.HandleAgg(b); err != nil {
		return err
	}
	if t.aggFile == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return writeJSON(t.aggFile, b)
}
