package vnettracer

// Benchmarks for the segment store: compressed bytes per record and
// resident bytes per record against the 48-byte flat-slice baseline, seal
// throughput, head-append, lookup and adoption cost. Scan throughput is
// the pipeline benchmark's tracedb.scan_ns_per_rec (bench/).

import (
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// segmentBenchRecords builds a realistic record stream: monotone jittered
// timestamps, a small flow set, sequential trace IDs — what a collector
// actually sees from one tracepoint.
func segmentBenchRecords(n int) []core.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]core.Record, n)
	tns := uint64(1_000_000)
	for i := range recs {
		tns += uint64(800 + rng.Intn(400))
		recs[i] = core.Record{
			TraceID: uint32(i + 1),
			TPID:    1,
			TimeNs:  tns,
			Len:     uint32(64 + rng.Intn(1400)),
			CPU:     uint32(rng.Intn(4)),
			Seq:     uint64(i),
			SrcIP:   0x0a000001 + uint32(rng.Intn(8)),
			DstIP:   0x0a000101,
			SrcPort: uint16(40000 + rng.Intn(8)),
			DstPort: 9000,
			Proto:   17,
			Dir:     uint8(i % 2),
		}
	}
	return recs
}

// BenchmarkSegmentSeal measures the seal a table performs — Bloom filter,
// column-block encode through the table's reused scratch, exact-size blob
// — on one default-sized segment per iteration: ns/record, compressed
// bytes per record, and allocs/op (Go reports them per iteration, i.e. per
// sealed extent, the head array included). "random-ids" draws trace IDs
// the way the tracer does; "sequential-ids" is the stream the other
// benchmarks here use. "random-ids/spilled" seals into a data directory,
// so each seal also appends its extent to the table's pack file; it
// reports the files a seal creates in the directory (files/seal), counted
// off the clock after every seal: one per pack, not one per extent.
func BenchmarkSegmentSeal(b *testing.B) {
	n := tracedb.DefaultSegmentBytes/core.RecordSize + 1 // one run that tips the segment
	for _, bc := range []struct {
		name            string
		random, spilled bool
	}{{"random-ids", true, false}, {"sequential-ids", false, false}, {"random-ids/spilled", true, true}} {
		recs := segmentBenchRecords(n)
		if bc.random {
			rng := rand.New(rand.NewSource(11))
			for i := range recs {
				recs[i].TraceID = rng.Uint32()
			}
		}
		b.Run(bc.name, func(b *testing.B) {
			// Retention keeps a handful of extents, so the heap the
			// collector walks and the data directory do not grow with b.N.
			cfg := tracedb.Config{RetainBytes: 1 << 20}
			if bc.spilled {
				cfg.DataDir = b.TempDir()
			}
			db := tracedb.NewWith(cfg)
			defer db.Close()
			db.Insert(recs) // warm the table's seal scratch
			seen := make(map[string]bool)
			created := func() int {
				ents, err := os.ReadDir(cfg.DataDir)
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, e := range ents {
					if !seen[e.Name()] {
						seen[e.Name()] = true
						n++
					}
				}
				return n
			}
			if bc.spilled {
				created()
			}
			files := 0
			b.ReportAllocs()
			b.SetBytes(int64(n * core.RecordSize))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.Insert(recs)
				if bc.spilled {
					b.StopTimer()
					files += created()
					b.StartTimer()
				}
			}
			b.StopTimer()
			st := db.StorageTotals()
			if sealed := st.Extents + int(st.EvictedExtents); sealed != b.N+1 || st.HeadRecords != 0 || st.SpillErrors != 0 {
				b.Fatalf("%d extents, %d head records and %d spill errors after %d sealing inserts", sealed, st.HeadRecords, st.SpillErrors, b.N+1)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
			b.ReportMetric(float64(st.StoredBytes())/float64(st.SealedRecords), "B/record")
			b.ReportMetric(st.CompressionRatio(), "compression-x")
			if bc.spilled {
				b.ReportMetric(float64(files)/float64(b.N), "files/seal")
			}
		})
	}
}

// BenchmarkTableAppend measures DB.Insert, the store's write path, per
// batch: "head" is the bulk copy into an unsealed head alone (1024-record
// runs; a fresh table is swapped in off the clock before a run would tip
// the default segment), "steady" the same path at 2048-record runs with
// the seals it causes (every third batch) included. Both should allocate
// per segment, not per record.
func BenchmarkTableAppend(b *testing.B) {
	recs := segmentBenchRecords(2048)
	b.Run("head", func(b *testing.B) {
		const perBatch = 1024
		fits := tracedb.DefaultSegmentBytes / core.RecordSize / perBatch // batches an unsealed head holds
		db := tracedb.New()
		b.ReportAllocs()
		b.SetBytes(perBatch * core.RecordSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%fits == 0 {
				b.StopTimer()
				db = tracedb.New()
				b.StartTimer()
			}
			db.Insert(recs[:perBatch])
		}
	})
	b.Run("steady", func(b *testing.B) {
		db := tracedb.New()
		b.ReportAllocs()
		b.SetBytes(int64(len(recs)) * core.RecordSize)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			db.Insert(recs)
		}
	})
}

// BenchmarkTableLookup prices a trace-ID lookup on one default-sized
// segment of records: "head" scans them as an unsealed, index-free head
// (worst case: the head is one record short of sealing and the ID is
// absent, so every record is compared); "extent" probes them as the one
// sealed, resident extent whose filter admits the ID (verify the tail,
// scan the ID section, verify one block and decode the matching row);
// "extent-spilled-hit" is the same probe against the spilled file (one
// tail read and one block read through the file the store keeps open);
// "extent-spilled-false-positive" is an ID the filter admits but the
// extent lacks (the tail read and no block). The head carries no index
// because the first costs less than the others. "table" is the lookup as
// a query meets it: a table of ~300 spilled default-size extents plus a
// head (tableLookup).
func BenchmarkTableLookup(b *testing.B) {
	n := tracedb.DefaultSegmentBytes / core.RecordSize // the next record would seal
	recs := segmentBenchRecords(n)
	hit, absent := uint32(n/2), uint32(n+1)
	lookup := func(b *testing.B, sealed, spilled bool, id func(*tracedb.Table, string) uint32, want int) {
		dir := ""
		if spilled {
			dir = b.TempDir()
		}
		db := tracedb.NewWith(tracedb.Config{DataDir: dir})
		db.Insert(recs)
		if sealed {
			db.SealAll()
		}
		tbl, _ := db.Table(1)
		if st := tbl.Storage(); (st.Extents == 1) != sealed || (st.SpilledExtents == 1) != spilled || st.Records() != uint64(n) {
			b.Fatalf("fixture: %d extents, %d spilled, %d records", st.Extents, st.SpilledExtents, st.Records())
		}
		q := id(tbl, dir)
		errsBefore := tbl.Storage().ReadErrors
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := tbl.ByTraceID(q); len(got) != want {
				b.Fatalf("ByTraceID(%d) = %d records, want %d", q, len(got), want)
			}
		}
		b.StopTimer()
		if errs := tbl.Storage().ReadErrors - errsBefore; errs != 0 {
			b.Fatalf("%d read errors during the timed lookups", errs)
		}
	}
	fixed := func(id uint32) func(*tracedb.Table, string) uint32 {
		return func(*tracedb.Table, string) uint32 { return id }
	}
	b.Run("head", func(b *testing.B) { lookup(b, false, false, fixed(absent), 0) })
	b.Run("extent", func(b *testing.B) { lookup(b, true, false, fixed(hit), 1) })
	b.Run("extent-spilled-hit", func(b *testing.B) { lookup(b, true, true, fixed(hit), 1) })
	b.Run("extent-spilled-false-positive", func(b *testing.B) {
		lookup(b, true, true, func(tbl *tracedb.Table, dir string) uint32 { return bloomFalsePositive(b, tbl, absent) }, 0)
	})
	b.Run("table", tableLookup)
}

// tableLookupExtents is how many spilled extents tableLookup's table
// holds: about what one records-bulk table does.
const tableLookupExtents = 300

// tableLookup looks up seeded present trace IDs in a table built the way
// records-bulk builds one: 1024-record runs of random trace IDs, so each
// default-size extent seals at 6,144 records, ~300 of them spilled, and a
// head. It reports µs per lookup and the extents a lookup reads, counted
// by the table itself (StorageStats.LookupReads): one that holds the ID
// plus the filter's false positives over the rest. The extents sit in a
// couple of pack files, every one of which the store keeps open
// (StorageStats.OpenHandles, reported too), so no lookup opens a file.
func tableLookup(b *testing.B) {
	const run, lookups = 1024, 256
	dir := b.TempDir()
	db := tracedb.NewWith(tracedb.Config{DataDir: dir})
	defer db.Close()
	tbl, _ := db.CreateTable(1, "lookup")
	rng := rand.New(rand.NewSource(3))
	batch := make([]core.Record, run)
	var targets []core.Record
	tns, seq, head := uint64(1_000_000), uint64(0), 0
	for head < 3 { // runs past the last extent, into the head
		for i := range batch {
			tns += uint64(800 + rng.Intn(400))
			batch[i] = core.Record{
				TraceID: rng.Uint32(), TPID: 1, TimeNs: tns,
				Len: uint32(64 + rng.Intn(1400)), CPU: uint32(rng.Intn(2)), Seq: seq,
				SrcIP: 0x0a000001, DstIP: 0x0a000101, SrcPort: uint16(40000 + rng.Intn(4)), DstPort: 9000, Proto: 17,
			}
			seq++
		}
		targets = append(targets, batch[rng.Intn(run)])
		db.Insert(batch)
		if tbl.Extents() == tableLookupExtents {
			head++
		}
	}
	packs, _ := filepath.Glob(filepath.Join(dir, "*.vnp"))
	if st := tbl.Storage(); st.SpilledExtents != tableLookupExtents || st.OpenHandles != len(packs) || st.HeadRecords == 0 {
		b.Fatalf("fixture: %d spilled extents, %d open handles for %d packs, %d head records", st.SpilledExtents, st.OpenHandles, len(packs), st.HeadRecords)
	}
	rng.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
	targets = targets[:lookups]
	before := tbl.Storage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, want := range targets {
			if got := tbl.ByTraceID(want.TraceID); !slices.Contains(got, want) {
				b.Fatalf("ByTraceID(%#x) = %v, want it to hold %v", want.TraceID, got, want)
			}
		}
	}
	b.StopTimer()
	after := tbl.Storage()
	if errs := after.ReadErrors - before.ReadErrors; errs != 0 {
		b.Fatalf("%d read errors during the timed lookups", errs)
	}
	n := float64(b.N * lookups)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/n, "us/lookup")
	b.ReportMetric(float64(after.LookupReads-before.LookupReads)/n, "extents/lookup")
	b.ReportMetric(float64(after.OpenHandles), "open-handles")
}

// bloomFalsePositive returns an ID, from first upwards, that tbl holds no
// record of but its one spilled extent's Bloom filter admits. The filter
// is not exported, but a lookup it admits reads the extent and is
// counted in StorageStats.LookupReads, so an absent ID that moves the
// count is a false positive.
func bloomFalsePositive(b *testing.B, tbl *tracedb.Table, first uint32) uint32 {
	for id := first; id < first+1<<20; id++ {
		before := tbl.Storage().LookupReads
		if got := tbl.ByTraceID(id); len(got) != 0 {
			b.Fatalf("ByTraceID(%d) of an absent ID = %v", id, got)
		}
		if tbl.Storage().LookupReads != before {
			return id
		}
	}
	b.Fatal("no Bloom false positive in 2^20 absent IDs")
	return 0
}

// BenchmarkExtentAdopt measures recovery's adoption of spilled extents —
// one tail read per extent, Bloom filter rebuilt from its ID section —
// as ns/record through tracedb.Recover on a directory whose every record
// sits in a checkpointed extent (nothing to replay).
func BenchmarkExtentAdopt(b *testing.B) {
	const extents = 64
	perExtent := tracedb.DefaultSegmentBytes/core.RecordSize + 1
	recs := segmentBenchRecords(perExtent)
	dir := b.TempDir()
	open := func() (*tracedb.Durability, tracedb.RecoveryStats) {
		db := tracedb.NewWith(tracedb.Config{DataDir: filepath.Join(dir, "data")})
		dur, st, err := tracedb.Recover(db, tracedb.NewAggStore(), tracedb.DurabilityConfig{Dir: filepath.Join(dir, "wal")})
		if err != nil {
			b.Fatal(err)
		}
		return dur, st
	}
	dur, _ := open()
	for i := 0; i < extents; i++ {
		dur.AdmitRecordBatch("bench", 0, uint64(i+1), recs, 0, 0)
	}
	if err := dur.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	if err := dur.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dur, st := open()
		if st.AdoptedExtents != extents || st.AdoptedRecords != uint64(extents*perExtent) || st.ReplayedRecords != 0 {
			b.Fatalf("recovery: %+v", st)
		}
		b.StopTimer()
		if err := dur.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(extents*perExtent), "ns/record")
}

// BenchmarkSegmentResidency pins the acceptance criterion: resident bytes
// per record in the segment store (compressed extents plus their Bloom
// filters and bounds) vs the flat-slice baseline's 48, by the store's own
// accounting.
func BenchmarkSegmentResidency(b *testing.B) {
	const n = 100_000
	recs := segmentBenchRecords(n)
	var perRecord, ratio float64
	for i := 0; i < b.N; i++ {
		db := tracedb.New() // default 256 KiB segments
		for k := 0; k < n; k += 1000 {
			db.Insert(recs[k : k+1000])
		}
		db.SealAll()
		st := db.StorageTotals()
		perRecord = float64(st.ResidentBytes) / float64(st.Records())
		ratio = float64(core.RecordSize) / perRecord
	}
	b.ReportMetric(perRecord, "resident-bytes/record")
	b.ReportMetric(ratio, "residency-reduction-x")
	b.ReportMetric(48, "flat-baseline-bytes/record")
}
