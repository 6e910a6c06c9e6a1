package vnettracer

// Benchmarks for the segment store: compressed bytes per record and
// resident bytes per record against the 48-byte flat-slice baseline, seal
// throughput, and head-append and lookup cost. Scan and sealed-lookup
// throughput are the pipeline benchmark's tracedb.scan_ns_per_rec and
// tracedb.lookup_sealed_us (bench/).

import (
	"math/rand"
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

// BenchmarkSegmentSeal measures sealing (compression) throughput and the
// compressed size per record.
func BenchmarkSegmentSeal(b *testing.B) {
	const n = 4096
	recs := segmentBenchRecords(n)
	b.ReportAllocs()
	b.ResetTimer()
	var stored int
	for i := 0; i < b.N; i++ {
		ext := tracedb.SealRecords(1, recs)
		stored = ext.StoredBytes()
	}
	b.StopTimer()
	b.ReportMetric(float64(stored)/float64(n), "compressed-bytes/record")
	b.ReportMetric(float64(core.RecordSize)*float64(n)/float64(stored), "compression-x")
	b.SetBytes(int64(n * core.RecordSize))
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

// BenchmarkTableLookup prices the two halves of a trace-ID lookup on one
// default-sized segment of records: "head" scans them as an unsealed,
// index-free head (worst case: the head is one record short of sealing
// and the ID is absent, so every record is compared), "extent" decodes
// them as the one sealed extent whose Bloom filter admits the ID. The
// head carries no index because the first costs less than the second.
func BenchmarkTableLookup(b *testing.B) {
	n := tracedb.DefaultSegmentBytes / core.RecordSize // the next record would seal
	recs := segmentBenchRecords(n)
	lookup := func(b *testing.B, sealed bool, id uint32, want int) {
		db := tracedb.New()
		db.Insert(recs)
		if sealed {
			db.SealAll()
		}
		tbl, _ := db.Table(1)
		if st := tbl.Storage(); (st.Extents == 1) != sealed || st.Records() != uint64(n) {
			b.Fatalf("fixture: %d extents, %d records", st.Extents, st.Records())
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if got := tbl.ByTraceID(id); len(got) != want {
				b.Fatalf("ByTraceID(%d) = %d records, want %d", id, len(got), want)
			}
		}
	}
	b.Run("head", func(b *testing.B) { lookup(b, false, uint32(n+1), 0) })
	b.Run("extent", func(b *testing.B) { lookup(b, true, uint32(n/2), 1) })
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
