package tracedb

import (
	"math/rand"
	"testing"

	"vnettracer/internal/core"
)

// scanBenchExtents is how many spilled default-size extents
// BenchmarkTableScan reads: about what one records-bulk table holds.
const scanBenchExtents = 300

// BenchmarkTableScan prices a whole-table ScanAligned over ~300 spilled
// default-size extents (1.6 M records) plus a head, the scan beneath
// every latency join and loss query: each extent read, verified and
// decoded on the cursor's producer goroutine while the consumer takes the
// one before. "idle" is a consumer that does nothing, so the number is
// the producer's rate; "work" does ~20 ns per record of its own (five
// hash rounds), so the number shows how much of the decode the second
// core hides. Allocations per scan should be the three per spilled extent
// that opening its file costs and nothing per record or per batch.
func BenchmarkTableScan(b *testing.B) {
	db := NewWith(Config{DataDir: b.TempDir()})
	tbl, _ := db.CreateTable(1, "scan")
	rng := rand.New(rand.NewSource(1))
	batch := make([]core.Record, blockRecords)
	tns, seq, head := uint64(1_000_000), uint64(0), 0
	for head < 10 { // batches past the last extent, into the head
		for i := range batch {
			tns += uint64(800 + rng.Intn(400))
			batch[i] = core.Record{
				TraceID: rng.Uint32(), TPID: 1, TimeNs: tns,
				Len: uint32(64 + rng.Intn(1400)), CPU: uint32(rng.Intn(2)), Seq: seq,
				SrcIP: 0x0a000001, DstIP: 0x0a000101, SrcPort: uint16(40000 + rng.Intn(4)), DstPort: 9000, Proto: 17,
			}
			seq++
		}
		db.Insert(batch)
		if tbl.Extents() == scanBenchExtents {
			head++
		}
	}
	if st := tbl.Storage(); st.SpilledExtents != scanBenchExtents {
		b.Fatalf("fixture: %d spilled extents, want %d", st.SpilledExtents, scanBenchExtents)
	}
	records := tbl.Len()

	var sink uint64
	for _, bc := range []struct {
		name string
		fn   func(core.Record) bool
	}{
		{"idle", func(core.Record) bool { return true }},
		{"work", func(r core.Record) bool {
			v := r.TimeNs ^ uint64(r.TraceID)
			for i := 0; i < 5; i++ {
				v = mix(v)
			}
			sink += v
			return true
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tbl.ScanAligned(bc.fn)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/rec")
		})
	}
	_ = sink
}
