package tracedb

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vnettracer/internal/core"
)

// fill inserts n records for tpid with trace IDs 1..n, timestamps
// base+i*step, in batches of batchLen so segment seals land at batch
// boundaries.
func fill(db *DB, tpid uint32, n, batchLen int, base, step uint64) {
	for i := 0; i < n; i += batchLen {
		end := i + batchLen
		if end > n {
			end = n
		}
		batch := make([]core.Record, 0, end-i)
		for k := i; k < end; k++ {
			batch = append(batch, core.Record{
				TPID:    tpid,
				TraceID: uint32(k + 1),
				TimeNs:  base + uint64(k)*step,
				Len:     100,
				Seq:     uint64(k),
			})
		}
		db.Insert(batch)
	}
}

// TestCrossSegmentQueries runs ByTraceID/ScanAligned/Incomplete across a
// table whose records span sealed in-memory extents, spilled extents, and
// the mutable head.
func TestCrossSegmentQueries(t *testing.T) {
	dir := t.TempDir()
	// 10 records per segment (480 raw bytes), spilled to dir.
	db := NewWith(Config{SegmentBytes: 10 * core.RecordSize, DataDir: dir})
	const n = 105 // 10 sealed+spilled extents + 5 head records
	fill(db, 1, n, 10, 1_000_000, 1000)
	tbl, _ := db.Table(1)

	if tbl.Len() != n {
		t.Fatalf("Len = %d, want %d", tbl.Len(), n)
	}
	if got := tbl.Extents(); got != 10 {
		t.Fatalf("extents = %d, want 10", got)
	}
	st := tbl.Storage()
	if st.SpilledExtents != 10 || st.SpilledBytes == 0 {
		t.Fatalf("spill stats = %+v", st)
	}
	if st.HeadRecords != 5 {
		t.Fatalf("head records = %d, want 5", st.HeadRecords)
	}

	// ByTraceID must find records in the oldest spilled extent, a middle
	// one, and the head.
	for _, id := range []uint32{1, 55, 101, 105} {
		got := tbl.ByTraceID(id)
		if len(got) != 1 || got[0].TraceID != id {
			t.Fatalf("ByTraceID(%d) = %+v", id, got)
		}
	}
	if got := tbl.ByTraceID(9999); len(got) != 0 {
		t.Fatalf("missing id returned %+v", got)
	}

	// Scan visits every record exactly once, in insertion order.
	var seen []uint32
	tbl.Scan(func(r core.Record) bool { seen = append(seen, r.TraceID); return true })
	if len(seen) != n {
		t.Fatalf("scan visited %d, want %d", len(seen), n)
	}
	for i, id := range seen {
		if id != uint32(i+1) {
			t.Fatalf("scan order broke at %d: %d", i, id)
		}
	}

	if ids := Merge(tbl).TraceIDs(); len(ids) != n || ids[0] != 1 || ids[n-1] != n {
		t.Fatalf("TraceIDs len=%d", len(ids))
	}

	// Incomplete across segmented tables: table 2 misses IDs 3 and 77 —
	// one sealed-side, one head-side gap.
	for k := 0; k < n; k++ {
		id := uint32(k + 1)
		if id == 3 || id == 77 {
			continue
		}
		db.Insert([]core.Record{{TPID: 2, TraceID: id, TimeNs: uint64(k)}})
	}
	other, _ := db.Table(2)
	missing := Merge(tbl).Incomplete(Merge(other))
	if len(missing) != 2 || missing[0] != 3 || missing[1] != 77 {
		t.Fatalf("Incomplete = %v", missing)
	}
	if got := Merge(other).Incomplete(Merge(tbl)); len(got) != 0 {
		t.Fatalf("reverse Incomplete = %v", got)
	}
}

// TestSkewAlignmentAcrossSegments checks both skew signs at segment
// boundaries: alignment is applied per segment at read time, so a skew
// set after records sealed must still correct them, and the zero clamp
// must hold inside sealed extents.
func TestSkewAlignmentAcrossSegments(t *testing.T) {
	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize})
	// Timestamps 0, 1000, ... 7000; two sealed extents + nothing in head.
	fill(db, 1, 8, 4, 0, 1000)
	tbl, _ := db.Table(1)
	if tbl.Extents() != 2 {
		t.Fatalf("extents = %d, want 2", tbl.Extents())
	}

	// Negative skew (node clock behind): timestamps shift forward.
	db.SetSkew(1, -500)
	i := 0
	tbl.ScanAligned(func(r core.Record) bool {
		if want := uint64(i)*1000 + 500; r.TimeNs != want {
			t.Fatalf("record %d aligned to %d, want %d", i, r.TimeNs, want)
		}
		i++
		return true
	})
	if i != 8 {
		t.Fatalf("aligned scan visited %d", i)
	}

	// Positive skew larger than the first sealed records' timestamps:
	// clamp at zero, no unsigned wrap — in both sealed extents, the first
	// record of the first and the last of the second included.
	db.SetSkew(1, 2500)
	want := []uint64{0, 0, 0, 500, 1500, 2500, 3500, 4500}
	i = 0
	tbl.ScanAligned(func(r core.Record) bool {
		if r.TimeNs != want[i] {
			t.Fatalf("record %d aligned to %d, want %d", i, r.TimeNs, want[i])
		}
		i++
		return true
	})
	if i != len(want) {
		t.Fatalf("aligned scan visited %d, want %d", i, len(want))
	}

	// Raw Scan stays unaligned.
	tbl.Scan(func(r core.Record) bool {
		if r.TraceID == 1 && r.TimeNs != 0 {
			t.Fatalf("raw scan shows aligned time %d", r.TimeNs)
		}
		return true
	})
}

// TestRetentionEvictsWholeSegments checks the retention policy: whole
// extents evicted oldest-first, eviction counters conserving the total
// record count, a pack deleted once its last extent is evicted.
func TestRetentionEvictsWholeSegments(t *testing.T) {
	dir := t.TempDir()
	// Each extent holds 10 records; retention keeps ~3 extents' worth of
	// compressed bytes, and a pack rolls after about two extents.
	db := NewWith(Config{SegmentBytes: 10 * core.RecordSize, DataDir: dir, RetainBytes: 256})
	db.packRoll = 100
	const n = 100
	fill(db, 1, n, 10, 1_000_000, 1000)
	tbl, _ := db.Table(1)

	st := tbl.Storage()
	if st.EvictedExtents == 0 || st.EvictedRecords == 0 {
		t.Fatalf("no eviction happened: %+v", st)
	}
	// Whole segments only: every evicted extent held exactly 10 records.
	if st.EvictedRecords%10 != 0 {
		t.Fatalf("evicted %d records, not a whole number of segments", st.EvictedRecords)
	}
	// Conservation: live + evicted == inserted.
	if got := uint64(tbl.Len()) + st.EvictedRecords; got != n {
		t.Fatalf("live %d + evicted %d != inserted %d", tbl.Len(), st.EvictedRecords, n)
	}
	// The sealed store respects the budget.
	if st.StoredBytes() > 256 {
		t.Fatalf("sealed bytes %d exceed retention 256", st.StoredBytes())
	}
	// Oldest-first: the oldest surviving records are a contiguous suffix.
	var first core.Record
	got := false
	tbl.Scan(func(r core.Record) bool { first, got = r, true; return false })
	if !got || uint64(first.TraceID) != st.EvictedRecords+1 {
		t.Fatalf("oldest survivor = %d, want %d", first.TraceID, st.EvictedRecords+1)
	}
	// The packs of evicted extents are gone from disk; the packs that
	// hold a surviving extent remain, and nothing else.
	files, err := filepath.Glob(filepath.Join(dir, "*.vnp"))
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range tbl.sealed {
		if !slices.Contains(want, e.pack.path) {
			want = append(want, e.pack.path)
		}
	}
	if !slices.Equal(files, want) {
		t.Fatalf("pack files on disk %v, want those of the surviving extents %v", files, want)
	}
	if _, err := os.Stat(filepath.Join(dir, packName(1, 0))); !os.IsNotExist(err) {
		t.Fatalf("the first pack, all of its extents evicted: %v", err)
	}
}

// TestSpillFallsBackResident: an unwritable data dir keeps sealed blobs
// resident instead of losing records.
func TestSpillFallsBackResident(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ro")
	if err := os.MkdirAll(dir, 0o555); err != nil {
		t.Fatal(err)
	}
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: dir})
	fill(db, 1, 8, 4, 0, 1000)
	tbl, _ := db.Table(1)
	st := tbl.Storage()
	if st.SpilledExtents != 0 || st.SealedRecords != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if got := len(tbl.ByTraceID(5)); got != 1 {
		t.Fatalf("records lost on failed spill: %d", got)
	}
}

// TestSealAllAndCompressionRatio: SealAll flushes heads, and sealed
// realistic batches beat the 4x compression floor this PR promises.
func TestSealAllAndCompressionRatio(t *testing.T) {
	db := New() // default segment size: nothing seals on its own here
	fill(db, 1, 1000, 100, 1_000_000, 1000)
	fill(db, 2, 500, 100, 2_000_000, 1000)
	tbl, _ := db.Table(1)
	if tbl.Extents() != 0 {
		t.Fatalf("sealed early: %d extents", tbl.Extents())
	}
	db.SealAll()
	if tbl.Extents() != 1 {
		t.Fatalf("SealAll left %d extents", tbl.Extents())
	}
	tot := db.StorageTotals()
	if tot.HeadRecords != 0 || tot.SealedRecords != 1500 {
		t.Fatalf("totals = %+v", tot)
	}
	if ratio := tot.CompressionRatio(); ratio < 4 {
		t.Fatalf("compression ratio %.2f, want >= 4", ratio)
	}
	// Resident footprint must reflect the compression (well under raw).
	if tot.ResidentBytes*2 > tot.SealedRawBytes {
		t.Fatalf("resident %d vs raw %d: compression not reflected", tot.ResidentBytes, tot.SealedRawBytes)
	}
}

// TestSpilledExtentSurvivesReopen: a pack is its extents' blobs back to
// back, each byte-identical to SealRecords of the same records, so every
// extent in it decodes on its own, and a pack holding one extent is one
// decodable blob.
func TestSpilledExtentSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: dir})
	fill(db, 1, 4, 4, 77, 10)
	files, _ := filepath.Glob(filepath.Join(dir, "*.vnp"))
	if len(files) != 1 {
		t.Fatalf("pack files = %v", files)
	}
	blob, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	tpid, recs, err := decodeExtentBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if tpid != 1 || len(recs) != 4 || recs[0].TimeNs != 77 {
		t.Fatalf("reopened extent: tpid=%d recs=%+v", tpid, recs)
	}

	// Three more seals append to the same pack.
	fill(db, 1, 12, 4, 1000, 10)
	tbl, _ := db.Table(1)
	var want []byte
	all := collectRecs(tbl.Scan)
	for i := 0; i < len(all); i += 4 {
		want = append(want, SealRecords(1, all[i:i+4]).blob...)
	}
	if got, err := os.ReadFile(files[0]); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("pack of %d bytes (%v), want the %d of four SealRecords blobs", len(got), err, len(want))
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Fatalf("data directory holds %v, want the one pack", files)
	}
}

// TestEvictionDuringScanIsCounted: a packed extent evicted the way
// retention evicts one (the last live extent of its pack: the pack's file
// closed, then unlinked) while a scan's snapshot still holds it is
// skipped and surfaces in ReadErrors rather than failing the scan. Every
// seal rolls its pack here, so each extent has a pack of its own.
func TestEvictionDuringScanIsCounted(t *testing.T) {
	dir := t.TempDir()
	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: dir})
	db.packRoll = 1
	fill(db, 1, 12, 4, 0, 1000)
	tbl, _ := db.Table(1)
	files, _ := filepath.Glob(filepath.Join(dir, "*.vnp"))
	if len(files) != 3 {
		t.Fatalf("pack files = %v", files)
	}
	tbl.mu.Lock()
	tbl.evictLocked(tbl.sealed[0])
	tbl.mu.Unlock()
	if _, err := os.Stat(files[0]); !os.IsNotExist(err) {
		t.Fatalf("evicted extent's pack: %v", err)
	}
	n := 0
	tbl.Scan(func(core.Record) bool { n++; return true })
	if n != 8 {
		t.Fatalf("scan visited %d, want 8 (one extent lost)", n)
	}
	if got := tbl.Storage().ReadErrors; got != 1 {
		t.Fatalf("ReadErrors = %d, want 1", got)
	}
}
