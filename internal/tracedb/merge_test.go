package tracedb

import (
	"cmp"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"

	"vnettracer/internal/core"
)

func mergeRec(id uint32, timeNs uint64, cpu uint32, seq uint64) core.Record {
	return core.Record{TraceID: id, TPID: 1, TimeNs: timeNs, Len: 100, CPU: cpu, Seq: seq}
}

// newMergeTable makes a table with a tiny segment size so scans cross
// sealed-extent boundaries, the regime the merge must survive.
func newMergeTable(t *testing.T, skewNs int64) (*DB, *Table) {
	t.Helper()
	db := NewWith(Config{SegmentBytes: 256})
	tbl, err := db.CreateTable(1, "tp")
	if err != nil {
		t.Fatal(err)
	}
	db.SetSkew(1, skewNs)
	return db, tbl
}

func collectRecs(scan func(func(core.Record) bool)) []core.Record {
	var out []core.Record
	scan(func(r core.Record) bool {
		out = append(out, r)
		return true
	})
	return out
}

// TestMergedEqualsBaseline: the issue's core correctness claim — a
// ScanAligned over three collector partitions, k-way merged, equals the
// single-collector baseline record-for-record, under negative skew and
// with records spread across sealed segment boundaries.
func TestMergedEqualsBaseline(t *testing.T) {
	const skew = -5000 // negative: alignment ADDS to every timestamp
	baseDB, base := newMergeTable(t, skew)
	partDBs := make([]*DB, 3)
	parts := make([]*Table, 3)
	for i := range parts {
		partDBs[i], parts[i] = newMergeTable(t, skew)
	}
	// Strictly increasing timestamps so the merged order is unambiguous;
	// round-robin placement gives each partition a time-sorted slice.
	for i := 0; i < 300; i++ {
		r := mergeRec(uint32(i%40+1), uint64(1000+i*7), uint32(i%4), uint64(i+1))
		baseDB.Insert([]core.Record{r})
		partDBs[i%3].Insert([]core.Record{r})
	}
	for _, db := range partDBs {
		db.SealAll()
	}
	m := Merge(parts[0], parts[1], parts[2], nil) // nil partition is skipped
	if m.Parts() != 3 {
		t.Fatalf("Parts = %d, want 3", m.Parts())
	}
	if m.Len() != base.Len() {
		t.Fatalf("Len = %d, want %d", m.Len(), base.Len())
	}
	want := collectRecs(base.ScanAligned)
	got := collectRecs(m.ScanAligned)
	if len(got) != len(want) {
		t.Fatalf("merged %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: merged %+v, baseline %+v", i, got[i], want[i])
		}
	}
	if got[0].TimeNs != uint64(1000+5000) {
		t.Fatalf("negative skew not applied: first aligned time %d, want %d", got[0].TimeNs, 1000+5000)
	}
	// Raw Scan merges too (no alignment).
	raw := collectRecs(m.Scan)
	if raw[0].TimeNs != 1000 {
		t.Fatalf("raw merged first time %d, want 1000", raw[0].TimeNs)
	}
	// Trace-ID surface matches the baseline. ByTraceID answers partition
	// by partition (record i went to partition i%3, Seq i+1), each in
	// insertion order; as a set it is the baseline's.
	one := Merge(base)
	if ids := m.TraceIDs(); !slices.Equal(ids, one.TraceIDs()) || len(ids) != 40 {
		t.Fatalf("TraceIDs = %v, want the baseline's 40", ids)
	}
	byPart := func(a, b core.Record) int {
		return cmp.Or(cmp.Compare((a.Seq-1)%3, (b.Seq-1)%3), cmp.Compare(a.Seq, b.Seq))
	}
	for _, id := range append(m.TraceIDs(), 999) {
		got := m.ByTraceID(id)
		if !slices.IsSortedFunc(got, byPart) {
			t.Fatalf("ByTraceID(%d) is not partition by partition: %+v", id, got)
		}
		slices.SortFunc(got, func(a, b core.Record) int { return cmp.Compare(a.Seq, b.Seq) })
		if want := base.ByTraceID(id); !slices.Equal(got, want) {
			t.Fatalf("ByTraceID(%d): merged %+v, baseline %+v", id, got, want)
		}
	}
	// Incomplete, both directions, against a view of the odd IDs plus one
	// the baseline never saw.
	oddDB, odd := newMergeTable(t, 0)
	for id := uint32(1); id <= 40; id += 2 {
		oddDB.Insert([]core.Record{mergeRec(id, uint64(id), 0, uint64(id))})
	}
	oddDB.Insert([]core.Record{mergeRec(99, 99, 0, 99)})
	var evens []uint32
	for id := uint32(2); id <= 40; id += 2 {
		evens = append(evens, id)
	}
	for name, v := range map[string]*Merged{"merged": m, "baseline": one} {
		if got := v.Incomplete(Merge(odd)); !slices.Equal(got, evens) {
			t.Fatalf("%s.Incomplete(odd) = %v, want the even IDs", name, got)
		}
		if got := Merge(odd).Incomplete(v); !slices.Equal(got, []uint32{99}) {
			t.Fatalf("odd.Incomplete(%s) = %v, want [99]", name, got)
		}
	}

	// A single table is its own one-partition view, whatever its records
	// live in: the head alone, resident extents, spilled extents.
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"head only", Config{}},
		{"resident extents", Config{SegmentBytes: 40 * core.RecordSize}},
		{"spilled extents", Config{SegmentBytes: 40 * core.RecordSize, DataDir: t.TempDir()}},
	} {
		db := NewWith(tc.cfg)
		tbl, _ := db.CreateTable(1, "tp")
		db.SetSkew(1, skew)
		for i := 0; i < 300; i++ {
			// Every tenth record is untraced (ID 0).
			db.Insert([]core.Record{mergeRec(uint32(i%40+1)*uint32(min(i%10, 1)), uint64(1000+i*7), uint32(i%4), uint64(i+1))})
		}
		if st := tbl.Storage(); st.HeadRecords == 0 || (st.Extents > 0) != (tc.cfg.SegmentBytes > 0) || (st.SpilledExtents > 0) != (tc.cfg.DataDir != "") {
			t.Fatalf("%s: fixture %+v", tc.name, st)
		}
		one := Merge(tbl)
		if one.Len() != tbl.Len() || one.Parts() != 1 {
			t.Fatalf("%s: Len = %d in %d parts, want %d in 1", tc.name, one.Len(), one.Parts(), tbl.Len())
		}
		if !slices.Equal(collectRecs(one.Scan), collectRecs(tbl.Scan)) {
			t.Fatalf("%s: Merge(t).Scan differs from t.Scan", tc.name)
		}
		if !slices.Equal(collectRecs(one.ScanAligned), collectRecs(tbl.ScanAligned)) {
			t.Fatalf("%s: Merge(t).ScanAligned differs from t.ScanAligned", tc.name)
		}
		ids := one.TraceIDs()
		if len(ids) != 36 || ids[0] == 0 || one.NumTraceIDs() != 36 {
			t.Fatalf("%s: %d / %d distinct IDs, want the 36 traced ones", tc.name, len(ids), one.NumTraceIDs())
		}
		for _, id := range append(ids, 0, 999) {
			if got, want := one.ByTraceID(id), tbl.ByTraceID(id); !slices.Equal(got, want) {
				t.Fatalf("%s: ByTraceID(%d): view %+v, table %+v", tc.name, id, got, want)
			}
		}
	}
}

// settleGoroutines waits for the goroutine count to fall back to at most
// want. A scan's producer has sent its last batch before the scan
// returns, but the runtime counts it until it has returned as well, so
// the check polls instead of reading once; a goroutine of an earlier test
// still winding down may take the count below want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before the scan, %d after", want, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMergedEarlyStop: a consumer that stops mid-stream — at the first
// record, at an extent's last record, inside the head — gets exactly as
// many records as it asked for, and a consumer that panics gets its panic
// back. Either way every partition's producer goroutine is stopped and
// gone when the scan returns: a scan leaves no goroutine behind. A
// damaged extent in one partition is counted once per scan that reaches
// it and delivers nothing, stopped early or not.
func TestMergedEarlyStop(t *testing.T) {
	parts := make([]*Table, 3)
	for i := range parts[:2] {
		var db *DB
		db, parts[i] = newMergeTable(t, 0)
		for j := 0; j < 50; j++ {
			db.Insert([]core.Record{mergeRec(1, uint64(100+j), 0, uint64(j+1))})
		}
	}
	f := newDamageFixture(t)
	parts[2] = f.tbl
	f.damage(t, 0, func(b []byte) []byte { b[len(b)/2] ^= 1; return b })

	// The 100 mergeRecs come first (earlier timestamps), then the
	// fixture's extents 1 and 2 and its head, in Seq order.
	m := Merge(parts...)
	scans := uint64(0)
	for _, tc := range []struct {
		name    string
		stopAt  int
		lastSeq uint64 // of the last record delivered, when it is the fixture's
	}{
		{"first record", 1, 1},
		{"early", 5, 3}, // the two mergeRec partitions alternate
		{"extent boundary", 100 + damageExtentRecords, 2*damageExtentRecords - 1},
		{"inside the head", 100 + 2*damageExtentRecords + 10, damageExtents*damageExtentRecords + 9},
	} {
		before := runtime.NumGoroutine()
		n := 0
		var last core.Record
		m.ScanAligned(func(r core.Record) bool {
			n++
			last = r
			return n < tc.stopAt
		})
		scans++
		if n != tc.stopAt || last.Seq != tc.lastSeq {
			t.Fatalf("%s: stopped after %d records at Seq %d, want %d at Seq %d", tc.name, n, last.Seq, tc.stopAt, tc.lastSeq)
		}
		settleGoroutines(t, before)
	}

	before := runtime.NumGoroutine()
	func() {
		defer func() {
			if v := recover(); v != "consumer" {
				t.Fatalf("recovered %v, want the consumer's panic", v)
			}
		}()
		n := 0
		m.Scan(func(core.Record) bool {
			if n++; n == 100+blockRecords {
				panic("consumer")
			}
			return true
		})
	}()
	scans++
	settleGoroutines(t, before)

	if got := f.tbl.Storage().ReadErrors; got != scans {
		t.Fatalf("ReadErrors = %d after %d scans over the damaged extent, want %d", got, scans, scans)
	}
	fromDamaged := 0
	all := collectRecs(m.Scan)
	for _, r := range all {
		if r.Proto == 17 && r.Seq < damageExtentRecords { // the fixture's records, not mergeRec's
			fromDamaged++
		}
	}
	if want := 100 + damageRecords - damageExtentRecords; len(all) != want || fromDamaged != 0 {
		t.Fatalf("full scan delivered %d records, %d from the damaged extent; want %d and none", len(all), fromDamaged, want)
	}
	if got := f.tbl.Storage().ReadErrors; got != scans+1 {
		t.Fatalf("ReadErrors = %d after the full scan, want %d", got, scans+1)
	}
}

// TestMergedRandomInterleavings is the fuzz-style merge-heap check: many
// seeded trials with random record counts, duplicate timestamps, and
// random partition assignment. The merged stream must contain exactly
// the union (as a multiset) in (time, partition index) order.
func TestMergedRandomInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		n := rng.Intn(120)
		k := 1 + rng.Intn(4)
		all := make([]core.Record, n)
		buckets := make([][]core.Record, k)
		for i := 0; i < n; i++ {
			all[i] = mergeRec(uint32(rng.Intn(10)+1), uint64(rng.Intn(50)), uint32(rng.Intn(3)), uint64(i+1))
			p := rng.Intn(k)
			all[i].Dir = uint8(p) // so the merged stream shows its tie-break
			buckets[p] = append(buckets[p], all[i])
		}
		parts := make([]*Table, k)
		for p := range parts {
			var db *DB
			db, parts[p] = newMergeTable(t, 0)
			// Each partition must be time-sorted (per-partition scans are
			// insertion-ordered); stable sort keeps equal-time records in
			// assignment order.
			b := buckets[p]
			for i := 1; i < len(b); i++ {
				for j := i; j > 0 && b[j].TimeNs < b[j-1].TimeNs; j-- {
					b[j], b[j-1] = b[j-1], b[j]
				}
			}
			for _, r := range b {
				db.Insert([]core.Record{r})
			}
		}
		got := collectRecs(Merge(parts...).Scan)
		if len(got) != n {
			t.Fatalf("trial %d: merged %d records, want %d", trial, len(got), n)
		}
		seen := make(map[core.Record]int)
		for i, r := range got {
			if i > 0 && (r.TimeNs < got[i-1].TimeNs || r.TimeNs == got[i-1].TimeNs && r.Dir < got[i-1].Dir) {
				t.Fatalf("trial %d: record %d is (time %d, partition %d) after (%d, %d)",
					trial, i, r.TimeNs, r.Dir, got[i-1].TimeNs, got[i-1].Dir)
			}
			seen[r]++
		}
		for _, r := range all {
			seen[r]--
			if seen[r] < 0 {
				t.Fatalf("trial %d: record %+v missing from merge", trial, r)
			}
		}
	}
}
