package tracedb

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"vnettracer/internal/core"
)

// openFiles returns how many descriptors the process has open and how
// many of those are files under dir, read from /proc/self/fd.
func openFiles(t *testing.T, dir string) (all, under int) {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	for _, ent := range ents {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", ent.Name())); err == nil && strings.HasPrefix(target, dir+"/") {
			under++
		}
	}
	return len(ents), under
}

// TestUnlinkedPackReadableUntilClose: a table's extents share one pack,
// whose file the store keeps open, so lookups and scans open nothing, and
// a pack unlinked behind the store's back still answers through its
// handle — until DB.Close closes the handles, which returns the process's
// descriptors to what they were before the store opened.
func TestUnlinkedPackReadableUntilClose(t *testing.T) {
	dir := t.TempDir()
	openFiles(t, dir) // the first read of /proc starts the poller: count after it
	baseline, _ := openFiles(t, dir)

	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: dir})
	fill(db, 1, 14, 4, 0, 1000)
	tbl, _ := db.Table(1)
	tot := db.StorageTotals()
	if tot.SpilledExtents != 3 || tot.OpenHandles != 1 || tot.HandleBudget != int(packHandleBudget) {
		t.Fatalf("totals: %d spilled extents, %d open handles of %d; want 3, 1, %d",
			tot.SpilledExtents, tot.OpenHandles, tot.HandleBudget, packHandleBudget)
	}
	if _, under := openFiles(t, dir); under != 1 {
		t.Fatalf("%d pack files open, want 1", under)
	}

	files, _ := filepath.Glob(filepath.Join(dir, "*.vnp"))
	for _, f := range files {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	if got := collectRecs(tbl.Scan); len(got) != 14 {
		t.Fatalf("scan of an unlinked pack delivered %d records, want 14", len(got))
	}
	for id := uint32(1); id <= 14; id++ {
		if got := tbl.ByTraceID(id); len(got) != 1 || got[0].TraceID != id {
			t.Fatalf("ByTraceID(%d) of an unlinked pack = %v", id, got)
		}
	}
	if st := tbl.Storage(); st.ReadErrors != 0 {
		t.Fatalf("%d read errors before Close", st.ReadErrors)
	}

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Earlier tests' stores may be finalized meanwhile, closing their
	// files, so the total is held to at most the baseline.
	if all, under := openFiles(t, dir); under != 0 || all > baseline {
		t.Fatalf("after Close %d descriptors open, %d of them packs; want at most %d and none", all, under, baseline)
	}
	if st := db.StorageTotals(); st.OpenHandles != 0 {
		t.Fatalf("%d open handles after Close", st.OpenHandles)
	}
	// Closed handles fail every read, counted.
	if got := tbl.ByTraceID(1); len(got) != 0 {
		t.Fatalf("ByTraceID after Close = %v", got)
	}
	if st := tbl.Storage(); st.ReadErrors != 1 {
		t.Fatalf("ReadErrors = %d after a lookup past Close, want 1", st.ReadErrors)
	}
}

// TestHandleBudget: past its budget a DB keeps no more packs open, and the
// extents in the packs over it are read by opening the pack per read — so
// one unlinked behind the store's back fails and is counted, while the
// packs within the budget keep answering. Retention hands an unlinked
// pack's handle back to the budget for a later one. Every seal rolls its
// pack here, so each extent has a pack of its own.
func TestHandleBudget(t *testing.T) {
	dir := t.TempDir()
	db := NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: dir})
	db.handles.budget = 2
	db.packRoll = 1
	fill(db, 1, 16, 4, 0, 1000)
	tbl, _ := db.Table(1)
	if st := tbl.Storage(); st.SpilledExtents != 4 || st.OpenHandles != 2 {
		t.Fatalf("%d spilled extents, %d open handles; want 4 and 2", st.SpilledExtents, st.OpenHandles)
	}
	if err := os.Remove(tbl.sealed[2].pack.path); err != nil { // past the budget
		t.Fatal(err)
	}
	if err := os.Remove(tbl.sealed[0].pack.path); err != nil { // within it
		t.Fatal(err)
	}
	want := append(seqRange(0, 8), seqRange(12, 16)...)
	if got := scanSeqs(tbl.Scan); !slices.Equal(got, want) {
		t.Fatalf("scan delivered seqs %v, want %v", got, want)
	}
	if got := tbl.ByTraceID(9); len(got) != 0 {
		t.Fatalf("ByTraceID of the unlinked pack past the budget = %v", got)
	}
	if got := tbl.ByTraceID(1); len(got) != 1 {
		t.Fatalf("ByTraceID of the unlinked pack within the budget = %v", got)
	}
	if st := tbl.Storage(); st.ReadErrors != 2 {
		t.Fatalf("ReadErrors = %d, want 2", st.ReadErrors)
	}
	db.Close()

	db = NewWith(Config{SegmentBytes: 4 * core.RecordSize, DataDir: t.TempDir(), RetainBytes: 256})
	db.handles.budget = 2
	db.packRoll = 1
	fill(db, 1, 100, 4, 0, 1000)
	tbl, _ = db.Table(1)
	st := tbl.Storage()
	if st.EvictedExtents == 0 || st.OpenHandles == 0 || st.OpenHandles > 2 || int64(st.OpenHandles) != db.handles.open.Load() {
		t.Fatalf("after %d evictions %d open handles (%d counted); want 1 or 2, counted alike", st.EvictedExtents, st.OpenHandles, db.handles.open.Load())
	}
	db.Close()
	if n := db.handles.open.Load(); n != 0 {
		t.Fatalf("%d handles counted after Close", n)
	}
}

// seqRange returns the seqs [from, to).
func seqRange(from, to uint64) []uint64 {
	var out []uint64
	for s := from; s < to; s++ {
		out = append(out, s)
	}
	return out
}
