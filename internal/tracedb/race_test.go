package tracedb

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"vnettracer/internal/core"
)

// TestConcurrentInsertAndQuery is the -race regression for the old
// Table data race: reader methods used to touch recs/byTraceID with no
// lock while DB.Insert mutated them. Every reader method runs here
// against concurrent inserters.
func TestConcurrentInsertAndQuery(t *testing.T) {
	// Small segments so the race also exercises seal/snapshot interleaving,
	// not just head appends.
	db := NewWith(Config{SegmentBytes: 2048})
	db.CreateTable(1, "a")
	db.CreateTable(2, "b")

	const writers, batches, perBatch = 4, 50, 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				recs := make([]core.Record, perBatch)
				for k := range recs {
					recs[k] = core.Record{
						TPID:    uint32(k%2 + 1),
						TraceID: uint32(w*batches*perBatch + i*perBatch + k + 1),
						TimeNs:  uint64(i * 1000),
						Len:     100,
					}
				}
				db.Insert(recs)
				db.AdmitBatch("agent", 0, 0, 0, int64(i), 0)
				db.SetSkew(1, int64(i))
			}
		}(w)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				a, _ := db.Table(1)
				b, _ := db.Table(2)
				a.Len()
				a.Extents()
				a.Storage()
				a.ByTraceID(1)
				ma, mb := Merge(a), Merge(b)
				ma.ByTraceID(1)
				ma.TraceIDs()
				ma.NumTraceIDs()
				ma.Incomplete(mb)
				mb.Incomplete(ma)
				n := 0
				a.Scan(func(core.Record) bool { n++; return n < 100 })
				a.ScanAligned(func(core.Record) bool { return true })
				db.Tables()
				db.Agents()
				db.DeadAgents(1000, 10)
			}
		}()
	}

	wg.Wait()
	close(stop)
	readers.Wait()

	total := 0
	for _, id := range db.Tables() {
		tbl, _ := db.Table(id)
		total += tbl.Len()
	}
	if want := writers * batches * perBatch; total != want {
		t.Fatalf("total records = %d, want %d", total, want)
	}
}

// TestScanSnapshotUnderInsert checks Scan's zero-copy snapshot: a scan
// started before concurrent inserts sees a consistent prefix and never a
// torn record.
func TestScanSnapshotUnderInsert(t *testing.T) {
	db := New()
	db.CreateTable(1, "t")
	seed := make([]core.Record, 100)
	for i := range seed {
		seed[i] = core.Record{TPID: 1, TraceID: uint32(i + 1), TimeNs: uint64(i), Len: 7}
	}
	db.Insert(seed)
	tbl, _ := db.Table(1)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 1000; i++ {
			db.Insert([]core.Record{{TPID: 1, TraceID: uint32(1000 + i), TimeNs: uint64(i), Len: 7}})
		}
	}()
	for i := 0; i < 50; i++ {
		n := 0
		tbl.Scan(func(r core.Record) bool {
			if r.Len != 7 {
				t.Errorf("torn record: %+v", r)
				return false
			}
			n++
			return true
		})
		if n < len(seed) {
			t.Fatalf("scan saw %d records, fewer than the %d inserted before it", n, len(seed))
		}
	}
	<-done
}

// TestScanEarlyStop checks the visitor contract: returning false stops the
// scan.
func TestScanEarlyStop(t *testing.T) {
	db := New()
	db.Insert([]core.Record{
		{TPID: 1, TraceID: 1}, {TPID: 1, TraceID: 2}, {TPID: 1, TraceID: 3},
	})
	tbl, _ := db.Table(1)
	var seen []uint32
	tbl.Scan(func(r core.Record) bool {
		seen = append(seen, r.TraceID)
		return len(seen) < 2
	})
	if len(seen) != 2 || seen[0] != 1 || seen[1] != 2 {
		t.Fatalf("early stop saw %v", seen)
	}
	db.SetSkew(1, -5)
	tbl.ScanAligned(func(r core.Record) bool {
		if r.TraceID == 1 && r.TimeNs != 5 {
			t.Fatalf("ScanAligned skew not applied: %d", r.TimeNs)
		}
		return true
	})
}

// TestScanUnderSealAndEviction runs scans while Insert seals extents and
// retention evicts them — unlinking their packs under the scans'
// snapshots and closing the files they keep open. Each scan's producer
// decodes ahead of its consumer, so this is the -race check of the
// handoff between them as well as of the snapshot. Every extent holds one
// 64-record batch of consecutive trace IDs, so whatever a scan delivers
// must be increasing and whole: a gap opens only at an extent boundary,
// where an evicted extent was skipped. ByTraceID readers run beside the
// scans, on their own goroutine and between them; a lookup finds its one
// record or, evicted or not yet inserted, nothing. Packs roll every few
// extents, so evictions unlink packs whole while others still hold live
// extents; the adopted leg starts from a recovered store whose first
// extents are adopted packs, evicted in their turn.
func TestScanUnderSealAndEviction(t *testing.T) {
	for _, leg := range []string{"packed", "adopted"} {
		t.Run(leg, func(t *testing.T) { scanUnderSealAndEviction(t, leg == "adopted") })
	}
}

func scanUnderSealAndEviction(t *testing.T, adopted bool) {
	const perExtent = 64
	batch := func(i int) []core.Record {
		recs := make([]core.Record, perExtent)
		for k := range recs {
			id := i*perExtent + k + 1
			recs[k] = core.Record{TPID: 1, TraceID: uint32(id), TimeNs: uint64(id), Len: 7}
		}
		return recs
	}
	cfg := Config{SegmentBytes: perExtent * core.RecordSize, RetainBytes: 8 << 10, DataDir: filepath.Join(t.TempDir(), "data")}
	db := NewWith(cfg)
	db.packRoll = 1 << 10
	first := 0 // the first batch the inserter below inserts
	if adopted {
		old, _, d, dcfg := durTestEnv(t, cfg)
		for ; first < 20; first++ {
			d.AdmitRecordBatch("a", 1, uint64(first+1), batch(first), 0, 0)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		d.Close()
		old.Close()
		db = NewWith(old.Config())
		db.packRoll = 1 << 10
		d, stats, err := Recover(db, NewAggStore(), dcfg)
		if err != nil || stats.AdoptedExtents == 0 {
			t.Fatalf("recovery adopted %d extents: %v", stats.AdoptedExtents, err)
		}
		defer d.Close()
	} else {
		db.CreateTable(1, "t")
	}
	defer db.Close()
	tbl, _ := db.Table(1)

	done := make(chan struct{})
	var inserted atomic.Uint32 // the highest trace ID inserted
	inserted.Store(uint32(first * perExtent))
	go func() {
		defer close(done)
		for i := first; i < first+300; i++ {
			db.Insert(batch(i))
			inserted.Store(uint32((i + 1) * perExtent))
		}
	}()
	// lookup asks for the ID back records behind the last inserted: the
	// lookups walk the retained extents and past the oldest, so they race
	// its eviction.
	lookup := func(back uint32) {
		id := inserted.Load() - back
		if int32(id) < 1 {
			return
		}
		if got := tbl.ByTraceID(id); len(got) > 1 || len(got) == 1 && (got[0].TraceID != id || got[0].Len != 7) {
			t.Errorf("ByTraceID(%d) = %v", id, got)
		}
	}
	lookups := make(chan struct{})
	go func() {
		defer close(lookups)
		for back := uint32(0); ; back = (back + 37) % (20 * perExtent) {
			select {
			case <-done:
				return
			default:
			}
			lookup(back)
		}
	}()
	check := func(stopAt int) func(core.Record) bool {
		var prev uint32
		n := 0
		return func(r core.Record) bool {
			if r.Len != 7 || r.TraceID <= prev || r.TraceID != prev+1 && (prev%perExtent != 0 || r.TraceID%perExtent != 1) {
				t.Errorf("record %d after %d: %+v", r.TraceID, prev, r)
				return false
			}
			prev = r.TraceID
			n++
			return n != stopAt
		}
	}
	for i := 0; ; i++ {
		select {
		case <-done:
			<-lookups
			return
		default:
		}
		lookup(uint32(i%20*perExtent + 5))
		tbl.Scan(check(0))
		tbl.ScanAligned(check(1 + i%(3*perExtent)))
		Merge(tbl).Scan(check(0))
		Merge(tbl).NumTraceIDs()
	}
}
