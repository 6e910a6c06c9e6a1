package tracedb

import (
	"crypto/sha256"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vnettracer/internal/core"
)

// parallelRecoveryFixture leaves a crashed store under base: four tables
// filled by batches that touch one to four of them, aggregate frames
// between, three checkpoints, retention tight enough that the replayed
// seals evict adopted extents, packs that roll by size, one adopted pack
// with a damaged extent tail, and a WAL whose last frame is torn.
func parallelRecoveryFixture(t *testing.T, base string) (Config, DurabilityConfig) {
	t.Helper()
	cfg := Config{SegmentBytes: 8 * core.RecordSize, DataDir: filepath.Join(base, "data"), RetainBytes: 3500}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	db := NewWith(cfg)
	db.packRoll = 700 // a few extents a pack
	d, _, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	tpids := []uint32{1, 2, 3, 4}
	var damaged *Extent
	seq := uint64(0)
	for b := 0; b < 51; b++ {
		seq++
		// Past the last checkpoint every batch seals in every table, so
		// replay's tables seal, make packs and evict side by side.
		recs := interleavedBatch(tpids[:1+b%4], b*10, 3+b%5)
		if b > 44 {
			recs = interleavedBatch(tpids, b*10, 8+b%2)
		}
		if st := d.AdmitRecordBatch("a1", 1, seq, recs, int64(b), 0); st != BatchFresh {
			t.Fatalf("batch %d: %v", b, st)
		}
		if b%7 == 3 {
			seq++
			if st := d.AdmitAggFrame("a1", 1, seq, testScripts(seq), int64(b), 0); st != BatchFresh {
				t.Fatalf("frame at batch %d: %v", b, st)
			}
		}
		if b == 14 || b == 29 || b == 44 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The newest extent of table 2 below the last seal fence that follows
	// another in its pack: the adoption walk meets its tail damaged and
	// resumes at the extent before it.
	tbl, _ := db.Table(2)
	for i := len(tbl.sealed) - 1; i >= 0 && damaged == nil; i-- {
		if e := tbl.sealed[i]; !e.pack.dirty && e.base > 0 {
			damaged = e
		}
	}
	if damaged == nil {
		t.Fatalf("no pack of table 2 below the fence holds two extents")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(damaged.pack.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	crc := []byte{0}
	at := damaged.base + int64(damaged.storedBytes) - extentTrailerLen + trailerCRC
	if _, err := f.ReadAt(crc, at); err != nil {
		t.Fatal(err)
	}
	crc[0] ^= 0x5a
	if _, err := f.WriteAt(crc, at); err != nil {
		t.Fatal(err)
	}
	f.Close()

	files, err := listWALFiles(dcfg.Dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("WAL generations %v: %v", files, err)
	}
	last := filepath.Join(dcfg.Dir, files[len(files)-1])
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}
	return cfg, dcfg
}

// copyTree copies the regular files under src to the same places under dst.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// recoveredShape is what a recovery rebuilt, in terms two recoveries of
// copies of one directory can be compared by: pack names rather than
// paths, record digests rather than records.
type recoveredShape struct {
	Stats   RecoveryStats
	Tables  map[uint32]tableShape
	Open    int64
	Ledgers any
	Aggs    any
}

type tableShape struct {
	Extents                        []extentShape
	Packs                          []packShape
	SealSeq                        int
	EvictedRecords, EvictedExtents uint64
	Records                        int
	Digest                         [32]byte
}

type extentShape struct {
	Count             int
	MinTime, MaxTime  uint64
	Pack              string
	Base              int64
	StoredBytes, Tail int
}

type packShape struct {
	Name              string
	Size              int64
	Live              int
	Kept, Dirty, Open bool
}

// recoverShape recovers a copy of the directory at fixture under
// GOMAXPROCS procs, with a pack handle budget of budget, and describes
// the store it rebuilt.
func recoverShape(t *testing.T, fixture string, cfg Config, dcfg DurabilityConfig, procs int, budget int64) recoveredShape {
	t.Helper()
	base := t.TempDir()
	copyTree(t, fixture, base)
	rel := func(p string) string { r, _ := filepath.Rel(fixture, p); return filepath.Join(base, r) }
	cfg.DataDir, dcfg.Dir = rel(cfg.DataDir), rel(dcfg.Dir)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	db := NewWith(cfg)
	db.packRoll = 1
	db.handles.budget = budget
	aggs := NewAggStore()
	d, stats, err := Recover(db, aggs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer d.Close()

	shape := recoveredShape{
		Stats:   stats,
		Tables:  make(map[uint32]tableShape),
		Open:    db.handles.open.Load(),
		Ledgers: db.exportStates(),
		Aggs:    aggs.exportState(),
	}
	for _, tpid := range db.Tables() {
		tbl, _ := db.Table(tpid)
		tbl.mu.RLock()
		ts := tableShape{
			SealSeq:        tbl.sealSeq,
			EvictedRecords: tbl.evictedRecords,
			EvictedExtents: tbl.evictedExtents,
		}
		for _, e := range tbl.sealed {
			es := extentShape{Count: e.count, MinTime: e.minTimeNs, MaxTime: e.maxTimeNs, Base: e.base, StoredBytes: e.storedBytes, Tail: e.tailOff}
			if e.pack != nil {
				es.Pack = filepath.Base(e.pack.path)
			}
			ts.Extents = append(ts.Extents, es)
		}
		for _, p := range tbl.packs {
			_, statErr := p.f.Stat()
			ts.Packs = append(ts.Packs, packShape{filepath.Base(p.path), p.size, p.live, p.kept, p.dirty, statErr == nil})
		}
		tbl.mu.RUnlock()
		h := sha256.New()
		tbl.Scan(func(r core.Record) bool {
			ts.Records++
			h.Write(core.RecordBytes([]core.Record{r}))
			return true
		})
		h.Sum(ts.Digest[:0])
		shape.Tables[tpid] = ts
	}
	return shape
}

// TestRecoverParallelMatchesSerial recovers copies of one crashed
// directory on one core, where Recover walks the packs and replays the
// tables one after the other, and on four, where it walks packs on a pool
// and fills each replayed batch's tables on workers: both must rebuild
// the same store — statistics, every table's extents, packs, handles,
// seal seq and evictions, the ledgers, the aggregates, and every record.
// The fixture damages an adopted pack, tears the WAL, evicts adopted
// extents during replay, and gives the store fewer pack handles than it
// has packs, so which packs are kept is decided on both sides of replay.
func TestRecoverParallelMatchesSerial(t *testing.T) {
	fixture := t.TempDir()
	cfg, dcfg := parallelRecoveryFixture(t, fixture)
	ckpt, _, err := loadLatestCheckpoint(dcfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(cfg.DataDir)
	if err != nil {
		t.Fatal(err)
	}
	adopted := 0
	for _, ent := range ents {
		if tpid, seq, ok := parseTableFile(ent.Name(), ".vnp"); ok && seq < ckpt.Tables[tpid].SealSeq {
			adopted++
		}
	}
	// One handle fewer than the packs adoption keeps, so adoption spends
	// the budget; then two more, so the packs replay makes compete for
	// what is left once it is over.
	for _, budget := range []int64{int64(adopted) - 1, int64(adopted) + 2} {
		serial := recoverShape(t, fixture, cfg, dcfg, 1, budget)
		st := serial.Stats
		if !st.CheckpointLoaded || st.CorruptExtents != 1 || st.TornTails != 1 || st.ReplayedRecords == 0 || st.ReplayedFrames == 0 || st.DroppedPacks == 0 {
			t.Fatalf("the fixture does not exercise recovery: %+v", st)
		}
		var stillAdopted, kept, unkept int
		for _, ts := range serial.Tables {
			for _, p := range ts.Packs {
				if p.Kept {
					kept++
				} else {
					unkept++
				}
				if !p.Dirty {
					stillAdopted += p.Live
				}
			}
		}
		if stillAdopted >= st.AdoptedExtents {
			t.Errorf("replay evicted none of the %d adopted extents", st.AdoptedExtents)
		}
		if int64(kept) != budget || serial.Open != budget || unkept == 0 {
			t.Errorf("budget %d: %d packs kept, %d not, %d handles counted; want the budget spent and packs left over", budget, kept, unkept, serial.Open)
		}
		if len(serial.Tables) != 4 {
			t.Errorf("%d tables recovered, want 4", len(serial.Tables))
		}
		// Several parallel recoveries, since how the tables interleave
		// differs from one to the next.
		for run := 0; run < 8; run++ {
			parallel := recoverShape(t, fixture, cfg, dcfg, 4, budget)
			if reflect.DeepEqual(serial, parallel) {
				continue
			}
			if serial.Stats != parallel.Stats {
				t.Errorf("stats: serial %+v, parallel %+v", serial.Stats, parallel.Stats)
			}
			for tpid, ts := range serial.Tables {
				if !reflect.DeepEqual(ts, parallel.Tables[tpid]) {
					t.Errorf("table %d:\nserial   %+v\nparallel %+v", tpid, ts, parallel.Tables[tpid])
				}
			}
			t.Fatalf("budget %d, run %d: parallel recovery differs from serial", budget, run)
		}
	}
}

// TestRecoverRepairsThroughSeam: the two repairs recovery writes to the
// WAL directory — cutting a torn tail off a generation and sweeping an
// orphaned checkpoint temp file — go through the DB's fileSystem.
func TestRecoverRepairsThroughSeam(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{})
	for seq := uint64(1); seq <= 3; seq++ {
		d.AdmitRecordBatch("a1", 1, seq, batchRecs(1, seq, 2), 0, 0)
	}
	d.Close()
	db.Close()
	files, err := listWALFiles(dcfg.Dir)
	if err != nil || len(files) == 0 {
		t.Fatalf("WAL generations %v: %v", files, err)
	}
	torn := filepath.Join(dcfg.Dir, files[len(files)-1])
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dcfg.Dir, "ckpt-orphan.tmp")
	if err := os.WriteFile(tmp, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	db = NewWith(db.Config())
	rec := &recordingFS{}
	db.fs = rec
	d, stats, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer d.Close()
	if stats.TornTails != 1 || stats.SweptTmp != 1 || stats.ReplayedRecords != 4 {
		t.Fatalf("recovery: %+v", stats)
	}
	ops := rec.take()
	for _, want := range []fsOp{{"truncate", torn}, {"remove", tmp}} {
		if !slices.Contains(ops, want) {
			t.Errorf("no %s of %s through the seam in %v", want.op, want.path, ops)
		}
	}
}
