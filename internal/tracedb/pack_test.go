package tracedb

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"vnettracer/internal/core"
)

// fsOp is one call a recordingFS saw: what, and on which path.
type fsOp struct{ op, path string }

// recordingFS is the operating system's fileSystem with every call
// recorded in order.
type recordingFS struct {
	osFS
	mu  sync.Mutex
	ops []fsOp
}

func (r *recordingFS) record(op, path string) {
	r.mu.Lock()
	r.ops = append(r.ops, fsOp{op, path})
	r.mu.Unlock()
}

func (r *recordingFS) writeAt(f *os.File, b []byte, off int64) error {
	r.record("write", f.Name())
	return r.osFS.writeAt(f, b, off)
}

func (r *recordingFS) sync(f *os.File) error {
	r.record("sync", f.Name())
	return r.osFS.sync(f)
}

func (r *recordingFS) rename(from, to string) error {
	r.record("rename", to)
	return r.osFS.rename(from, to)
}

func (r *recordingFS) syncDir(dir string) error {
	r.record("syncdir", dir)
	return r.osFS.syncDir(dir)
}

func (r *recordingFS) remove(path string) error {
	r.record("remove", path)
	return r.osFS.remove(path)
}

func (r *recordingFS) truncate(path string, size int64) error {
	r.record("truncate", path)
	return r.osFS.truncate(path, size)
}

// take returns the calls recorded since the last take.
func (r *recordingFS) take() []fsOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	ops := r.ops
	r.ops = nil
	return ops
}

// TestCheckpointSyncsPacksBeforeRetiringWAL records the storage calls of
// two checkpoints over two tables whose packs also roll by size between
// them, and holds them to the durability barrier: every pack written
// since the last checkpoint is synced after its last write, and the data
// directory is synced, before the checkpoint's rename; the WAL directory
// is synced after the rename; and only then is any WAL generation
// removed. A checkpoint that retired the WAL before its packs were on
// stable storage would lose their records to a power cut.
func TestCheckpointSyncsPacksBeforeRetiringWAL(t *testing.T) {
	base := t.TempDir()
	cfg := Config{SegmentBytes: 4 * core.RecordSize, DataDir: filepath.Join(base, "data")}
	walDir := filepath.Join(base, "wal")
	db := NewWith(cfg)
	db.packRoll = 300 // a few extents a pack: packs roll by size too
	rec := &recordingFS{}
	db.fs = rec
	d, _, err := Recover(db, NewAggStore(), DurabilityConfig{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	seq := uint64(0)
	for round := 0; round < 2; round++ {
		for i := 0; i < 12; i++ {
			seq++
			recs := slices.Concat(batchRecs(1, seq, 4), batchRecs(2, seq, 4))
			if st := d.AdmitRecordBatch("a", 1, seq, recs, 0, 0); st != BatchFresh {
				t.Fatalf("batch %d: %v", seq, st)
			}
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		ops := rec.take()
		rename := slices.IndexFunc(ops, func(o fsOp) bool {
			return o.op == "rename" && strings.HasPrefix(filepath.Base(o.path), "ckpt-")
		})
		if rename < 0 {
			t.Fatalf("round %d: no checkpoint rename in %v", round, ops)
		}
		lastWrite := make(map[string]int)
		for i, o := range ops[:rename] {
			if o.op == "write" && filepath.Ext(o.path) == ".vnp" {
				lastWrite[o.path] = i
			}
		}
		if len(lastWrite) < 4 {
			t.Fatalf("round %d: %d packs written, want packs that rolled by size in both tables", round, len(lastWrite))
		}
		for path, w := range lastWrite {
			if !slices.Contains(ops[w:rename], fsOp{"sync", path}) {
				t.Errorf("round %d: pack %s not synced between its last write and the checkpoint's rename", round, filepath.Base(path))
			}
		}
		dataSync := slices.Index(ops, fsOp{"syncdir", cfg.DataDir})
		if dataSync < 0 || dataSync > rename {
			t.Errorf("round %d: data directory synced at call %d, the checkpoint renamed at %d", round, dataSync, rename)
		}
		walRemove := slices.IndexFunc(ops, func(o fsOp) bool {
			_, ok := parseWALFileName(filepath.Base(o.path))
			return o.op == "remove" && ok
		})
		if walRemove < 0 {
			t.Fatalf("round %d: no WAL generation retired in %v", round, ops)
		}
		if walSync := slices.Index(ops[rename:], fsOp{"syncdir", walDir}); walSync < 0 || rename+walSync > walRemove {
			t.Errorf("round %d: WAL directory not synced between the rename (%d) and the first generation removed (%d): %v", round, rename, walRemove, ops)
		}
		for i, o := range ops[:walRemove] {
			if o.op == "remove" && filepath.Dir(o.path) == walDir {
				t.Errorf("round %d: %s removed at call %d, before the barrier", round, o.path, i)
			}
		}
	}
}

// TestTornAppendPastFenceReplays tears the last append of a pack written
// after the checkpoint, as a crash mid-seal leaves it: recovery drops the
// pack whole and replay rebuilds its extents, so every admitted record is
// in the table exactly once. Replay's seals create one pack, not one file
// per seal.
func TestTornAppendPastFenceReplays(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{})
	const batches, perBatch = 30, 4
	for seq := uint64(1); seq <= batches; seq++ {
		d.AdmitRecordBatch("a", 1, seq, batchRecs(1, seq, perBatch), 0, 0)
		if seq == batches/2 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Close()
	db.Close()
	dir := db.Config().DataDir
	packs, _ := filepath.Glob(filepath.Join(dir, "*.vnp"))
	if len(packs) != 2 {
		t.Fatalf("packs %v, want one below the fence and one past it", packs)
	}
	torn := packs[1]
	fi, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(torn, fi.Size()-7); err != nil {
		t.Fatal(err)
	}

	db = NewWith(db.Config())
	defer db.Close()
	d, stats, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if stats.DroppedPacks != 1 || stats.CorruptExtents != 0 || stats.AdoptedRecords+stats.ReplayedRecords != batches*perBatch {
		t.Fatalf("recovery: %+v", stats)
	}
	tbl, _ := db.Table(1)
	seen := make(map[uint32]int)
	tbl.Scan(func(r core.Record) bool { seen[r.TraceID]++; return true })
	for seq := uint64(1); seq <= batches; seq++ {
		for _, r := range batchRecs(1, seq, perBatch) {
			if seen[r.TraceID] != 1 {
				t.Fatalf("record %d seen %d times", r.TraceID, seen[r.TraceID])
			}
		}
	}
	if len(seen) != batches*perBatch {
		t.Fatalf("%d distinct records, want %d", len(seen), batches*perBatch)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "*.vnp")); len(after) != 2 {
		t.Fatalf("after replay the data directory holds %v, want the adopted pack and one replay made", after)
	}
}

// TestSealsCreateOnePackPerRoll: N seals in one checkpoint interval
// create at most ⌈N/m⌉+1 files per table, m the fewest extents a pack
// rolled by size can hold — and one file per table when no pack reaches
// the roll size.
func TestSealsCreateOnePackPerRoll(t *testing.T) {
	const seals = 40
	for _, roll := range []int64{packRollBytes, 1000} {
		db, _, d, _ := durTestEnv(t, Config{})
		db.packRoll = roll
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		for seq := uint64(1); seq <= seals; seq++ {
			d.AdmitRecordBatch("a", 1, seq, slices.Concat(batchRecs(1, seq, 4), batchRecs(2, seq, 4)), 0, 0)
		}
		maxExtent := 0
		for _, tpid := range db.Tables() {
			tbl, _ := db.Table(tpid)
			if tbl.Extents() != seals {
				t.Fatalf("table %d: %d extents, want %d", tpid, tbl.Extents(), seals)
			}
			for _, e := range tbl.sealed {
				maxExtent = max(maxExtent, e.storedBytes)
			}
		}
		perPack := int((roll + int64(maxExtent) - 1) / int64(maxExtent))
		ents, err := os.ReadDir(db.Config().DataDir)
		if err != nil {
			t.Fatal(err)
		}
		if bound := 2 * ((seals+perPack-1)/perPack + 1); len(ents) > bound {
			t.Errorf("roll %d: %d seals in each of 2 tables made %d files, want at most %d", roll, seals, len(ents), bound)
		}
		if roll == packRollBytes && len(ents) != 2 {
			t.Errorf("%d files, want one pack per table", len(ents))
		}
		d.Close()
		db.Close()
	}
}

// TestRecoverRefusesExtentFiles: a data directory holding a per-extent
// file of the layout before packs is refused by name, and nothing in it
// is touched.
func TestRecoverRefusesExtentFiles(t *testing.T) {
	base := t.TempDir()
	cfg := Config{DataDir: filepath.Join(base, "data")}
	os.MkdirAll(cfg.DataDir, 0o755)
	old := filepath.Join(cfg.DataDir, "tp00000001-000000.vnx")
	blob := SealRecords(1, batchRecs(1, 1, 4)).blob
	if err := os.WriteFile(old, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := Recover(NewWith(cfg), NewAggStore(), DurabilityConfig{Dir: filepath.Join(base, "wal")})
	if err == nil || !strings.Contains(err.Error(), filepath.Base(old)) {
		t.Fatalf("recovery over an extent file: %v", err)
	}
	if got, err := os.ReadFile(old); err != nil || !slices.Equal(got, blob) {
		t.Fatalf("refused recovery changed %s: %v", old, err)
	}
}

// FuzzPackAdopt adopts arbitrary bytes as a pack. Adoption must never
// panic, never allocate beyond what the input's length justifies, and
// adopt only extents whose header and tail verify, in order and within
// the pack; a scan of each adopted extent, read through the pack, must
// equal a decode of its bytes — both the same records, or both an error.
func FuzzPackAdopt(f *testing.F) {
	recs := typicalRecords(2*blockRecords + 50)
	for i := range recs {
		recs[i].TPID = 2
	}
	exts := [][]byte{encodeExtent(2, recs[:300]), encodeExtent(2, recs[300:]), encodeExtent(2, recs[:1])}
	valid := slices.Concat(exts...)
	f.Add(valid)
	f.Add(valid[:len(valid)-7]) // a torn final append
	mid := len(exts[0]) + len(exts[1])
	trailer := slices.Clone(valid)
	trailer[mid-extentTrailerLen+trailerIDOff] ^= 0x40 // the middle extent's trailer
	f.Add(trailer)
	block := slices.Clone(valid)
	block[len(exts[0])+extentHeaderLen+3] ^= 1 // the middle extent's first block
	f.Add(block)

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(dir, packName(2, 0))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		hs := &handles{budget: 1}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, adopted, _, err := openPack(path, 2)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(data))+1<<20 {
			t.Fatalf("adopting %d bytes allocated %d", len(data), grew)
		}
		if p != nil {
			p.hold(hs)
			defer p.close(hs)
		}
		end := int64(0)
		for i, e := range adopted {
			if e.pack != p || e.base < end || e.base+int64(e.storedBytes) > int64(len(data)) {
				t.Fatalf("extent %d spans [%d,%d) after %d, of %d bytes", i, e.base, e.base+int64(e.storedBytes), end, len(data))
			}
			end = e.base + int64(e.storedBytes)
			blob := data[e.base:end]
			if [4]byte(blob[:4]) != extentMagic || blob[4] != extentVersion {
				t.Fatalf("extent %d adopted with header %#x", i, blob[:extentHeaderLen])
			}
			tail, err := parseExtentTail(blob[e.tailOff:], int64(len(blob)))
			if err != nil || tail.count != e.count || tail.tpid != 2 {
				t.Fatalf("extent %d adopted with a tail that does not verify: %v", i, err)
			}
			rd := readers.Get().(*extentReader)
			x, err := e.view(rd)
			var got []core.Record
			if err == nil {
				got, err = x.decode(nil)
			}
			readers.Put(rd)
			_, want, derr := decodeExtentBytes(blob)
			if (err == nil) != (derr == nil) || !slices.Equal(got, want) {
				t.Fatalf("extent %d: scan gave %d records (%v), decode %d (%v)", i, len(got), err, len(want), derr)
			}
		}
	})
}
