package tracedb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vnettracer/internal/core"
)

// durTestEnv builds a durable DB/AggStore pair over fresh temp dirs.
func durTestEnv(t *testing.T, cfg Config) (*DB, *AggStore, *Durability, DurabilityConfig) {
	t.Helper()
	base := t.TempDir()
	cfg.DataDir = filepath.Join(base, "data")
	if cfg.SegmentBytes == 0 {
		cfg.SegmentBytes = 4 * core.RecordSize // seal often: exercise spill + adopt
	}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	db := NewWith(cfg)
	aggs := NewAggStore()
	d, _, err := Recover(db, aggs, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	return db, aggs, d, dcfg
}

// batchRecs builds a batch of n records for a tracepoint with unique
// trace IDs derived from seq.
func batchRecs(tpid uint32, seq uint64, n int) []core.Record {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			TPID: tpid, TraceID: uint32(seq*100 + uint64(i)),
			TimeNs: seq*1000 + uint64(i), Len: 64, Seq: seq,
			SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 80, DstPort: 443,
			Proto: 6, Dir: 1,
		}
	}
	return recs
}

func testScripts(seq uint64) []ScriptAgg {
	return []ScriptAgg{{
		Script:   "flows.vnt",
		Counters: []uint64{seq, seq * 2},
		Hist:     []uint64{1, 0, 3},
		Flows: []FlowAgg{{
			SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6,
			Packets: seq, Bytes: seq * 100,
		}},
	}}
}

// dbFingerprint summarizes a DB+AggStore's observable state for
// recover-equivalence checks: per-table record sets, ledger snapshots,
// and aggregate snapshots.
func dbFingerprint(db *DB, aggs *AggStore) map[string]any {
	fp := make(map[string]any)
	for _, id := range db.Tables() {
		tbl, _ := db.Table(id)
		var recs []core.Record
		tbl.Scan(func(r core.Record) bool { recs = append(recs, r); return true })
		fp[fmt.Sprintf("table-%d", id)] = recs
	}
	for _, agent := range db.Agents() {
		l, _ := db.Ledger(agent)
		fp["ledger-"+agent] = l
	}
	for _, script := range aggs.Scripts() {
		sa, _ := aggs.Get(script)
		fp["agg-"+script] = sa
	}
	fp["agg-totals"] = aggs.Totals()
	return fp
}

func TestDurabilityRecoverRoundTrip(t *testing.T) {
	db, aggs, d, dcfg := durTestEnv(t, Config{})

	// Admit sequenced batches across two agents and two tracepoints, a
	// checkpoint in the middle, aggregate frames, and a duplicate. Each
	// round's record batch and frame take consecutive numbers of a1's one
	// sequence space: 2*seq-1 and 2*seq.
	for seq := uint64(1); seq <= 6; seq++ {
		if st := d.AdmitRecordBatch("a1", 1, 2*seq-1, batchRecs(1, seq, 3), int64(seq), 0); st != BatchFresh {
			t.Fatalf("a1 seq %d: %v", seq, st)
		}
		if st := d.AdmitAggFrame("a1", 1, 2*seq, testScripts(seq), int64(seq), 0); st != BatchFresh {
			t.Fatalf("a1 agg seq %d: %v", seq, st)
		}
		if seq == 3 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if st := d.AdmitRecordBatch("a2", 5, 1, batchRecs(2, 1, 4), 10, 1); st != BatchFresh {
		t.Fatalf("a2: %v", st)
	}
	want := dbFingerprint(db, aggs)
	// A duplicate after the capture: only fresh payloads are WAL-logged,
	// so a duplicate's bookkeeping (dup count, heartbeat bump) is
	// deliberately transient — the recovered state must match the
	// fingerprint from before it.
	if st := d.AdmitRecordBatch("a1", 1, 3, batchRecs(1, 2, 3), 99, 0); st != BatchDuplicate {
		t.Fatalf("expected duplicate, got %v", st)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// "Crash": all in-memory state dropped; recover from disk alone.
	db2 := NewWith(db.Config())
	aggs2 := NewAggStore()
	d2, stats, err := Recover(db2, aggs2, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if !stats.CheckpointLoaded {
		t.Fatal("no checkpoint loaded")
	}
	got := dbFingerprint(db2, aggs2)
	for k, w := range want {
		if !reflect.DeepEqual(got[k], w) {
			t.Errorf("%s mismatch after recovery:\n got %+v\nwant %+v", k, got[k], w)
		}
	}
	if len(got) != len(want) {
		t.Errorf("fingerprint key count: got %d want %d", len(got), len(want))
	}

	// Re-shipped (already-ingested) batches must dedup after recovery —
	// the exactly-once property the WAL + checkpoint exist to preserve.
	if st := d2.AdmitRecordBatch("a1", 1, 9, batchRecs(1, 5, 3), 100, 0); st != BatchDuplicate {
		t.Fatalf("re-ship after recovery: got %v, want duplicate", st)
	}
	if st := d2.AdmitAggFrame("a1", 1, 8, testScripts(4), 100, 0); st != BatchDuplicate {
		t.Fatalf("agg re-ship after recovery: got %v, want duplicate", st)
	}
	// And genuinely new traffic continues the sequence space.
	if st := d2.AdmitRecordBatch("a1", 1, 13, batchRecs(1, 7, 2), 101, 0); st != BatchFresh {
		t.Fatalf("new batch after recovery: got %v, want fresh", st)
	}
}

// TestRecoverReplayIdempotent: recovering the same directory twice into
// fresh stores yields identical state (recover twice ≡ recover once) —
// the property that makes a crash during recovery harmless.
func TestRecoverReplayIdempotent(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{})
	for seq := uint64(1); seq <= 5; seq++ {
		d.AdmitRecordBatch("a1", 1, seq, batchRecs(1, seq, 3), int64(seq), 0)
		if seq == 2 {
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.Close()

	fps := make([]map[string]any, 2)
	for i := range fps {
		dbN := NewWith(db.Config())
		aggsN := NewAggStore()
		dN, _, err := Recover(dbN, aggsN, dcfg)
		if err != nil {
			t.Fatal(err)
		}
		fps[i] = dbFingerprint(dbN, aggsN)
		dN.Close()
	}
	if !reflect.DeepEqual(fps[0], fps[1]) {
		t.Errorf("recovery not idempotent:\nfirst  %+v\nsecond %+v", fps[0], fps[1])
	}
}

// TestWALTornTailEveryOffset truncates the WAL at every byte offset.
// Recovery must never panic and must recover exactly the prefix of
// complete entries.
func TestWALTornTailEveryOffset(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{SegmentBytes: 1 << 20}) // no seals: all state in WAL
	const batches = 4
	for seq := uint64(1); seq <= batches; seq++ {
		d.AdmitRecordBatch("a1", 1, seq, batchRecs(1, seq, 2), int64(seq), 0)
	}
	d.Close()

	files, err := listWALFiles(dcfg.Dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("wal files: %v err %v", files, err)
	}
	walPath := filepath.Join(dcfg.Dir, files[0])
	whole, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Frame boundaries of the intact log, so each truncation offset maps
	// to the exact number of complete entries it preserves.
	var boundaries []int // boundaries[i] = end offset of frame i
	for pos := 0; pos+walFrameHeader <= len(whole); {
		plen := int(binary.BigEndian.Uint32(whole[pos : pos+4]))
		pos += walFrameHeader + plen
		boundaries = append(boundaries, pos)
	}
	entriesBelow := func(off int) uint64 {
		n := uint64(0)
		for _, end := range boundaries {
			if end <= off {
				n++
			}
		}
		return n
	}
	frameAligned := func(off int) bool {
		if off == 0 {
			return true
		}
		for _, end := range boundaries {
			if end == off {
				return true
			}
		}
		return false
	}

	for off := 0; off <= len(whole); off++ {
		tdir := t.TempDir()
		wdir := filepath.Join(tdir, "wal")
		os.MkdirAll(wdir, 0o755)
		if err := os.WriteFile(filepath.Join(wdir, files[0]), whole[:off], 0o644); err != nil {
			t.Fatal(err)
		}
		dbN := NewWith(Config{SegmentBytes: 1 << 20, DataDir: filepath.Join(tdir, "data")})
		aggsN := NewAggStore()
		dN, stats, err := Recover(dbN, aggsN, DurabilityConfig{Dir: wdir})
		if err != nil {
			t.Fatalf("offset %d: %v", off, err)
		}
		wantEntries := entriesBelow(off)
		if stats.ReplayedEntries != wantEntries {
			t.Fatalf("offset %d: replayed %d entries, want %d", off, stats.ReplayedEntries, wantEntries)
		}
		tbl, ok := dbN.Table(1)
		var gotRecs int
		if ok {
			gotRecs = tbl.Len()
		}
		if gotRecs != int(wantEntries)*2 {
			t.Fatalf("offset %d: %d records, want %d", off, gotRecs, wantEntries*2)
		}
		// A prefix that isn't frame-aligned must be reported (and
		// truncated) as a torn tail; a frame-aligned prefix is a clean
		// shorter log.
		if wantTorn := !frameAligned(off); (stats.TornTails == 1) != wantTorn {
			t.Fatalf("offset %d: tornTails=%d, want torn=%v", off, stats.TornTails, wantTorn)
		}
		dN.Close()
	}
	_ = db
}

// TestConcurrentCheckpointIngest runs admissions and checkpoints
// concurrently; under -race this pins down the barrier, and afterward a
// recovery must see every admitted batch.
func TestConcurrentCheckpointIngest(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{SegmentBytes: 8 * core.RecordSize})
	const agents, perAgent = 4, 50
	var wg sync.WaitGroup
	for a := 0; a < agents; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			name := fmt.Sprintf("agent-%d", a)
			for seq := uint64(1); seq <= perAgent; seq++ {
				d.AdmitRecordBatch(name, 1, seq, batchRecs(uint32(a+1), seq, 2), int64(seq), 0)
				d.AdmitAggFrame(name, 1, seq, testScripts(seq), int64(seq), 0)
			}
		}(a)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := d.Checkpoint(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.Close()

	db2 := NewWith(db.Config())
	aggs2 := NewAggStore()
	d2, _, err := Recover(db2, aggs2, dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for a := 0; a < agents; a++ {
		tbl, ok := db2.Table(uint32(a + 1))
		if !ok || tbl.Len() != perAgent*2 {
			n := 0
			if ok {
				n = tbl.Len()
			}
			t.Errorf("table %d: %d records after recovery, want %d", a+1, n, perAgent*2)
		}
		l, ok := db2.Ledger(fmt.Sprintf("agent-%d", a))
		if !ok || l.HighWaterSeq != perAgent {
			t.Errorf("agent-%d hwm %d, want %d", a, l.HighWaterSeq, perAgent)
		}
	}
}

// TestCheckpointRetiresWAL: after a checkpoint only the fresh generation
// remains, and old checkpoints prune down to the keep limit.
func TestCheckpointRetiresWAL(t *testing.T) {
	_, _, d, dcfg := durTestEnv(t, Config{})
	for i := 0; i < 4; i++ {
		d.AdmitRecordBatch("a1", 1, uint64(i+1), batchRecs(1, uint64(i+1), 2), int64(i), 0)
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	d.Close()
	files, _ := listWALFiles(dcfg.Dir)
	if len(files) != 1 {
		t.Errorf("wal generations after checkpoints: %v, want 1", files)
	}
	ents, _ := os.ReadDir(dcfg.Dir)
	ckpts := 0
	for _, e := range ents {
		if _, ok := parseCheckpointFileName(e.Name()); ok {
			ckpts++
		}
	}
	if ckpts != checkpointsKept {
		t.Errorf("checkpoints on disk: %d, want %d", ckpts, checkpointsKept)
	}
}

func TestSpillErrorsSurfaced(t *testing.T) {
	dir := t.TempDir()
	db := NewWith(Config{SegmentBytes: 2 * core.RecordSize, DataDir: dir})
	// Make the data dir unusable: replace it with a file so MkdirAll and
	// writes fail.
	os.RemoveAll(dir)
	if err := os.WriteFile(dir, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	db.Insert(batchRecs(1, 1, 4)) // crosses SegmentBytes → seal → spill fails
	tot := db.StorageTotals()
	if tot.SpillErrors == 0 {
		t.Fatal("spill failure not counted in StorageStats")
	}
	if tot.LastSpillError == "" {
		t.Error("spill failure message not surfaced")
	}
	if tot.Records() != 4 {
		t.Errorf("records lost on spill failure: %d", tot.Records())
	}
}

// TestSpillRemakesRemovedDataDir: a data directory removed after the
// first seal (by a tmp cleaner, an operator) is made again by the next
// spill, which lands with no spill error.
func TestSpillRemakesRemovedDataDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "data")
	db := NewWith(Config{SegmentBytes: 2 * core.RecordSize, DataDir: dir})
	db.Insert(batchRecs(1, 1, 2))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	db.Insert(batchRecs(1, 3, 2))
	tot := db.StorageTotals()
	if tot.SpillErrors != 0 || tot.SpilledExtents != 2 {
		t.Fatalf("%d spill errors (%s), %d spilled extents; want 0 and 2", tot.SpillErrors, tot.LastSpillError, tot.SpilledExtents)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.vnp")); len(files) != 1 {
		t.Fatalf("%d pack files in the remade directory, want 1", len(files))
	}
	db.Close()
}

// TestCheckpointRemakesRemovedDataDir: a durable store whose data
// directory is removed — once before a seal, once before a checkpoint that
// seals nothing — makes its pack whole again each time from the extents
// it still reads through the pack's open file, so every checkpoint
// succeeds and, the WAL retired, recovery finds every record.
func TestCheckpointRemakesRemovedDataDir(t *testing.T) {
	cfg := Config{SegmentBytes: 2 * core.RecordSize}
	db, _, d, dcfg := durTestEnv(t, cfg)
	dir := db.Config().DataDir
	admit := func(seq uint64) {
		t.Helper()
		if st := d.AdmitRecordBatch("a", 1, seq, batchRecs(1, seq, 2), 0, 0); st != BatchFresh {
			t.Fatalf("batch %d: %v", seq, st)
		}
	}
	admit(1)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	admit(2)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the data directory was removed: %v", err)
	}
	admit(3)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tot := db.StorageTotals(); tot.SpillErrors != 0 || tot.SpilledExtents != 3 {
		t.Fatalf("%d spill errors (%s), %d spilled extents; want 0 and 3", tot.SpillErrors, tot.LastSpillError, tot.SpilledExtents)
	}
	d.Close()
	db.Close()

	db = NewWith(db.Config())
	defer db.Close()
	d, stats, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if stats.AdoptedRecords != 6 || stats.ReplayedRecords != 0 || stats.CorruptExtents != 0 {
		t.Fatalf("recovery: %+v", stats)
	}
	tbl, _ := db.Table(1)
	if got := scanSeqs(tbl.Scan); !reflect.DeepEqual(got, []uint64{1, 1, 2, 2, 3, 3}) {
		t.Fatalf("recovered seqs %v", got)
	}
}

// failingWrites is the operating system's fileSystem with every pack
// write failing while fail is set, as a full disk fails them.
type failingWrites struct {
	osFS
	fail atomic.Bool
}

func (f *failingWrites) writeAt(file *os.File, b []byte, off int64) error {
	if f.fail.Load() && filepath.Ext(file.Name()) == ".vnp" {
		return errors.New("no space left on device")
	}
	return f.osFS.writeAt(file, b, off)
}

// TestCheckpointRespillsFailedExtents: extents whose append failed stay
// resident, and a checkpoint cut while they still cannot be appended
// fails and keeps the WAL. Once the disk takes writes again the next
// checkpoint appends them, in seal order, before it retires the WAL, so
// recovery adopts every record and replays none.
func TestCheckpointRespillsFailedExtents(t *testing.T) {
	base := t.TempDir()
	cfg := Config{SegmentBytes: 2 * core.RecordSize, DataDir: filepath.Join(base, "data")}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	db := NewWith(cfg)
	fsys := &failingWrites{}
	db.fs = fsys
	d, _, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	admit := func(seq uint64) {
		t.Helper()
		if st := d.AdmitRecordBatch("a", 1, seq, batchRecs(1, seq, 2), 0, 0); st != BatchFresh {
			t.Fatalf("batch %d: %v", seq, st)
		}
	}
	admit(1)
	fsys.fail.Store(true)
	admit(2)
	admit(3)
	if tot := db.StorageTotals(); tot.SpillErrors != 2 || tot.SpilledExtents != 1 {
		t.Fatalf("%d spill errors, %d spilled extents; want 2 and 1", tot.SpillErrors, tot.SpilledExtents)
	}
	if err := d.Checkpoint(); err == nil {
		t.Fatal("checkpoint over resident extents succeeded")
	}
	if st := d.Stats(); st.Checkpoints != 0 {
		t.Fatalf("%d checkpoints, want none", st.Checkpoints)
	}
	fsys.fail.Store(false)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tot := db.StorageTotals(); tot.SpilledExtents != 3 || tot.SealedResidentBytes != 0 {
		t.Fatalf("after the checkpoint %d spilled extents, %d resident bytes; want 3 and 0", tot.SpilledExtents, tot.SealedResidentBytes)
	}
	d.Close()
	db.Close()

	db = NewWith(cfg)
	defer db.Close()
	d, stats, err := Recover(db, NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if stats.AdoptedRecords != 6 || stats.ReplayedRecords != 0 || stats.CorruptExtents != 0 {
		t.Fatalf("recovery: %+v", stats)
	}
	tbl, _ := db.Table(1)
	if got := scanSeqs(tbl.Scan); !reflect.DeepEqual(got, []uint64{1, 1, 2, 2, 3, 3}) {
		t.Fatalf("recovered seqs %v", got)
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "interval": FsyncInterval, "never": FsyncNever,
		"Always": FsyncAlways, " never ": FsyncNever,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Errorf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Error("bad policy accepted")
	}
	for _, p := range []FsyncPolicy{FsyncNever, FsyncInterval, FsyncAlways} {
		rt, err := ParseFsyncPolicy(p.String())
		if err != nil || rt != p {
			t.Errorf("round trip %v: %v, %v", p, rt, err)
		}
	}
}

func TestRecoverRequiresDirs(t *testing.T) {
	db := New() // no DataDir
	if _, _, err := Recover(db, NewAggStore(), DurabilityConfig{Dir: t.TempDir()}); err == nil {
		t.Error("Recover accepted a DB without DataDir")
	}
	db2 := NewWith(Config{DataDir: t.TempDir()})
	if _, _, err := Recover(db2, NewAggStore(), DurabilityConfig{}); err == nil {
		t.Error("Recover accepted an empty durability dir")
	}
}

// TestRecoverColdStartKeepsUncoveredExtents: an unlogged collector seals
// its heads into the data directory; a durable start over that directory
// with an empty WAL has no checkpoint and no entry to replay them from,
// so it must fail naming the directory rather than drop them.
func TestRecoverColdStartKeepsUncoveredExtents(t *testing.T) {
	base := t.TempDir()
	cfg := Config{SegmentBytes: 4 * core.RecordSize, DataDir: filepath.Join(base, "data")}
	fill(NewWith(cfg), 1, 6, 2, 77, 10)
	before, _ := filepath.Glob(filepath.Join(cfg.DataDir, "*.vnp"))
	if len(before) == 0 {
		t.Fatal("unlogged DB spilled no extents")
	}
	wal := filepath.Join(base, "wal")
	_, stats, err := Recover(NewWith(cfg), NewAggStore(), DurabilityConfig{Dir: wal})
	if err == nil || !strings.Contains(err.Error(), cfg.DataDir) ||
		!strings.Contains(err.Error(), fmt.Sprintf("%d pack files", len(before))) {
		t.Fatalf("cold start over uncovered extents: err = %v (stats %+v)", err, stats)
	}
	if after, _ := filepath.Glob(filepath.Join(cfg.DataDir, "*.vnp")); !reflect.DeepEqual(after, before) {
		t.Fatalf("refused recovery changed the data dir: %v -> %v", before, after)
	}
	// A durable collector that crashed before its first append left an
	// empty generation and no extents: it still starts.
	fresh := Config{SegmentBytes: cfg.SegmentBytes, DataDir: filepath.Join(base, "data2")}
	d, _, err := Recover(NewWith(fresh), NewAggStore(), DurabilityConfig{Dir: wal})
	if err != nil {
		t.Fatalf("cold start with no extents: %v", err)
	}
	d.Close()
	d, _, err = Recover(NewWith(fresh), NewAggStore(), DurabilityConfig{Dir: wal})
	if err != nil {
		t.Fatalf("restart over an empty generation: %v", err)
	}
	d.Close()
}

// TestWALRecordSection pins the kind-1 record section to the records'
// field-wise wire encoding (MarshalTo, padding bytes zero), which the
// encoder now appends as the records' own bytes, and holds the one-copy
// replay to the field-wise decode.
func TestWALRecordSection(t *testing.T) {
	recs := batchRecs(3, 7, 5)
	var wire []byte
	for i := range recs {
		wire = recs[i].Marshal(wire)
	}
	e := walEntry{LSN: 12, Kind: walKindRecords, Agent: "a1", Epoch: 2, Seq: 7, TimeNs: 99, Records: recs}
	payload := mustWALPayload(t, &e)
	if !bytes.HasSuffix(payload, wire) {
		t.Fatalf("record section of the %d-byte payload is not the field-wise encoding", len(payload))
	}
	var got walEntry
	if err := decodeWALPayload(payload, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, recs) {
		t.Fatalf("decoded records differ: %+v vs %+v", got.Records, recs)
	}
}

// A log written before aggregate bodies became the script section holds
// kind-2 entries, which no decoder reads any more. Recovering it must fail
// naming the retired kind and leave the generation byte for byte as it
// was: treating the entry as a torn tail would truncate every frame after
// it, records included.
func TestRecoverRefusesRetiredAggregateKind(t *testing.T) {
	base := t.TempDir()
	cfg := Config{DataDir: filepath.Join(base, "data")}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// A kind-2 payload in its dense form: the ledger prefix, then one
	// script "s" with counters {10, 20}, no cpu hits, a two-bucket
	// histogram and one flow.
	dense := []byte{2, 2}                    // LSN, kind
	dense = append(dense, 2, 'a', '1', 1, 1) // agent, epoch, seq
	dense = append(dense, 12, 0)             // zigzag time 6, degraded
	dense = append(dense, 1, 1, 's')         // script count, name
	dense = append(dense, 2, 10, 20, 0)      // counters, cpu hits
	dense = append(dense, 2, 0, 7)           // histogram
	dense = append(dense, 1, 1, 2, 3, 4, 17, 5, 6)
	var log []byte
	log = mustWALFrame(t, log, &walEntry{LSN: 1, Kind: walKindRecords, Agent: "a1", Epoch: 1, Seq: 1, TimeNs: 5, Records: batchRecs(1, 1, 3)})
	log = binary.BigEndian.AppendUint32(log, uint32(len(dense)))
	log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(dense))
	log = append(log, dense...)
	log = mustWALFrame(t, log, &walEntry{LSN: 3, Kind: walKindRecords, Agent: "a1", Epoch: 1, Seq: 2, TimeNs: 7, Records: batchRecs(1, 2, 3)})
	path := filepath.Join(dcfg.Dir, walFileName(1))
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	d, stats, err := Recover(NewWith(cfg), NewAggStore(), dcfg)
	if err == nil {
		d.Close()
		t.Fatalf("recovered a log holding a kind-2 entry: %+v", stats)
	}
	if !strings.Contains(err.Error(), "kind 2") || !strings.Contains(err.Error(), "retired") {
		t.Fatalf("recovery failed without naming the retired kind: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
		t.Fatalf("recovery changed the generation: %d bytes left of %d (%v)", len(got), len(log), err)
	}
}

// A log written while agents numbered aggregate frames in a sequence
// space of their own holds kind-3 entries. Replayed into the one ledger,
// such a frame would dedup against the record batch of the same seq, so
// recovery refuses the log, names the kind, and leaves it byte for byte.
func TestRecoverRefusesOwnSequenceAggregateKind(t *testing.T) {
	base := t.TempDir()
	cfg := Config{DataDir: filepath.Join(base, "data")}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	if err := os.MkdirAll(dcfg.Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	// Kind 3 had kind 4's body: encode a kind-4 entry and relabel it.
	frame := mustWALPayload(t, &walEntry{LSN: 2, Kind: walKindAggs, Agent: "a1", Epoch: 1, Seq: 1, TimeNs: 6, Scripts: testScripts(1)})
	frame[1] = walKindRetiredSeq
	var log []byte
	log = mustWALFrame(t, log, &walEntry{LSN: 1, Kind: walKindRecords, Agent: "a1", Epoch: 1, Seq: 1, TimeNs: 5, Records: batchRecs(1, 1, 3)})
	log = binary.BigEndian.AppendUint32(log, uint32(len(frame)))
	log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(frame))
	log = append(log, frame...)
	path := filepath.Join(dcfg.Dir, walFileName(1))
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}

	d, stats, err := Recover(NewWith(cfg), NewAggStore(), dcfg)
	if err == nil {
		d.Close()
		t.Fatalf("recovered a log holding a kind-3 entry: %+v", stats)
	}
	if !errors.Is(err, errWALKindRetired) || !strings.Contains(err.Error(), "kind 3") {
		t.Fatalf("recovery failed without naming the retired kind: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, log) {
		t.Fatalf("recovery changed the generation: %d bytes left of %d (%v)", len(got), len(log), err)
	}
}

// A version-1 checkpoint carried a second, aggregate-only ledger per
// agent. Recovery must refuse it by name rather than skip it as corrupt
// (and then replay the WAL tail with no ledger under it), and must leave
// the file as it was.
func TestRecoverRefusesVersion1Checkpoint(t *testing.T) {
	db, _, d, dcfg := durTestEnv(t, Config{})
	d.AdmitRecordBatch("a1", 1, 1, batchRecs(1, 1, 3), 1, 0)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.AdmitRecordBatch("a1", 1, 2, batchRecs(1, 2, 3), 2, 0)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := listCheckpoints(dcfg.Dir)
	if err != nil || len(names) != 1 {
		t.Fatalf("checkpoints %v (%v), want one", names, err)
	}
	path := filepath.Join(dcfg.Dir, names[0])
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	old[4] = 1 // the version byte; the CRC covers the payload only
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, stats, err := Recover(NewWith(db.Config()), NewAggStore(), dcfg)
	if err == nil {
		d2.Close()
		t.Fatalf("recovered over a version-1 checkpoint: %+v", stats)
	}
	if !errors.Is(err, errCheckpointVersion) || !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("recovery failed without naming the checkpoint version: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("recovery changed the checkpoint (%v)", err)
	}
}

// An aggregate frame the script section cannot hold is still merged, but
// stages nothing in the log: it takes no LSN, counts as a WAL error, and
// the frames around it replay.
func TestWALRefusedAggregateFrameStagesNothing(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncNever, FsyncInterval} {
		base := t.TempDir()
		cfg := Config{DataDir: filepath.Join(base, "data")}
		dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal"), Fsync: policy}
		d, _, err := Recover(NewWith(cfg), NewAggStore(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		wide := []ScriptAgg{{Script: "wide", Hist: make([]uint64, MaxSparseLen+1)}}
		d.AdmitAggFrame("a1", 1, 1, testScripts(1), 1, 0)
		if st := d.AdmitAggFrame("a1", 1, 2, wide, 2, 0); st != BatchFresh {
			t.Fatalf("%v: refused frame admitted as %v", policy, st)
		}
		d.AdmitAggFrame("a1", 1, 3, testScripts(1), 3, 0)
		s := d.Stats()
		if s.WALErrors != 1 || s.WALEntries != 2 || s.NextLSN != 3 || !strings.Contains(s.LastError, "sparse") {
			t.Fatalf("%v: %d WAL errors (%q), %d entries, next LSN %d; want 1, 2 and 3", policy, s.WALErrors, s.LastError, s.WALEntries, s.NextLSN)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		d, stats, err := Recover(NewWith(cfg), NewAggStore(), dcfg)
		if err != nil {
			t.Fatal(err)
		}
		d.Close()
		if stats.ReplayedFrames != 2 || stats.TornTails != 0 {
			t.Fatalf("%v: replayed %d frames with %d torn tails, want 2 and none", policy, stats.ReplayedFrames, stats.TornTails)
		}
	}
}
