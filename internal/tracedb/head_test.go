package tracedb

import (
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"vnettracer/internal/core"
)

// Steady-state insertion allocates per segment (one head array, one
// sealed extent and its blob or its spill), never per record: the head is
// raw records and nothing else, and the seal encodes through the table's
// reused scratch.
func TestInsertAllocatesPerBatchNotPerRecord(t *testing.T) {
	const perBatch = 2048
	recs := make([]core.Record, perBatch)
	for i := range recs {
		recs[i] = core.Record{TPID: 1, TraceID: uint32(i + 1), TimeNs: uint64(i) * 1000, Len: 100, Seq: uint64(i)}
	}
	for _, dataDir := range []string{"", t.TempDir()} {
		db := NewWith(Config{DataDir: dataDir})
		for i := 0; i < 8; i++ { // warm: table exists, several seals behind it
			db.Insert(recs)
		}
		// Every third batch tips the default 256 KiB segment and seals.
		allocs := testing.AllocsPerRun(60, func() { db.Insert(recs) })
		if allocs > 16 {
			t.Fatalf("DataDir %q: Insert of %d records: %v allocs per batch, want a handful (head array + seal)", dataDir, perBatch, allocs)
		}
		st := db.StorageTotals()
		if st.Extents < 20 || (st.SpilledExtents == st.Extents) != (dataDir != "") {
			t.Fatalf("DataDir %q: %d extents sealed, %d spilled: the measured inserts did not cover seals", dataDir, st.Extents, st.SpilledExtents)
		}
	}
}

// lookupFixture is a table whose special trace IDs sit at known places
// relative to the seal boundaries, in a stream of filler records with
// unique IDs. Every record has a unique Seq, so record equality is exact.
// Batches go in through insert: straight into the DB, or through a
// durability layer's front door when the leg recovers.
type lookupFixture struct {
	db       *DB
	tbl      *Table
	insert   func([]core.Record)
	batchLen int
	nextSeq  uint64
}

const (
	idStraddler  = 7  // one record in every batch ever inserted
	idSealedOnly = 8  // two records, both in the first batch
	idHeadOnly   = 9  // two records, both in the last batch before the checks
	idNowhere    = 10 // never inserted
	fixtureSkew  = 500
)

// batch builds one insert run: fillers, one straddler record in the
// middle, and two records of extra (0 for none) around it.
func (f *lookupFixture) batch(extra uint32) []core.Record {
	recs := make([]core.Record, f.batchLen)
	for i := range recs {
		seq := f.nextSeq
		f.nextSeq++
		id := uint32(1000 + seq)
		switch {
		case i == f.batchLen/2:
			id = idStraddler
		case extra != 0 && (i == 1 || i == f.batchLen-2):
			id = extra
		}
		recs[i] = core.Record{TPID: 1, TraceID: id, TimeNs: seq*10 + 5, Len: 100, Seq: seq}
	}
	return recs
}

// scanFor is the brute-force reference: every record of id, in insertion
// order, from a full scan.
func (f *lookupFixture) scanFor(id uint32) []core.Record {
	var out []core.Record
	f.tbl.Scan(func(r core.Record) bool {
		if r.TraceID == id {
			out = append(out, r)
		}
		return true
	})
	return out
}

// checkLookup holds ByTraceID of id against want: raw timestamps, the
// fixture's skew notwithstanding.
func (f *lookupFixture) checkLookup(t *testing.T, id uint32, want []core.Record) {
	t.Helper()
	if got := f.tbl.ByTraceID(id); !slices.Equal(got, want) {
		t.Errorf("ByTraceID(%d) = %d records %v, want %d records %v", id, len(got), got, len(want), want)
	}
}

// TestLookupMatchesScan checks trace-ID lookups, which scan the head and
// probe Bloom-admitted extents block by block, against a brute-force Scan:
// for an ID whose records straddle two sealed extents and the live head,
// one only in the head, one only sealed, and one absent — first on a quiet
// table, then while inserts keep moving the head/extent boundary under the
// lookups. Each segment size runs three legs: extents resident in memory,
// extents spilled to a data directory, and extents adopted by Recover
// after the store that sealed them was closed. Run it under -race.
func TestLookupMatchesScan(t *testing.T) {
	for _, segBytes := range []int{4 << 10, DefaultSegmentBytes} {
		t.Run(fmt.Sprintf("segment=%d", segBytes), func(t *testing.T) {
			for _, leg := range []string{"resident", "spilled", "recovered"} {
				t.Run(leg, func(t *testing.T) { lookupMatchesScan(t, segBytes, leg) })
			}
		})
	}
}

func lookupMatchesScan(t *testing.T, segBytes int, leg string) {
	cfg := Config{SegmentBytes: segBytes}
	if leg != "resident" {
		cfg.DataDir = filepath.Join(t.TempDir(), "data")
	}
	// A little over a quarter segment per batch: a seal every fourth
	// batch, and a batch after a seal stays in the head.
	f := &lookupFixture{batchLen: segBytes/core.RecordSize/4 + 1}
	// open points the fixture at a store over cfg: a fresh one, or — on
	// the recovered leg — whatever the directories hold.
	var dur *Durability
	var walSeq uint64
	open := func() RecoveryStats {
		var stats RecoveryStats
		f.db = NewWith(cfg)
		f.insert = f.db.Insert
		if leg == "recovered" {
			var err error
			dur, stats, err = Recover(f.db, NewAggStore(), DurabilityConfig{Dir: filepath.Join(filepath.Dir(cfg.DataDir), "wal")})
			if err != nil {
				t.Fatal(err)
			}
			f.insert = func(recs []core.Record) {
				walSeq++
				if st := dur.AdmitRecordBatch("agent", 0, walSeq, recs, 0, 0); st != BatchFresh {
					t.Errorf("batch %d admitted as %v", walSeq, st)
				}
			}
		}
		var ok bool
		if f.tbl, ok = f.db.Table(1); !ok { // recovery has not made it
			var err error
			if f.tbl, err = f.db.CreateTable(1, "t"); err != nil {
				t.Fatal(err)
			}
		}
		f.db.SetSkew(1, fixtureSkew)
		return stats
	}
	open()
	tbl := f.tbl

	f.insert(f.batch(idSealedOnly))
	for tbl.Extents() < 2 {
		f.insert(f.batch(0))
	}
	if leg == "recovered" {
		// The head is empty here, so the checkpoint's cut falls exactly
		// on the second seal: recovery adopts both extents and replays
		// only the head batch below.
		if err := dur.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	f.insert(f.batch(idHeadOnly))
	if leg == "recovered" {
		if err := dur.Close(); err != nil {
			t.Fatal(err)
		}
		if stats := open(); stats.AdoptedExtents != 2 || stats.CorruptExtents != 0 || stats.ReplayedRecords != uint64(f.batchLen) {
			t.Fatalf("recovery: %+v", stats)
		}
		defer func() { dur.Close() }()
		tbl = f.tbl
	}
	batches := int(f.nextSeq) / f.batchLen
	st := tbl.Storage()
	if st.Extents != 2 || st.HeadRecords != uint64(f.batchLen) || (st.SpilledExtents == 2) != (leg != "resident") {
		t.Fatalf("fixture has %d extents (%d spilled) and %d head records, want 2 and %d", st.Extents, st.SpilledExtents, st.HeadRecords, f.batchLen)
	}

	straddler := f.scanFor(idStraddler)
	sealedOnly := f.scanFor(idSealedOnly)
	headOnly := f.scanFor(idHeadOnly)
	if len(straddler) != batches || len(sealedOnly) != 2 || len(headOnly) != 2 {
		t.Fatalf("fixture holds %d/%d/%d records of the straddling/sealed/head IDs, want %d/2/2",
			len(straddler), len(sealedOnly), len(headOnly), batches)
	}
	if lastSealed := uint64(tbl.Len() - f.batchLen); sealedOnly[1].Seq >= lastSealed || headOnly[0].Seq < lastSealed {
		t.Fatalf("fixture misplaced: sealed-only ends at seq %d, head-only starts at %d, head starts at %d",
			sealedOnly[1].Seq, headOnly[0].Seq, lastSealed)
	}
	f.checkLookup(t, idStraddler, straddler)
	f.checkLookup(t, idSealedOnly, sealedOnly)
	f.checkLookup(t, idHeadOnly, headOnly)
	f.checkLookup(t, idNowhere, nil)

	// Concurrent phase: every further batch carries one more straddler
	// record, so a lookup must return a prefix of the final answer no
	// shorter than what was inserted before it began and no longer than
	// what had begun when it ended. The other IDs' answers must not move
	// as their records migrate from the head into extents.
	const moreBatches = 14
	var begun, landed atomic.Int64
	begun.Store(int64(batches))
	landed.Store(int64(batches))
	prepared := make([][]core.Record, moreBatches)
	for i := range prepared {
		prepared[i] = f.batch(0)
	}
	var inserting sync.WaitGroup
	inserting.Add(1)
	go func() {
		defer inserting.Done()
		for _, recs := range prepared {
			begun.Add(1)
			f.insert(recs)
			landed.Add(1)
		}
	}()
	for done := false; !done && !t.Failed(); {
		done = landed.Load() == int64(batches+moreBatches)
		lo := landed.Load()
		got := tbl.ByTraceID(idStraddler)
		hi := begun.Load()
		if n := int64(len(got)); n < lo || n > hi {
			t.Errorf("ByTraceID(straddler) returned %d records; %d were in before it began, %d when it ended", n, lo, hi)
		}
		for i, r := range got {
			if want := uint64(i*f.batchLen + f.batchLen/2); r.Seq != want {
				t.Errorf("ByTraceID(straddler)[%d] has seq %d, want %d: not insertion order", i, r.Seq, want)
				break
			}
		}
		f.checkLookup(t, idSealedOnly, sealedOnly)
		f.checkLookup(t, idHeadOnly, headOnly)
		f.checkLookup(t, idNowhere, nil)
	}
	inserting.Wait()

	if tbl.Extents() < 5 {
		t.Fatalf("only %d extents after the concurrent phase: the head/extent boundary did not move", tbl.Extents())
	}
	straddler = f.scanFor(idStraddler)
	if len(straddler) != batches+moreBatches {
		t.Fatalf("scan finds %d straddler records, want %d", len(straddler), batches+moreBatches)
	}
	f.checkLookup(t, idStraddler, straddler)
	f.checkLookup(t, idHeadOnly, f.scanFor(idHeadOnly))
	if errs := tbl.Storage().ReadErrors; errs != 0 {
		t.Fatalf("%d read errors", errs)
	}
}
