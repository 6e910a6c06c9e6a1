package tracedb

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vnettracer/internal/core"
)

// damageFixture is a durable store whose table 1 holds extents of three
// blocks each (2×256+50 records, trace IDs unique and equal to Seq+1) and
// a few head records, every extent spilled and under a checkpoint.
type damageFixture struct {
	db   *DB
	dur  *Durability
	dcfg DurabilityConfig
	tbl  *Table
}

const (
	damageExtentRecords = 2*blockRecords + 50
	damageExtents       = 3
	damageHeadRecords   = 20
	damageRecords       = damageExtents*damageExtentRecords + damageHeadRecords
)

func newDamageFixture(t *testing.T) *damageFixture {
	t.Helper()
	db, _, dur, dcfg := durTestEnv(t, Config{SegmentBytes: damageExtentRecords * core.RecordSize})
	admit := func(seq uint64, first, n int) {
		recs := typicalRecords(first + n)[first:]
		for i := range recs {
			recs[i].TPID, recs[i].TraceID, recs[i].Seq = 1, uint32(first+i+1), uint64(first+i)
		}
		if st := dur.AdmitRecordBatch("agent", 0, seq, recs, 0, 0); st != BatchFresh {
			t.Fatalf("batch %d: %v", seq, st)
		}
	}
	for e := 0; e < damageExtents; e++ {
		admit(uint64(e+1), e*damageExtentRecords, damageExtentRecords)
	}
	if err := dur.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	admit(damageExtents+1, damageExtents*damageExtentRecords, damageHeadRecords)
	f := &damageFixture{db: db, dur: dur, dcfg: dcfg}
	f.tbl, _ = db.Table(1)
	// Every extent keeps its file open, so the damage below is done to
	// files already open: what a kept handle must not paper over.
	if st := f.tbl.Storage(); st.SpilledExtents != damageExtents || st.OpenHandles != damageExtents || st.HeadRecords != damageHeadRecords {
		t.Fatalf("fixture: %+v", st)
	}
	t.Cleanup(func() { f.dur.Close(); f.db.Close() })
	return f
}

// extentPath is the spilled file of table 1's extent seq.
func (f *damageFixture) extentPath(seq int) string {
	return filepath.Join(f.db.Config().DataDir, fmt.Sprintf("tp%08x-%06d.vnx", 1, seq))
}

// recover closes the store and reopens its directories in a fresh one.
func (f *damageFixture) recover(t *testing.T) RecoveryStats {
	t.Helper()
	if err := f.dur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.db.Close(); err != nil {
		t.Fatal(err)
	}
	f.db = NewWith(f.db.Config())
	var stats RecoveryStats
	var err error
	if f.dur, stats, err = Recover(f.db, NewAggStore(), f.dcfg); err != nil {
		t.Fatal(err)
	}
	f.tbl, _ = f.db.Table(1)
	return stats
}

// scanSeqs returns the Seq of every record a scan delivers, in order.
func scanSeqs(scan func(func(core.Record) bool)) []uint64 {
	var out []uint64
	scan(func(r core.Record) bool { out = append(out, r.Seq); return true })
	return out
}

// checkExtentMissing holds every query against a table whose extent 1 is
// failing (readErrs: each query that reaches it counts one read error) or
// was never adopted (!readErrs): the extent's records are gone from every
// answer, whole, and every other record is still there.
func (f *damageFixture) checkExtentMissing(t *testing.T, readErrs bool) {
	t.Helper()
	var want []uint64
	for s := uint64(0); s < damageRecords; s++ {
		if s/damageExtentRecords != 1 {
			want = append(want, s)
		}
	}
	errs := f.tbl.Storage().ReadErrors
	expectErr := func(what string) {
		t.Helper()
		if readErrs {
			errs++
		}
		if got := f.tbl.Storage().ReadErrors; got != errs {
			t.Fatalf("ReadErrors = %d after %s, want %d", got, what, errs)
		}
	}
	if got := scanSeqs(f.tbl.Scan); !slices.Equal(got, want) {
		t.Fatalf("Scan delivered %d records, want the %d outside extent 1", len(got), len(want))
	}
	expectErr("Scan")
	if got := scanSeqs(f.tbl.ScanAligned); !slices.Equal(got, want) {
		t.Fatalf("ScanAligned delivered %d records, want the %d outside extent 1", len(got), len(want))
	}
	expectErr("ScanAligned")
	// An ID in the failing extent's second block — the damaged one, when
	// the damage is to a block.
	lost := uint32(damageExtentRecords + blockRecords + 7 + 1)
	if got := f.tbl.ByTraceID(lost); len(got) != 0 {
		t.Fatalf("ByTraceID answered from the failed extent: %v", got)
	}
	expectErr("ByTraceID")
	// Every other extent, and the head, still answer.
	for _, seq := range []uint64{3, damageExtentRecords - 1, 2 * damageExtentRecords, 3*damageExtentRecords - 1, damageRecords - 1} {
		got := f.tbl.ByTraceID(uint32(seq + 1))
		if len(got) != 1 || got[0].Seq != seq {
			t.Fatalf("ByTraceID(%d) = %v, want the record with seq %d", seq+1, got, seq)
		}
	}
}

// TestFailedExtentDeliversNothing damages one spilled extent four ways,
// each in place, under the open handle the table keeps for it, and
// checks, on the live table that sealed it and on a store recovered
// from the same directory, that the extent contributes no record to any
// query — not the prefix that decodes before the damage — while every
// other extent still answers, and that each failure is counted: as a read
// error per query on a table that holds the extent, as a corrupt extent
// at recovery when its tail does not verify.
func TestFailedExtentDeliversNothing(t *testing.T) {
	cases := []struct {
		name   string
		damage func(file []byte, tail *extentTail) []byte
		adopts bool // the tail still verifies, so recovery adopts the extent
	}{
		{"truncated", func(b []byte, _ *extentTail) []byte { return b[:len(b)/2] }, false},
		{"trailing garbage", func(b []byte, _ *extentTail) []byte { return append(b, 0xAA, 0xBB) }, false},
		{"flipped byte in the ID section", func(b []byte, x *extentTail) []byte { b[x.idOff+4*300] ^= 1; return b }, false},
		{"flipped byte in a block", func(b []byte, x *extentTail) []byte {
			off, _, _ := x.blockSpan(1)
			b[off+10] ^= 1
			return b
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newDamageFixture(t)
			path := f.extentPath(1)
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			x, err := viewExtent(file)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(slices.Clone(file), &x.tail), 0o644); err != nil {
				t.Fatal(err)
			}

			f.checkExtentMissing(t, true)
			if tc.adopts {
				// The lookup path verifies what it reads and nothing
				// else: an ID in an undamaged block still answers.
				if got := f.tbl.ByTraceID(damageExtentRecords + 5 + 1); len(got) != 1 {
					t.Fatalf("lookup in an undamaged block of the damaged extent: %v", got)
				}
			}

			stats := f.recover(t)
			wantAdopted, wantCorrupt := damageExtents, 0
			if !tc.adopts {
				wantAdopted, wantCorrupt = damageExtents-1, 1
			}
			if stats.AdoptedExtents != wantAdopted || stats.CorruptExtents != wantCorrupt || stats.ReplayedRecords != damageHeadRecords {
				t.Fatalf("recovery adopted %d extents, found %d corrupt, replayed %d records; want %d, %d, %d",
					stats.AdoptedExtents, stats.CorruptExtents, stats.ReplayedRecords, wantAdopted, wantCorrupt, damageHeadRecords)
			}
			f.checkExtentMissing(t, tc.adopts)
		})
	}
}

// TestAdoptForgedCountIsCorruptNotFatal replaces one checkpointed extent
// with forgeries whose tail checksum is good but whose counts and offsets
// lie — a count of 2^45 used to size recovery's Bloom filter straight
// from the file and kill the process — and checks that recovery rejects
// each before allocating for it, counts it once, and adopts the rest.
func TestAdoptForgedCountIsCorruptNotFatal(t *testing.T) {
	f := newDamageFixture(t)
	path := f.extentPath(1)
	genuine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	forgeries := forgedExtents(t, genuine)
	for _, name := range append([]string{"corrupt block", "wrong block crc", "bad magic", "future version", "retired version"}, columnForgeries...) {
		delete(forgeries, name) // the tail verifies: adoption reads neither header nor blocks
	}
	// A real version 1 file (one all-zero record) has no tail at all.
	forgeries["version 1 file"] = forgery{blob: append([]byte("vntx\x01\x01\x01"), make([]byte, 12)...)}
	for name, forged := range forgeries {
		if err := os.WriteFile(path, forged.blob, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		stats := f.recover(t)
		runtime.ReadMemStats(&after)
		if stats.CorruptExtents != 1 || stats.AdoptedExtents != damageExtents-1 || stats.AdoptedRecords != (damageExtents-1)*damageExtentRecords {
			t.Errorf("%s: recovery found %d corrupt extents and adopted %d (%d records), want 1 and %d (%d)",
				name, stats.CorruptExtents, stats.AdoptedExtents, stats.AdoptedRecords, damageExtents-1, (damageExtents-1)*damageExtentRecords)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("%s: recovery allocated %d bytes over a %d-byte forgery", name, grew, len(forged.blob))
		}
		f.checkExtentMissing(t, false)
	}
}

// TestForgedColumnsDeliverNothing forges the middle extent of three with
// good checksums over columns that do not decode — in its first, middle
// or last block — and checks that a scan delivers none of that extent,
// every record of its neighbours and the head, and counts one read error
// per scan: through Table.Scan, Table.ScanAligned and a three-partition
// Merged view. The producer decodes an extent whole before handing any of
// it over, so the blocks before the bad one are not delivered either.
func TestForgedColumnsDeliverNothing(t *testing.T) {
	forgeries := []struct {
		name, err string
		edit      func(blk []byte, n int, x *extentTail)
	}{
		{"flow ref beyond the dictionary", "flow ref", func(blk []byte, _ int, x *extentTail) {
			// The flow column comes last and every ref is one byte, so the
			// block's last byte is its last record's ref.
			blk[len(blk)-1] = byte(len(x.dict) / flowEntryLen)
		}},
		{"len overflowing uint32", "len", func(blk []byte, n int, _ *extentTail) {
			p := 0
			for range n { // past the time column
				_, p = readUvarint(blk, p)
			}
			// The block's first len is MaxUint32, five varint bytes ending
			// in 0x0f; 0x1f carries it past 32 bits.
			blk[p+4] = 0x1f
		}},
	}
	recs := typicalRecords(damageRecords)
	for i := range recs {
		recs[i].TPID, recs[i].TraceID, recs[i].Seq = 1, uint32(i+1), uint64(i)
		if i%damageExtentRecords%blockRecords == 0 {
			recs[i].Len = math.MaxUint32
		}
	}
	want := slices.Concat(recs[:damageExtentRecords], recs[2*damageExtentRecords:])
	for _, fg := range forgeries {
		for k := 0; k < 3; k++ {
			t.Run(fmt.Sprintf("%s/block %d", fg.name, k), func(t *testing.T) {
				db := NewWith(Config{SegmentBytes: damageExtentRecords * core.RecordSize})
				for i := 0; i < len(recs); i += damageExtentRecords {
					db.Insert(recs[i:min(i+damageExtentRecords, len(recs))])
				}
				tbl, _ := db.Table(1)
				if st := tbl.Storage(); st.Extents != damageExtents || st.HeadRecords != damageHeadRecords {
					t.Fatalf("fixture: %+v", st)
				}
				forged := *tbl.sealed[1]
				forged.blob = forgeBlock(t, forged.blob, k, fg.edit)
				if _, _, err := decodeExtentBytes(forged.blob); err == nil || !strings.Contains(err.Error(), fg.err) {
					t.Fatalf("forged extent decodes with %v, want an error mentioning %q", err, fg.err)
				}
				tbl.mu.Lock()
				tbl.sealed[1] = &forged
				tbl.mu.Unlock()

				expectErrs := func(what string, want uint64) {
					t.Helper()
					if got := tbl.Storage().ReadErrors; got != want {
						t.Fatalf("ReadErrors = %d after %s, want %d", got, what, want)
					}
				}
				if got := collectRecs(tbl.Scan); !slices.Equal(got, want) {
					t.Fatalf("Scan delivered %d records, want the %d outside the forged extent", len(got), len(want))
				}
				expectErrs("Scan", 1)
				if got := collectRecs(tbl.ScanAligned); !slices.Equal(got, want) {
					t.Fatalf("ScanAligned delivered %d records, want the %d outside the forged extent", len(got), len(want))
				}
				expectErrs("ScanAligned", 2)
				parts := []*Table{nil, tbl, nil}
				for _, p := range []int{0, 2} {
					var pdb *DB
					pdb, parts[p] = newMergeTable(t, 0)
					for j := 0; j < 50; j++ {
						pdb.Insert([]core.Record{mergeRec(1, uint64(100+j), 0, uint64(j+1))})
					}
				}
				// The mergeRecs' timestamps all precede the fixture's.
				got := collectRecs(Merge(parts...).ScanAligned)
				if len(got) != 100+len(want) || !slices.Equal(got[100:], want) {
					t.Fatalf("Merged delivered %d records, want the 100 mergeRecs and the %d outside the forged extent", len(got), len(want))
				}
				expectErrs("Merged.ScanAligned", 3)
			})
		}
	}
}
