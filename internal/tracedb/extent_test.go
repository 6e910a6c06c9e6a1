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
// a few head records, every extent in one pack and under a checkpoint.
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
	// The pack stays open, so the damage below is done to a file already
	// open: what a kept handle must not paper over.
	if st := f.tbl.Storage(); st.SpilledExtents != damageExtents || st.OpenHandles != 1 || st.HeadRecords != damageHeadRecords {
		t.Fatalf("fixture: %+v", st)
	}
	t.Cleanup(func() { f.dur.Close(); f.db.Close() })
	return f
}

// packPath is the pack file that holds table 1's extents.
func (f *damageFixture) packPath() string {
	return filepath.Join(f.db.Config().DataDir, packName(1, 0))
}

// extent returns extent i's bytes, as sealed, from the pack.
func (f *damageFixture) extent(t *testing.T, i int) []byte {
	t.Helper()
	b, err := os.ReadFile(f.packPath())
	if err != nil {
		t.Fatal(err)
	}
	e := f.tbl.sealed[i]
	return slices.Clone(b[e.base : e.base+int64(e.storedBytes)])
}

// damage rewrites the pack in place, with extent i's bytes replaced by
// what edit makes of them; edit may change their length, which moves the
// extents after it in the file, not in the live table.
func (f *damageFixture) damage(t *testing.T, i int, edit func(ext []byte) []byte) {
	t.Helper()
	b, err := os.ReadFile(f.packPath())
	if err != nil {
		t.Fatal(err)
	}
	e := f.tbl.sealed[i]
	end := e.base + int64(e.storedBytes)
	b = slices.Concat(b[:e.base], edit(slices.Clone(b[e.base:end])), b[end:])
	if err := os.WriteFile(f.packPath(), b, 0o644); err != nil {
		t.Fatal(err)
	}
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

// checkExtentMissing holds every query against a table whose extent lost
// is failing (readErrs: each query that reaches it counts one read error)
// or was never adopted (!readErrs): the extent's records are gone from
// every answer, whole, and every other record is still there. lost -1
// holds them against a table that answers everything.
func (f *damageFixture) checkExtentMissing(t *testing.T, lost int, readErrs bool) {
	t.Helper()
	var want []uint64
	for s := uint64(0); s < damageRecords; s++ {
		if int(s/damageExtentRecords) != lost {
			want = append(want, s)
		}
	}
	readErrs = readErrs && lost >= 0
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
		t.Fatalf("Scan delivered %d records, want the %d outside extent %d", len(got), len(want), lost)
	}
	expectErr("Scan")
	if got := scanSeqs(f.tbl.ScanAligned); !slices.Equal(got, want) {
		t.Fatalf("ScanAligned delivered %d records, want the %d outside extent %d", len(got), len(want), lost)
	}
	expectErr("ScanAligned")
	if lost >= 0 {
		// An ID in the failing extent's second block — the damaged one,
		// when the damage is to a block.
		id := uint32(lost*damageExtentRecords + blockRecords + 7 + 1)
		if got := f.tbl.ByTraceID(id); len(got) != 0 {
			t.Fatalf("ByTraceID answered from the failed extent: %v", got)
		}
		expectErr("ByTraceID")
	}
	// Every other extent, and the head, still answer.
	for _, seq := range []uint64{3, damageExtentRecords - 1, damageExtentRecords + 5, 2*damageExtentRecords - 1, 2 * damageExtentRecords, 3*damageExtentRecords - 1, damageRecords - 1} {
		if int(seq/damageExtentRecords) == lost {
			continue
		}
		got := f.tbl.ByTraceID(uint32(seq + 1))
		if len(got) != 1 || got[0].Seq != seq {
			t.Fatalf("ByTraceID(%d) = %v, want the record with seq %d", seq+1, got, seq)
		}
	}
}

// TestFailedExtentDeliversNothing damages the fixture's pack five ways,
// each in place, under the open handle the table keeps for it, and
// checks, on the live table that sealed it and on a store recovered
// from the same directory, that a damaged extent contributes no record to
// any query — not the prefix that decodes before the damage — while every
// other extent still answers, and that each failure is counted: as a read
// error per query on a table that holds the extent, as a corrupt stretch
// at recovery when a tail does not verify. Recovery's walk steps past the
// damage to the extents before it.
func TestFailedExtentDeliversNothing(t *testing.T) {
	cases := []struct {
		name string
		// damage edits extent ext's bytes.
		ext    int
		damage func(ext []byte, tail *extentTail) []byte
		// liveLost and recoveredLost are the extent each table misses
		// (-1: none); adopts reports that recovery adopts every extent,
		// so the recovered table still reads the damaged one and fails.
		liveLost, recoveredLost int
		adopts                  bool
	}{
		{"truncated", 2, func(b []byte, _ *extentTail) []byte { return b[:len(b)/2] }, 2, 2, false},
		{"trailing garbage", 2, func(b []byte, _ *extentTail) []byte { return append(b, 0xAA, 0xBB) }, -1, -1, false},
		{"flipped byte in the ID section", 1, func(b []byte, x *extentTail) []byte { b[x.idOff+4*300] ^= 1; return b }, 1, 1, false},
		{"zeroed trailer", 1, func(b []byte, _ *extentTail) []byte {
			clear(b[len(b)-extentTrailerLen:])
			return b
		}, 1, 1, false},
		{"flipped byte in a block", 1, func(b []byte, x *extentTail) []byte {
			off, _, _ := x.blockSpan(1)
			b[off+10] ^= 1
			return b
		}, 1, 1, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newDamageFixture(t)
			x, err := viewExtent(f.extent(t, tc.ext))
			if err != nil {
				t.Fatal(err)
			}
			f.damage(t, tc.ext, func(b []byte) []byte { return tc.damage(b, &x.tail) })

			f.checkExtentMissing(t, tc.liveLost, true)
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
				wantAdopted, wantCorrupt = damageExtents, 1
				if tc.recoveredLost >= 0 {
					wantAdopted--
				}
			}
			if stats.AdoptedExtents != wantAdopted || stats.CorruptExtents != wantCorrupt || stats.ReplayedRecords != damageHeadRecords {
				t.Fatalf("recovery adopted %d extents, found %d corrupt, replayed %d records; want %d, %d, %d",
					stats.AdoptedExtents, stats.CorruptExtents, stats.ReplayedRecords, wantAdopted, wantCorrupt, damageHeadRecords)
			}
			f.checkExtentMissing(t, tc.recoveredLost, tc.adopts)
		})
	}
}

// TestAdoptForgedCountIsCorruptNotFatal replaces the middle extent of a
// checkpointed pack with forgeries — tails whose checksum is good but
// whose counts and offsets lie (a count of 2^45 used to size recovery's
// Bloom filter straight from the file and kill the process), headers of
// another magic or version — and checks that recovery rejects each before
// allocating for it, counts it once, and adopts the extents on both sides
// of it.
func TestAdoptForgedCountIsCorruptNotFatal(t *testing.T) {
	f := newDamageFixture(t)
	exts := [damageExtents][]byte{f.extent(t, 0), f.extent(t, 1), f.extent(t, 2)}
	forgeries := forgedExtents(t, exts[1])
	for _, name := range append([]string{"corrupt block", "wrong block crc"}, columnForgeries...) {
		delete(forgeries, name) // the tail verifies: adoption reads no block
	}
	// In a pack, the genuine extent with bytes after it is an extent the
	// walk adopts and a stretch it skips ("trailing garbage" above).
	delete(forgeries, "trailing bytes")
	// A real version 1 file (one all-zero record) has no tail at all.
	forgeries["version 1 file"] = forgery{blob: append([]byte("vntx\x01\x01\x01"), make([]byte, 12)...)}
	for name, forged := range forgeries {
		if err := os.WriteFile(f.packPath(), slices.Concat(exts[0], forged.blob, exts[2]), 0o644); err != nil {
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
		f.checkExtentMissing(t, 1, false)
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
