package tracedb

import (
	"reflect"
	"slices"
	"testing"

	"vnettracer/internal/core"
)

// fuzzRecords is a representative sealed batch used to seed the fuzzer
// with valid extent blobs.
func fuzzRecords() []core.Record {
	recs := make([]core.Record, 5)
	for i := range recs {
		recs[i] = core.Record{
			TraceID: uint32(i + 1),
			TPID:    2,
			TimeNs:  uint64(1000 + i*37),
			Len:     600,
			CPU:     uint32(i % 2),
			Seq:     uint64(40 + i),
			SrcIP:   0x0a000001,
			DstIP:   0x0a000002,
			SrcPort: 5000,
			DstPort: 9000,
			Proto:   17,
			Dir:     1,
		}
	}
	return recs
}

// FuzzSegmentDecode feeds the extent codec arbitrary bytes plus
// mutations of valid blobs. The decoder must either return an error or a
// well-formed record slice — never panic, and never allocate beyond what
// the input length can justify (the trailer's counts are
// attacker-controlled). Nothing but a current-version blob may decode.
// Whatever decodes must survive an encode→decode→re-encode round trip
// with identical record values (byte-identity is not required: Go's
// uvarint reader accepts non-minimal encodings that re-encode shorter).
// Wherever the tail and every checksum verify, point lookups are held
// against block decode (checkLookupsMatchDecode): an ID whose blocks
// decode comes back exactly as they decode, in order, and one with a row
// in a block that fails returns an error and no records; and the whole
// blob decodes exactly when every block does. A table holding the blob as
// a sealed extent must scan it all or nothing (checkScanAllOrNone).
func FuzzSegmentDecode(f *testing.F) {
	recs := fuzzRecords()
	valid := encodeExtent(2, recs)
	empty := encodeExtent(9, nil)
	single := encodeExtent(1, recs[:1])
	f.Add([]byte{})
	f.Add(extentMagic[:])
	f.Add(valid)
	f.Add(empty)
	f.Add(single)
	f.Add(valid[:len(valid)-1]) // truncated body
	bad := append([]byte(nil), valid...)
	bad[4] ^= 0xff // version
	f.Add(bad)
	// Three blocks with every way the tail and directory can be wrong.
	blocks := encodeExtent(3, typicalRecords(2*blockRecords+50))
	f.Add(blocks)
	for _, forged := range forgedExtents(f, blocks) {
		f.Add(forged.blob)
	}
	// A version 1 blob of one all-zero record: header, count, tpid, five
	// raw fields, a flow ref introducing the zero tuple inline.
	f.Add(append([]byte("vntx\x01\x01\x02"), make([]byte, 12)...))

	f.Fuzz(func(t *testing.T, blob []byte) {
		tpid, got, err := decodeExtentBytes(blob)
		checkScanAllOrNone(t, blob, got, err == nil)
		if _, verr := viewExtent(blob); verr == nil {
			if failed := checkLookupsMatchDecode(t, blob); (failed == 0) != (err == nil) {
				t.Fatalf("%d blocks fail to decode, and the extent's decode returned %v", failed, err)
			}
		}
		if err != nil {
			return
		}
		if blob[4] != extentVersion {
			t.Fatalf("a version %d blob decoded", blob[4])
		}
		// A successful decode must be exactly re-encodable: seal the
		// decoded records again and decode once more — the record values
		// must match field for field.
		blob2 := encodeExtent(tpid, got)
		tpid2, got2, err := decodeExtentBytes(blob2)
		if err != nil {
			t.Fatalf("re-encode of a valid extent failed to decode: %v", err)
		}
		if tpid2 != tpid {
			t.Fatalf("tpid changed across round trip: %d != %d", tpid2, tpid)
		}
		if len(got) != len(got2) || (len(got) > 0 && !reflect.DeepEqual(got, got2)) {
			t.Fatalf("records diverged across round trip:\n %+v\n %+v", got, got2)
		}
	})
}

// checkScanAllOrNone scans a table whose middle extent is blob, between
// two good extents and before a head. The scan must deliver the
// neighbours and the head whole and of blob either every record (recs,
// when it decodes) or none, and count one read error exactly when it
// does not.
func checkScanAllOrNone(t *testing.T, blob []byte, recs []core.Record, decodes bool) {
	t.Helper()
	good := fuzzRecords()
	tbl := &Table{TPID: 2, head: good[:2], sealed: []*Extent{
		SealRecords(2, good), {blob: blob, storedBytes: len(blob)}, SealRecords(2, good[1:]),
	}}
	want := slices.Concat(good, recs, good[1:], good[:2])
	var errs uint64
	if !decodes {
		errs = 1
	}
	got := collectRecs(tbl.Scan)
	if !slices.Equal(got, want) || tbl.Storage().ReadErrors != errs {
		t.Fatalf("scan delivered %d records and counted %d read errors; want %d and %d", len(got), tbl.Storage().ReadErrors, len(want), errs)
	}
}

// fuzzWALEntries returns representative WAL entries (a record batch and
// an aggregate frame) used to seed the fuzzer with valid payloads.
func fuzzWALEntries() []walEntry {
	return []walEntry{
		{
			LSN: 7, Kind: walKindRecords, Agent: "agent-1", Epoch: 3, Seq: 41,
			TimeNs: 123456789, Degraded: 1, Records: fuzzRecords(),
		},
		{
			LSN: 8, Kind: walKindAggs, Agent: "agent-2", Epoch: 1, Seq: 5,
			TimeNs: -17, Degraded: 0, Scripts: []ScriptAgg{{
				Script:   "flows.vnt",
				Counters: []uint64{10, 20},
				CPUHits:  []uint64{1, 2, 3, 4},
				Hist:     []uint64{0, 5, 9},
				Flows: []FlowAgg{{
					SrcIP: 0x0a000001, DstIP: 0x0a000002,
					SrcPort: 5000, DstPort: 9000, Proto: 17,
					Packets: 12, Bytes: 3400,
				}},
			}},
		},
	}
}

// FuzzWALDecode feeds the WAL payload codec arbitrary bytes plus
// mutations of valid payloads. The decoder must either return an error
// or a well-formed entry — never panic, and never allocate beyond what
// the input length justifies (record/script/flow counts are
// attacker-controlled). Whatever decodes must survive a
// re-encode→decode round trip with identical values. (Byte identity is
// not required: non-minimal uvarints re-encode shorter.)
func FuzzWALDecode(f *testing.F) {
	var valids [][]byte
	for _, e := range fuzzWALEntries() {
		valids = append(valids, mustWALPayload(f, &e))
	}
	f.Add([]byte{})
	for _, v := range valids {
		f.Add(v)
		f.Add(v[:len(v)-1]) // truncated body
	}
	badKind := append([]byte(nil), valids[0]...)
	badKind[1] = 0xee // kind byte (LSN 7 encodes in one byte)
	f.Add(badKind)

	f.Fuzz(func(t *testing.T, payload []byte) {
		var e, e2 walEntry
		if decodeWALPayload(payload, &e) != nil {
			return
		}
		re, err := appendWALPayload(nil, &e)
		if err != nil {
			t.Fatalf("a decoded wal payload failed to re-encode: %v", err)
		}
		if err := decodeWALPayload(re, &e2); err != nil {
			t.Fatalf("re-encode of a valid wal payload failed to decode: %v", err)
		}
		if !reflect.DeepEqual(e, e2) {
			t.Fatalf("wal entry diverged across round trip:\n %+v\n %+v", e, e2)
		}
	})
}
