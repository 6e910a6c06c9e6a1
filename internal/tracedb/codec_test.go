package tracedb

import (
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"vnettracer/internal/core"
)

// encodeExtent seals recs with a fresh encoder and returns the blob.
func encodeExtent(tpid uint32, recs []core.Record) []byte {
	var enc extentEncoder
	_, blob := sealExtent(&enc, tpid, 0, recs)
	return blob
}

// residentExtent wraps a decodable blob as the resident extent a table
// would hold, for driving the lookup path over arbitrary bytes.
func residentExtent(t testing.TB, blob []byte) *Extent {
	t.Helper()
	x, err := viewExtent(blob)
	if err != nil {
		t.Fatalf("view: %v", err)
	}
	return &Extent{count: x.tail.count, blob: blob, storedBytes: len(blob), tailOff: int(x.tail.idOff)}
}

// checkLookupsMatchDecode holds the point-lookup path against the full
// decode: for every distinct trace ID in recs, lookup must return exactly
// the records a filter over recs returns, in order, and its first-only
// form the first of them.
func checkLookupsMatchDecode(t testing.TB, blob []byte, recs []core.Record) {
	t.Helper()
	e := residentExtent(t, blob)
	rd := new(extentReader)
	seen := make(map[uint32]bool)
	for _, r := range recs {
		if seen[r.TraceID] {
			continue
		}
		seen[r.TraceID] = true
		var want []core.Record
		for _, w := range recs {
			if w.TraceID == r.TraceID {
				want = append(want, w)
			}
		}
		got, err := e.lookup(rd, r.TraceID, nil)
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("lookup(%d) = %v, %v; the decode holds %v", r.TraceID, got, err, want)
		}
	}
}

// roundTrip encodes recs into an extent blob, decodes it back, and holds
// the lookup path against the decode.
func roundTrip(t *testing.T, tpid uint32, recs []core.Record) []core.Record {
	t.Helper()
	blob := encodeExtent(tpid, recs)
	gotTPID, got, err := decodeExtentBytes(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotTPID != tpid {
		t.Fatalf("tpid = %d, want %d", gotTPID, tpid)
	}
	checkLookupsMatchDecode(t, blob, got)
	return got
}

// typicalRecords is a realistic stream: monotone timestamps with jitter,
// a handful of flows, trace IDs shared by two records each.
func typicalRecords(n int) []core.Record {
	rng := rand.New(rand.NewSource(42))
	recs := make([]core.Record, n)
	tns := uint64(1_000_000)
	for i := range recs {
		tns += uint64(800 + rng.Intn(400))
		recs[i] = core.Record{
			TraceID: uint32(i/2 + 1),
			TPID:    3,
			TimeNs:  tns,
			Len:     uint32(64 + rng.Intn(1400)),
			CPU:     uint32(rng.Intn(4)),
			Seq:     uint64(i),
			SrcIP:   0x0a000001 + uint32(rng.Intn(4)),
			DstIP:   0x0a000101,
			SrcPort: uint16(40000 + rng.Intn(4)),
			DstPort: 9000,
			Proto:   17,
			Dir:     uint8(i % 2),
		}
	}
	return recs
}

func TestCodecRoundTripEmpty(t *testing.T) {
	got := roundTrip(t, 7, nil)
	if len(got) != 0 {
		t.Fatalf("decoded %d records from empty extent", len(got))
	}
}

func TestCodecRoundTripTypical(t *testing.T) {
	recs := typicalRecords(500)
	got := roundTrip(t, 3, recs)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("round trip diverged")
	}
	// Realistic batches must compress well below the flat 48 B/record —
	// the whole point of sealing.
	blob := encodeExtent(3, recs)
	if perRec := float64(len(blob)) / float64(len(recs)); perRec > 12 {
		t.Fatalf("compressed %.1f bytes/record, want <= 12", perRec)
	}
}

// TestCodecRoundTripBlockBoundaries round-trips extents whose sizes sit on
// and around the restart interval, up to a default segment's worth.
func TestCodecRoundTripBlockBoundaries(t *testing.T) {
	all := typicalRecords(DefaultSegmentBytes / core.RecordSize)
	for _, n := range []int{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, len(all)} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			recs := all[:n]
			blob := encodeExtent(3, recs)
			if got := roundTrip(t, 3, recs); !slices.Equal(got, recs) {
				t.Fatal("round trip diverged")
			}
			x, err := viewExtent(blob)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := x.tail.blocks(), (n+blockRecords-1)/blockRecords; got != want {
				t.Fatalf("%d blocks for %d records, want %d", got, n, want)
			}
		})
	}
}

// TestCodecRepeatedIDs: one trace ID recurring within a block, across
// blocks, and in a block's first and last slots must come back from a
// lookup whole and in order.
func TestCodecRepeatedIDs(t *testing.T) {
	recs := typicalRecords(3*blockRecords + 10)
	for i := range recs {
		recs[i].TraceID = uint32(1000 + i) // unique filler
	}
	const within, across, edges = 7, 8, 9
	for _, i := range []int{3, 4, 200} {
		recs[i].TraceID = within
	}
	for _, i := range []int{10, blockRecords + 10, 3*blockRecords + 9} {
		recs[i].TraceID = across
	}
	for _, i := range []int{0, blockRecords - 1, blockRecords, 2*blockRecords - 1, 2 * blockRecords} {
		recs[i].TraceID = edges
	}
	if got := roundTrip(t, 3, recs); !slices.Equal(got, recs) {
		t.Fatal("round trip diverged")
	}
}

func TestCodecRoundTripAdversarial(t *testing.T) {
	// Extreme values at every field width: wrap-around deltas, max
	// timestamps, non-monotone time, single-record extents.
	cases := [][]core.Record{
		{{TraceID: math.MaxUint32, TimeNs: math.MaxUint64, Len: math.MaxUint32,
			CPU: math.MaxUint32, Seq: math.MaxUint64, SrcIP: math.MaxUint32,
			DstIP: math.MaxUint32, SrcPort: math.MaxUint16, DstPort: math.MaxUint16,
			Proto: math.MaxUint8, Dir: math.MaxUint8}},
		{
			{TraceID: 0, TimeNs: math.MaxUint64, Seq: 0},
			{TraceID: math.MaxUint32, TimeNs: 0, Seq: math.MaxUint64},
			{TraceID: 1, TimeNs: math.MaxUint64 / 2, Seq: 1},
		},
		{
			{TimeNs: 100}, {TimeNs: 50}, {TimeNs: 200}, {TimeNs: 0},
		},
	}
	// The same edges where the delta chains restart: the last record of
	// one block and the first two of the next.
	edge := typicalRecords(2*blockRecords + 2)
	for i, r := range cases[1] {
		k := blockRecords - 1 + i
		edge[k].TimeNs, edge[k].Seq, edge[k].Len, edge[k].CPU = r.TimeNs, r.Seq, math.MaxUint32*uint32(i%2), math.MaxUint32*uint32(1-i%2)
	}
	edge[2*blockRecords].TimeNs, edge[2*blockRecords].Seq = math.MaxUint64, math.MaxUint64
	edge[2*blockRecords+1].TimeNs, edge[2*blockRecords+1].Seq = 0, 0
	cases = append(cases, edge)

	for i, recs := range cases {
		for j := range recs {
			recs[j].TPID = 9
		}
		got := roundTrip(t, 9, recs)
		if !reflect.DeepEqual(got, recs) {
			t.Fatalf("case %d diverged:\n got %+v\nwant %+v", i, got, recs)
		}
	}
}

func TestCodecFlowDictionary(t *testing.T) {
	// Two interleaved flows: the dictionary should make repeats cheap and
	// the round trip exact.
	recs := make([]core.Record, 100)
	for i := range recs {
		recs[i] = core.Record{TraceID: uint32(i + 1), TPID: 1, TimeNs: uint64(i * 1000), Seq: uint64(i)}
		if i%2 == 0 {
			recs[i].SrcIP, recs[i].DstIP, recs[i].SrcPort, recs[i].DstPort, recs[i].Proto = 1, 2, 3, 4, 6
		} else {
			recs[i].SrcIP, recs[i].DstIP, recs[i].SrcPort, recs[i].DstPort, recs[i].Proto = 5, 6, 7, 8, 17
		}
	}
	got := roundTrip(t, 1, recs)
	if !reflect.DeepEqual(got, recs) {
		t.Fatal("interleaved flows diverged")
	}
	x, err := viewExtent(encodeExtent(1, recs))
	if err != nil {
		t.Fatal(err)
	}
	if flows := len(x.tail.dict) / flowEntryLen; flows != 2 {
		t.Fatalf("dictionary holds %d flows, want 2", flows)
	}

	// More flows than the encoder's flow table starts with, each seen
	// twice: the table grows and every flow keeps its one index.
	many := make([]core.Record, 600)
	for i := range many {
		many[i] = core.Record{TraceID: uint32(i), TPID: 1, TimeNs: uint64(i), SrcIP: uint32(i % 300), DstPort: uint16(i % 3)}
	}
	if got := roundTrip(t, 1, many); !slices.Equal(got, many) {
		t.Fatal("many flows diverged")
	}
	if x, err = viewExtent(encodeExtent(1, many)); err != nil {
		t.Fatal(err)
	}
	if flows := len(x.tail.dict) / flowEntryLen; flows != 300 {
		t.Fatalf("dictionary holds %d flows, want 300", flows)
	}
}

// resealTail recomputes the trailer's CRC over the tail as the blob's
// trailer now describes it, so a forged field is met by the structural
// checks rather than by the checksum.
func resealTail(blob []byte) {
	tr := blob[len(blob)-extentTrailerLen:]
	if idOff := le.Uint64(tr[trailerIDOff:]); idOff <= uint64(len(blob)-4) {
		le.PutUint32(tr[trailerCRC:], crc32.Checksum(blob[idOff:len(blob)-4], castagnoli))
	}
}

// forgery is a damaged extent and a phrase of the error its reader must
// raise.
type forgery struct {
	blob []byte
	err  string
}

// forgedExtents returns damaged copies of a valid three-block extent:
// trailer and directory fields forged with the tail CRC made good again,
// and plain bit rot.
func forgedExtents(t testing.TB, blob []byte) map[string]forgery {
	t.Helper()
	x, err := viewExtent(blob)
	if err != nil || x.tail.blocks() != 3 {
		t.Fatalf("fixture: %d blocks, %v", x.tail.blocks(), err)
	}
	trailer := len(blob) - extentTrailerLen
	dir := trailer - len(x.tail.dir)
	block1, _, _ := x.tail.blockSpan(1)
	forge := func(off int, v uint64, width int) []byte {
		b := slices.Clone(blob)
		switch width {
		case 1:
			b[off] = byte(v)
		case 4:
			le.PutUint32(b[off:], uint32(v))
		default:
			le.PutUint64(b[off:], v)
		}
		resealTail(b)
		return b
	}
	flip := func(off int) []byte {
		b := slices.Clone(blob)
		b[off] ^= 0x40
		return b
	}
	count := uint64(x.tail.count)
	return map[string]forgery{
		"extent count":                 {forge(trailer+trailerCount, 1<<45, 8), "exceeds what"},
		"block count":                  {forge(trailer+trailerCount, count+blockRecords, 8), "bytes"}, // either size check
		"id section length":            {forge(trailer+trailerCount, count-1, 8), "does not fit"},
		"flow count":                   {forge(trailer+trailerFlows, 1<<31, 4), "does not fit"},
		"tail offset past the end":     {forge(trailer+trailerIDOff, uint64(len(blob))+1, 8), "does not fit"},
		"tail offset in the header":    {forge(trailer+trailerIDOff, 2, 8), "does not fit"},
		"directory out of range":       {forge(dir+2*dirEntryLen, uint64(len(blob))*2, 8), "block 1 spans"},
		"directory overlapping":        {forge(dir+dirEntryLen, extentHeaderLen, 8), "block 0 spans"},
		"directory not monotone":       {forge(dir+2*dirEntryLen, uint64(block1)-1, 8), "block 1 spans"},
		"directory starts past header": {forge(dir, extentHeaderLen+1, 8), "block 0 spans"},
		"corrupt trailer":              {flip(trailer + trailerMinTime), "tail checksum"},
		"corrupt directory":            {flip(dir + 3), "tail checksum"},
		"corrupt id section":           {flip(int(x.tail.idOff) + 5), "tail checksum"},
		"corrupt block":                {flip(int(block1) + 3), "block 1 checksum"},
		"wrong block crc":              {forge(dir+dirEntryLen+8, 0xdeadbeef, 4), "block 1 checksum"},
		"truncated":                    {blob[:len(blob)/2], ""},
		"trailing bytes":               {append(slices.Clone(blob), 0x01), ""},
		"bad magic":                    {flip(0), "magic"},
		"future version":               {forge(4, extentVersion+1, 1), "version"},
		"retired version":              {forge(4, 1, 1), "version"},
	}
}

func TestCodecRejectsCorrupt(t *testing.T) {
	blob := encodeExtent(2, typicalRecords(2*blockRecords+50))
	if _, _, err := decodeExtentBytes(blob); err != nil {
		t.Fatalf("fixture does not decode: %v", err)
	}
	if _, _, err := decodeExtentBytes(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	if _, _, err := decodeExtentBytes(blob[:3]); err == nil {
		t.Fatal("truncated magic accepted")
	}
	for name, f := range forgedExtents(t, blob) {
		_, recs, err := decodeExtentBytes(f.blob)
		if err == nil || recs != nil || !strings.Contains(err.Error(), f.err) {
			t.Errorf("%s: decode returned %d records and %v, want an error mentioning %q", name, len(recs), err, f.err)
		}
	}
}

func TestCodecHugeCountDoesNotOverAllocate(t *testing.T) {
	// A trailer claiming 2^40 records in a 49-byte extent must fail
	// cleanly without attempting a huge allocation.
	blob := encodeExtent(5, nil)
	le.PutUint64(blob[len(blob)-extentTrailerLen+trailerCount:], 1<<40)
	resealTail(blob)
	if _, _, err := decodeExtentBytes(blob); err == nil {
		t.Fatal("absurd record count accepted")
	}
}
