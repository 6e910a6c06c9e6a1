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
	_, blob := sealExtent(&enc, tpid, recs)
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

// checkLookupsMatchDecode holds the point-lookup path against block
// decode over a blob whose tail and checksums verify, and returns how
// many of its blocks fail to decode. Records are grouped by trace ID in
// one pass over the blocks; then a lookup of an ID whose rows all lie in
// blocks that decode must return exactly those rows, in order, and one
// of an ID with a row in a block that fails must return an error and no
// records.
func checkLookupsMatchDecode(t testing.TB, blob []byte) (failed int) {
	t.Helper()
	e := residentExtent(t, blob)
	x, _ := viewExtent(blob)
	type rows struct {
		recs []core.Record
		bad  bool // a row lies in a block that fails to decode
	}
	byID := make(map[uint32]*rows)
	var order []uint32
	var buf [blockRecords]core.Record
	for b := 0; b < x.tail.blocks(); b++ {
		off, end, n := x.tail.blockSpan(b)
		recs, err := x.tail.decodeBlock(b, blob[off:end], buf[:])
		if err != nil {
			failed++
		}
		for k := range n {
			id := le.Uint32(x.tail.ids[4*(blockRecords*b+k):])
			g := byID[id]
			if g == nil {
				g = new(rows)
				byID[id] = g
				order = append(order, id)
			}
			if err != nil {
				g.bad = true
			} else {
				g.recs = append(g.recs, recs[k])
			}
		}
	}
	rd := new(extentReader)
	for _, id := range order {
		g := byID[id]
		got, err := e.lookup(rd, id, nil)
		if g.bad && (err == nil || len(got) != 0) {
			t.Fatalf("lookup(%d) = %v, %v; a block holding it fails to decode", id, got, err)
		}
		if !g.bad && (err != nil || !slices.Equal(got, g.recs)) {
			t.Fatalf("lookup(%d) = %v, %v; the decode holds %v", id, got, err, g.recs)
		}
	}
	return failed
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
	checkLookupsMatchDecode(t, blob)
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

// forgeBlock returns a copy of an extent blob whose block k edit has
// changed in place, without changing its length, with the block's
// directory CRC and the tail CRC made good again: a forgery only decoding
// can catch.
func forgeBlock(t testing.TB, blob []byte, k int, edit func(blk []byte, n int, x *extentTail)) []byte {
	t.Helper()
	b := slices.Clone(blob)
	x, err := viewExtent(b)
	if err != nil {
		t.Fatal(err)
	}
	off, end, n := x.tail.blockSpan(k)
	edit(b[off:end], n, &x.tail)
	dir := len(b) - extentTrailerLen - len(x.tail.dir)
	le.PutUint32(b[dir+dirEntryLen*k+8:], crc32.Checksum(b[off:end], castagnoli))
	resealTail(b)
	if _, err := viewExtent(b); err != nil {
		t.Fatalf("forgery does not verify: %v", err)
	}
	return b
}

// columnForgeries names the forgedExtents entries whose tail and
// checksums verify: only decoding block 1 catches them.
var columnForgeries = []string{
	"flow ref beyond the dictionary", "columns end early", "columns end late",
	"len overflowing uint32", "cpu overflowing uint32",
}

// forgedExtents returns damaged copies of a valid three-block extent:
// trailer and directory fields forged with the tail CRC made good again,
// plain bit rot, and columns of block 1 forged with every checksum made
// good again.
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
	// overflow writes a five-byte varint above MaxUint32 over the first
	// value of block 1's column col (1 len, 2 cpu).
	overflow := func(col int) []byte {
		return forgeBlock(t, blob, 1, func(blk []byte, n int, _ *extentTail) {
			p := skipUvarints(blk, 0, col*n)
			copy(blk[p:], []byte{0xff, 0xff, 0xff, 0xff, 0x1f})
		})
	}
	return map[string]forgery{
		// The flow column comes last and every ref is one byte, so the
		// block's last byte is its last record's ref.
		"flow ref beyond the dictionary": {forgeBlock(t, blob, 1, func(blk []byte, _ int, x *extentTail) {
			blk[len(blk)-1] = byte(len(x.dict) / flowEntryLen)
		}), "flow ref"},
		// The block's first time is a multi-byte varint: split, it makes
		// one varint more than the columns read.
		"columns end early":      {forgeBlock(t, blob, 1, func(blk []byte, _ int, _ *extentTail) { blk[0] &^= 0x80 }), "columns end"},
		"columns end late":       {forgeBlock(t, blob, 1, func(blk []byte, _ int, _ *extentTail) { blk[len(blk)-1] |= 0x80 }), "columns end"},
		"len overflowing uint32": {overflow(1), "len"},
		"cpu overflowing uint32": {overflow(2), "cpu"},

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

// TestRowDecodeRefusesWhatBlockDecodeRefuses holds the lookup path over
// every forgery whose tail and checksums verify, so that only decoding
// can catch it: a flow ref past the dictionary, columns that end early or
// late, a len or cpu past 32 bits. Every lookup of an ID with a row in
// the forged block must fail with no records, whether it decodes that
// row alone or the whole block; every other ID must still answer.
func TestRowDecodeRefusesWhatBlockDecodeRefuses(t *testing.T) {
	recs := typicalRecords(2*blockRecords + 50)
	// Unique IDs but for a few pairs, so the forged block's lookups take
	// both paths, a lone row and a block with two, and one ID has rows in
	// a good block and in the forged one.
	for i := range recs {
		recs[i].TraceID = uint32(i + 1)
	}
	for _, i := range []int{10, blockRecords - 1, blockRecords + 3, blockRecords + 40, 2*blockRecords + 5} {
		recs[i+1].TraceID = recs[i].TraceID
	}
	forgeries := forgedExtents(t, encodeExtent(3, recs))
	for _, name := range columnForgeries {
		t.Run(name, func(t *testing.T) {
			if failed := checkLookupsMatchDecode(t, forgeries[name].blob); failed != 1 {
				t.Fatalf("%d blocks fail to decode, want block 1 alone", failed)
			}
		})
	}
}

// TestSkipUvarintsMatchesReadUvarint holds skipUvarints against k reads
// with readUvarint over random bytes, most of them continuation bytes, so
// varints of every length up to past ten start at every offset: both
// must end at the same offset or both fail.
func TestSkipUvarintsMatchesReadUvarint(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20000; trial++ {
		b := make([]byte, rng.Intn(40))
		for i := range b {
			if b[i] = byte(rng.Intn(4)); rng.Intn(4) != 0 {
				b[i] |= 0x80
			}
		}
		p, k := rng.Intn(len(b)+1), rng.Intn(12)
		want := p
		for range k {
			_, want = readUvarint(b, want)
		}
		if got := skipUvarints(b, p, k); got != want {
			t.Fatalf("skipUvarints(% x, %d, %d) = %d, want %d", b, p, k, got, want)
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
