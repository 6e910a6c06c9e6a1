package tracedb

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"vnettracer/internal/core"
)

// mustWALPayload is appendWALPayload onto nil for an entry the test
// knows encodes.
func mustWALPayload(tb testing.TB, e *walEntry) []byte {
	tb.Helper()
	b, err := appendWALPayload(nil, e)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// mustWALFrame is appendWALFrame for an entry the test knows encodes.
func mustWALFrame(tb testing.TB, dst []byte, e *walEntry) []byte {
	tb.Helper()
	b, err := appendWALFrame(dst, e)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// walReplayWhole is the replay walReplayFile replaced, kept as its oracle:
// the whole generation read into memory, every entry decoded into arrays
// of its own.
func walReplayWhole(path string, fn func(walEntry)) (goodOff int64, tornErr error, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	off := 0
	for {
		if off == len(b) {
			return int64(off), nil, nil
		}
		if len(b)-off < walFrameHeader {
			return int64(off), fmt.Errorf("tracedb: wal: torn frame header (%d bytes)", len(b)-off), nil
		}
		plen := int(binary.BigEndian.Uint32(b[off : off+4]))
		crc := binary.BigEndian.Uint32(b[off+4 : off+8])
		if plen > maxWALPayload {
			return int64(off), fmt.Errorf("tracedb: wal: frame length %d exceeds cap", plen), nil
		}
		if len(b)-off-walFrameHeader < plen {
			return int64(off), fmt.Errorf("tracedb: wal: torn frame payload (%d of %d bytes)",
				len(b)-off-walFrameHeader, plen), nil
		}
		payload := b[off+walFrameHeader : off+walFrameHeader+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			return int64(off), fmt.Errorf("tracedb: wal: frame CRC mismatch at offset %d", off), nil
		}
		var e walEntry
		if derr := decodeWALPayload(payload, &e); derr != nil {
			return int64(off), fmt.Errorf("tracedb: wal: frame at offset %d: %w", off, derr), nil
		}
		fn(e)
		off += walFrameHeader + plen
	}
}

// The streaming replay stops where the whole-file replay stopped, for the
// reason it gave, having delivered the entries it delivered: a log cut
// short or with a bit flipped at every byte of its last two frames (a
// record batch, then an aggregate frame), behind frames both larger and
// smaller than the reader's buffer.
func TestWALReplayMatchesWholeFileReplay(t *testing.T) {
	entries := []walEntry{
		{Kind: walKindRecords, Agent: "a1", Epoch: 1, Seq: 1, TimeNs: 5, Records: batchRecs(1, 1, 2*walReadBuffer/walRecordSize)},
		// More scripts, slots and flows than the aggregate frame at the
		// end, which decodes into the arrays this one leaves behind.
		{Kind: walKindAggs, Agent: "a1", Epoch: 1, Seq: 1, TimeNs: 6, Scripts: append(testScripts(3), ScriptAgg{
			Script: "wide.vnt", Counters: []uint64{1, 2, 3, 4}, CPUHits: []uint64{5, 6}, Hist: []uint64{7, 8, 9, 10, 11},
			Flows: []FlowAgg{{SrcIP: 9, Packets: 1, Bytes: 2}, {SrcIP: 10, Packets: 3, Bytes: 4}, {SrcIP: 11, Packets: 5, Bytes: 6}},
		})},
		{Kind: walKindRecords, Agent: "a1", Epoch: 1, Seq: 2, TimeNs: 7, Records: batchRecs(2, 2, 40)},
		{Kind: walKindRecords, Agent: "agent-two", Epoch: 3, Seq: 9, TimeNs: -8, Degraded: 1, Records: batchRecs(1, 3, 3)},
		{Kind: walKindAggs, Agent: "a1", Epoch: 1, Seq: 2, TimeNs: 9, Scripts: testScripts(4)},
	}
	var whole []byte
	var ends []int
	for i := range entries {
		entries[i].LSN = uint64(i + 1)
		whole = mustWALFrame(t, whole, &entries[i])
		ends = append(ends, len(whole))
	}
	path := filepath.Join(t.TempDir(), walFileName(1))

	type outcome struct {
		goodOff int64
		torn    string
		entries []walEntry
	}
	replay := func(streaming bool) outcome {
		var o outcome
		var tornErr, err error
		if streaming {
			o.goodOff, tornErr, err = walReplayFile(path, func(e *walEntry) {
				// e and every array under it are the replay's scratch: keep
				// a copy of its own, written out and decoded afresh.
				var kept walEntry
				if err := decodeWALPayload(mustWALPayload(t, e), &kept); err != nil {
					t.Fatal(err)
				}
				o.entries = append(o.entries, kept)
			})
		} else {
			o.goodOff, tornErr, err = walReplayWhole(path, func(e walEntry) { o.entries = append(o.entries, e) })
		}
		if err != nil {
			t.Fatal(err)
		}
		if tornErr != nil {
			o.torn = tornErr.Error()
		}
		return o
	}
	check := func(what string, log []byte) outcome {
		t.Helper()
		if err := os.WriteFile(path, log, 0o644); err != nil {
			t.Fatal(err)
		}
		got, want := replay(true), replay(false)
		if got.goodOff != want.goodOff || got.torn != want.torn {
			t.Fatalf("%s: stopped at %d (%q), the whole-file replay at %d (%q)", what, got.goodOff, got.torn, want.goodOff, want.torn)
		}
		if !reflect.DeepEqual(got.entries, want.entries) {
			t.Fatalf("%s: %d entries delivered, differing from the whole-file replay's %d", what, len(got.entries), len(want.entries))
		}
		return got
	}

	if o := check("intact", whole); o.goodOff != int64(len(whole)) || o.torn != "" || len(o.entries) != len(entries) {
		t.Fatalf("intact log: stopped at %d of %d (%q) after %d entries", o.goodOff, len(whole), o.torn, len(o.entries))
	}
	tail := ends[len(ends)-3] // where the last two frames start
	torn := make(map[string]int)
	for off := tail; off < len(whole); off++ {
		o := check(fmt.Sprintf("cut at %d", off), whole[:off])
		if o.torn != "" {
			torn[o.torn[:len("tracedb: wal: torn frame h")]]++
		}
		for _, bit := range []int{0, 7} {
			flipped := slices.Clone(whole)
			flipped[off] ^= 1 << bit
			o := check(fmt.Sprintf("bit %d of byte %d flipped", bit, off), flipped)
			if o.torn == "" || o.goodOff >= int64(len(whole)) {
				t.Fatalf("bit %d of byte %d flipped: replay ran to %d without a tear", bit, off, o.goodOff)
			}
			torn[o.torn[:len("tracedb: wal: torn frame h")]]++
		}
	}
	// A frame whose checksum holds and whose payload does not decode ends
	// the log too; no flipped bit gets past the checksum to show it.
	records := mustWALPayload(t, &entries[3])
	for what, payload := range map[string][]byte{
		"unknown kind":   {9, 0xee},
		"trailing bytes": append(slices.Clone(records), 0),
		"short records":  records[:len(records)-1],
	} {
		log := slices.Clone(whole[:tail])
		log = binary.BigEndian.AppendUint32(log, uint32(len(payload)))
		log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(payload))
		log = append(append(log, payload...), whole[tail:]...)
		if o := check(what, log); o.goodOff != int64(tail) {
			t.Fatalf("%s: replay stopped at %d (%q), want %d", what, o.goodOff, o.torn, tail)
		} else {
			torn[o.torn[:len("tracedb: wal: torn frame h")]]++
		}
	}
	// Every way a log ends early was met.
	for _, class := range []string{"tracedb: wal: torn frame h", "tracedb: wal: torn frame p", "tracedb: wal: frame length", "tracedb: wal: frame CRC mi", "tracedb: wal: frame at off"} {
		if torn[class] == 0 {
			t.Errorf("no damaged log stopped with %q...: %v", class, torn)
		}
	}
}

// interleavedBatch is one delivery as an agent ships it: every packet
// fired every site, so the tracepoints alternate record by record.
func interleavedBatch(tpids []uint32, first, packets int) []core.Record {
	recs := make([]core.Record, 0, packets*len(tpids))
	for p := first; p < first+packets; p++ {
		for s, tpid := range tpids {
			recs = append(recs, core.Record{
				TPID: tpid, TraceID: uint32(p)*2654435761 | 1, TimeNs: uint64(p)*5000 + uint64(s)*40_000,
				Len: 164, CPU: uint32(p % 4), Seq: uint64(p),
				SrcIP: 0x0a000001, DstIP: 0x0a010002, SrcPort: uint16(20000 + p%64), DstPort: 9000, Proto: 17,
			})
		}
	}
	return recs
}

// Replaying a log allocates per frame, not per record beyond the head
// arrays the records land in: the file is streamed through one buffer and
// every batch decoded into one array. What is left is 48 bytes a record of
// head, the sealed extents' metadata and the spill's file handling.
func TestRecoverAllocatedBytesPerRecord(t *testing.T) {
	base := t.TempDir()
	cfg := Config{DataDir: filepath.Join(base, "data")}
	dcfg := DurabilityConfig{Dir: filepath.Join(base, "wal")}
	d, _, err := Recover(NewWith(cfg), NewAggStore(), dcfg)
	if err != nil {
		t.Fatal(err)
	}
	const batches, packets = 100, 1024
	tpids := []uint32{1, 4}
	for b := 0; b < batches; b++ {
		d.AdmitRecordBatch("a1", 1, uint64(b+1), interleavedBatch(tpids, b*packets, packets), int64(b), 0)
	}
	if err := d.Close(); err != nil { // no checkpoint: everything is WAL tail
		t.Fatal(err)
	}
	if err := os.RemoveAll(cfg.DataDir); err != nil { // as the recovery itself would
		t.Fatal(err)
	}

	db := NewWith(cfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, stats, err := Recover(db, NewAggStore(), dcfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if want := uint64(batches * packets * len(tpids)); stats.ReplayedRecords != want || stats.TornTails != 0 {
		t.Fatalf("replayed %d records (%d torn tails), want %d", stats.ReplayedRecords, stats.TornTails, want)
	}
	perRec := float64(after.TotalAlloc-before.TotalAlloc) / float64(stats.ReplayedRecords)
	t.Logf("%.1f bytes allocated per replayed record", perRec)
	if perRec > 85 {
		t.Fatalf("recovery allocated %.1f bytes per replayed record, want <= 85", perRec)
	}
}

// Aggregate frames replay through one entry's arrays too: what a frame
// still allocates is its agent and script names, not its slots and flows.
func TestWALReplayReusesAggregateArrays(t *testing.T) {
	scripts := testScripts(1)
	for f := 0; f < 200; f++ {
		scripts[0].Flows = append(scripts[0].Flows, FlowAgg{SrcIP: uint32(f), DstIP: 7, SrcPort: 1, DstPort: 2, Proto: 17, Packets: 3, Bytes: 300})
	}
	const frames = 300
	var log []byte
	for i := 0; i < frames; i++ {
		log = mustWALFrame(t, log, &walEntry{LSN: uint64(i + 1), Kind: walKindAggs, Agent: "a1", Epoch: 1, Seq: uint64(i + 1), Scripts: scripts})
	}
	path := filepath.Join(t.TempDir(), walFileName(1))
	if err := os.WriteFile(path, log, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	var flows int
	runtime.ReadMemStats(&before)
	goodOff, tornErr, err := walReplayFile(path, func(e *walEntry) { flows += len(e.Scripts[0].Flows) })
	runtime.ReadMemStats(&after)
	if err != nil || tornErr != nil || goodOff != int64(len(log)) || flows != frames*len(scripts[0].Flows) {
		t.Fatalf("replay stopped at %d of %d (%v, %v) after %d flows", goodOff, len(log), tornErr, err, flows)
	}
	// The reader's buffer, one frame's worth of arrays, and the names.
	if got, limit := int(after.TotalAlloc-before.TotalAlloc), walReadBuffer+len(log)/10; got > limit {
		t.Fatalf("replaying %d bytes of aggregate frames allocated %d, want <= %d", len(log), got, limit)
	}
}

// A batch that alternates tracepoints goes into the same extents, cut at
// the same records, as its runs inserted one call each: handing a table
// all of its runs under one lock changes neither where a run lands nor
// when its table's seal check runs. Ten tracepoints, so the last ones are
// past what one call remembers and go in run by run, and one of them is
// first seen mid-batch.
func TestInsertInterleavedTPIDs(t *testing.T) {
	cfg := Config{SegmentBytes: 100 * core.RecordSize}
	batched, runByRun := NewWith(cfg), NewWith(cfg)
	tpids := []uint32{3, 1, 9, 4, 7, 12, 5, 8, 6, 2}
	for b := 0; b < 40; b++ {
		recs := interleavedBatch(tpids[:9], b*64, 64)
		if b%3 == 1 {
			// Runs longer than one record, and the tenth tracepoint.
			recs = append(recs, interleavedBatch(tpids[9:], b*64, 20)...)
			recs = append(recs, interleavedBatch(tpids[1:2], b*64+1000, 5)...)
			recs = append(recs, interleavedBatch(tpids[8:], b*64+2000, 3)...)
		}
		batched.Insert(recs)
		for i := 0; i < len(recs); {
			j := i + 1
			for j < len(recs) && recs[j].TPID == recs[i].TPID {
				j++
			}
			runByRun.Insert(recs[i:j])
			i = j
		}
	}
	if got, want := batched.Tables(), runByRun.Tables(); !slices.Equal(got, want) || len(got) != len(tpids) {
		t.Fatalf("tables %v, want %v", got, want)
	}
	for _, tpid := range tpids {
		got, _ := batched.Table(tpid)
		want, _ := runByRun.Table(tpid)
		if got.Extents() != want.Extents() || got.Len() != want.Len() || got.Extents() < 2 {
			t.Fatalf("table %d: %d extents / %d records, want %d / %d", tpid, got.Extents(), got.Len(), want.Extents(), want.Len())
		}
		for i := range got.sealed {
			if g, w := got.sealed[i], want.sealed[i]; g.count != w.count || g.storedBytes != w.storedBytes || g.minTimeNs != w.minTimeNs || g.maxTimeNs != w.maxTimeNs {
				t.Fatalf("table %d extent %d: %d records in %d bytes, want %d in %d", tpid, i, g.count, g.storedBytes, w.count, w.storedBytes)
			}
		}
		var gotRecs, wantRecs []core.Record
		got.Scan(func(r core.Record) bool { gotRecs = append(gotRecs, r); return true })
		want.Scan(func(r core.Record) bool { wantRecs = append(wantRecs, r); return true })
		if !slices.Equal(gotRecs, wantRecs) {
			t.Fatalf("table %d: records differ from run-by-run insertion", tpid)
		}
	}
}
