package control

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vnettracer/internal/tracedb"
)

// wireAgg builds a representative aggregate frame: two scripts, one with
// every series populated, one counters-only.
func wireAgg() AggBatch {
	return AggBatch{
		Agent:       "agent-1",
		AgentTimeNs: 987654321,
		Seq:         7,
		Epoch:       3,
		Degraded:    1,
		Scripts: []tracedb.ScriptAgg{
			{
				Script:   "flows",
				Counters: []uint64{1000, 640000},
				CPUHits:  []uint64{0, 993, 0, 7},
				Hist:     append(make([]uint64, 9), 700, 0, 300),
				Flows: []tracedb.FlowAgg{
					{SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 5000, DstPort: 9000, Proto: 17, Packets: 600, Bytes: 384000},
					{SrcIP: 0x0a000001, DstIP: 0x0a000003, SrcPort: 5001, DstPort: 9000, Proto: 17, Packets: 400, Bytes: 256000},
				},
			},
			{Script: "tiny", Counters: []uint64{3, 1800}},
		},
	}
}

func TestAggFrameRoundTrip(t *testing.T) {
	want := wireAgg()
	body, err := EncodeAggFrame(&want)
	if err != nil {
		t.Fatal(err)
	}
	if body[0] != aggMagic || body[1] != aggWireV5 {
		t.Fatalf("frame starts %#x version %d", body[0], body[1])
	}
	got, err := DecodeAggFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// The whole two-script frame must undercut even a handful of records:
	// 1000 aggregated packets as v4 records would be 48000 bytes.
	if len(body) > 200 {
		t.Fatalf("aggregate frame of %d bytes — varint packing regressed", len(body))
	}
}

// The v5 bytes do not move: wireAgg() encodes to the frame committed as
// the FuzzDecodeAggFrame seed when v5 was introduced.
func TestAggFrameBytesPinned(t *testing.T) {
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDecodeAggFrame", "seed-v5-full"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(seed)), "\n")
	quoted := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
	want, err := strconv.Unquote(quoted)
	if err != nil {
		t.Fatal(err)
	}
	b := wireAgg()
	got, err := EncodeAggFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("wireAgg() encodes to\n %x\nthe committed v5 frame is\n %x", got, want)
	}
}

// TestAggFrameEmptyDrainRoundTrips pins the zero-payload case (all-empty
// scripts list) — legal on the wire even though agents skip it.
func TestAggFrameEmptyDrainRoundTrips(t *testing.T) {
	want := AggBatch{Agent: "a", AgentTimeNs: 1, Seq: 1}
	body, err := EncodeAggFrame(&want)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAggFrame(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: %+v want %+v", got, want)
	}
}

// TestAggFrameRejectsHostileCounts pins the no-over-allocation contract:
// count fields claiming more elements than the body holds are rejected
// before any allocation sized from them.
func TestAggFrameRejectsHostileCounts(t *testing.T) {
	b := wireAgg()
	body, err := EncodeAggFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error or decode cleanly —
	// never panic.
	for i := 0; i < len(body); i++ {
		DecodeAggFrame(body[:i])
	}
	// A huge script count right after the agent name.
	hostile := append([]byte(nil), body[:aggHeaderSize+len(b.Agent)]...)
	hostile = binary.AppendUvarint(hostile, 1<<40)
	if _, err := DecodeAggFrame(hostile); err == nil {
		t.Fatal("hostile script count accepted")
	}
	// A sparse series declaring an absurd dense length.
	hostile = append([]byte(nil), body[:aggHeaderSize+len(b.Agent)]...)
	hostile = binary.AppendUvarint(hostile, 1) // one script
	hostile = binary.AppendUvarint(hostile, 1)
	hostile = append(hostile, 's')
	hostile = binary.AppendUvarint(hostile, 0)     // no counters
	hostile = binary.AppendUvarint(hostile, 1<<40) // cpu hits: dense length
	hostile = binary.AppendUvarint(hostile, 0)     // no nonzero entries
	if _, err := DecodeAggFrame(hostile); err == nil || !strings.Contains(err.Error(), "sparse series") {
		t.Fatalf("hostile sparse length: %v", err)
	}
	// Bad version and bad magic fail closed.
	bad := append([]byte(nil), body...)
	bad[1] = 9
	if _, err := DecodeAggFrame(bad); err == nil {
		t.Fatal("bad version accepted")
	}
	if _, err := DecodeAggFrame([]byte{batchMagic, aggWireV5}); err == nil {
		t.Fatal("batch magic accepted as aggregate frame")
	}
}

// TestAggFrameFailsClosedOnV5UnawareDecoder pins satellite-6 semantics:
// a v5 aggregate frame presented to the record-batch decoder (what a
// pre-v5 collector would do) errors out instead of misparsing — the
// magic byte differs from both batchMagic and '{', so the legacy decoder
// falls into its JSON path and fails.
func TestAggFrameFailsClosedOnV5UnawareDecoder(t *testing.T) {
	b := wireAgg()
	body, err := EncodeAggFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBatchFrame(body); err == nil {
		t.Fatal("record-batch decoder accepted a v5 aggregate frame")
	}
	// And the reverse: record frames are not aggregate frames.
	rb := wireBatch(2)
	rbody, err := EncodeBatchFrame(&rb)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeAggFrame(rbody); err == nil {
		t.Fatal("aggregate decoder accepted a record-batch frame")
	}
}

// An aggregate frame has one binary form: the bytes a collector's WAL
// logs after its ledger prefix (LSN, kind, agent, epoch, seq, time,
// degraded) are the bytes the v5 frame carries after its header and
// agent name.
func TestWALLogsTheWireScriptSection(t *testing.T) {
	b := wireAgg()
	body, err := EncodeAggFrame(&b)
	if err != nil {
		t.Fatal(err)
	}
	section := body[aggHeaderSize+len(b.Agent):]

	base := t.TempDir()
	walDir := filepath.Join(base, "wal")
	col, d, _, err := OpenCollector(tracedb.Config{DataDir: filepath.Join(base, "data")}, tracedb.DurabilityConfig{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	if err := col.HandleAgg(b); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	gens, err := filepath.Glob(filepath.Join(walDir, "wal-*.log"))
	if err != nil || len(gens) != 1 {
		t.Fatalf("wal generations %v (%v), want one", gens, err)
	}
	log, err := os.ReadFile(gens[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(log) < 8 || int(binary.BigEndian.Uint32(log)) != len(log)-8 {
		t.Fatalf("wal of %d bytes is not one frame", len(log))
	}
	p := log[8:]
	uvarint := func() uint64 {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			t.Fatalf("bad varint in the ledger prefix")
		}
		p = p[n:]
		return v
	}
	uvarint() // LSN
	if kind := p[0]; kind != 4 {
		t.Fatalf("aggregate frame logged as kind %d, want 4", kind)
	}
	p = p[1:]
	if agent := string(p[1 : 1+p[0]]); agent != b.Agent {
		t.Fatalf("logged agent %q, want %q", agent, b.Agent)
	}
	p = p[1+p[0]:]
	if epoch, seq := uvarint(), uvarint(); epoch != b.Epoch || seq != b.Seq {
		t.Fatalf("logged epoch %d seq %d, want %d and %d", epoch, seq, b.Epoch, b.Seq)
	}
	uvarint() // time
	p = p[1:] // degraded
	if !bytes.Equal(p, section) {
		t.Fatalf("wal logs a %d-byte script section, the wire frame carries %d:\n wal  %x\n wire %x", len(p), len(section), p, section)
	}
}
