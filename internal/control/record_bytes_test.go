package control

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// captureSink keeps every batch it is handed.
type captureSink struct{ batches []RecordBatch }

func (s *captureSink) HandleBatch(b RecordBatch) error {
	s.batches = append(s.batches, b)
	return nil
}

// fieldWiseSection is the record section as MarshalTo writes it, field by
// field: the encoding the frame and the WAL carried before records were
// copied as their own bytes.
func fieldWiseSection(recs []core.Record) []byte {
	var out []byte
	for i := range recs {
		out = recs[i].Marshal(out)
	}
	return out
}

// TestRecordSectionsMatchFieldWiseEncoding builds batches the three ways
// records come to exist — drained from a compiled record script's ring,
// written as struct literals, and loaded from JSON as vntquery loads a
// dump — and requires the frame's record section and the WAL entry's to
// equal the field-wise encoding, padding bytes 46-47 zero included.
func TestRecordSectionsMatchFieldWiseEncoding(t *testing.T) {
	r := newRig(t)
	sink := &captureSink{}
	agent := NewAgent("agent-0", r.machine, sink)
	if err := agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	for id := uint32(1); id <= 5; id++ {
		firePacket(r, kernel.SiteUDPRecvmsg, id)
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(sink.batches) == 0 || len(sink.batches[0].Records) != 5 {
		t.Fatalf("agent shipped %d batches, want the 5 drained records first", len(sink.batches))
	}
	drained := sink.batches[0]
	if !bytes.Equal(drained.RawRecords, fieldWiseSection(drained.Records)) {
		t.Fatal("agent batch: RawRecords is not the field-wise encoding of Records")
	}

	var loaded RecordBatch
	dump := `{"agent":"json","records":[{"TraceID":7,"TPID":2,"TimeNs":99,"Len":60,"CPU":1,"Seq":3,` +
		`"SrcIP":167772161,"DstIP":167772162,"SrcPort":4000,"DstPort":53,"Proto":17,"Dir":1},{"TraceID":8,"TPID":2}]}`
	if err := json.Unmarshal([]byte(dump), &loaded); err != nil {
		t.Fatal(err)
	}

	literal := []core.Record{
		{TraceID: 0xdeadbeef, TPID: 3, TimeNs: 1 << 40, Len: 1500, CPU: 7, Seq: 1 << 33,
			SrcIP: 0x0a000001, DstIP: 0x0a000002, SrcPort: 0xffff, DstPort: 9000, Proto: 6, Dir: 0xff},
		{TraceID: 2, TPID: 3},
	}

	sources := []struct {
		name string
		recs []core.Record
	}{
		{"agent-drain", drained.Records},
		{"literal", literal},
		{"json", loaded.Records},
	}
	base := t.TempDir()
	walDir := filepath.Join(base, "wal")
	col, d, _, err := OpenCollector(tracedb.Config{DataDir: filepath.Join(base, "data")}, tracedb.DurabilityConfig{Dir: walDir})
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i, src := range sources {
		section := fieldWiseSection(src.recs)
		for off := 46; off < len(section); off += core.RecordSize {
			if section[off] != 0 || section[off+1] != 0 {
				t.Fatalf("%s: field-wise record %d has non-zero padding", src.name, off/core.RecordSize)
			}
		}
		b := RecordBatch{Agent: src.name, AgentTimeNs: int64(i), Records: src.recs, Seq: uint64(i + 1)}
		body, err := AppendBatchFrame(nil, &b)
		if err != nil {
			t.Fatal(err)
		}
		if got := body[batchHeaderSizeV4+len(b.Agent):]; !bytes.Equal(got, section) {
			t.Fatalf("%s: frame record section differs from the field-wise encoding", src.name)
		}
		if err := col.HandleBatch(b); err != nil {
			t.Fatal(err)
		}
		want = append(want, append(binary.AppendUvarint(nil, uint64(len(src.recs))), section...))
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
	for i, src := range sources {
		if len(log) < 8 {
			t.Fatalf("%s: no WAL frame left", src.name)
		}
		n := int(binary.BigEndian.Uint32(log))
		payload := log[8 : 8+n]
		log = log[8+n:]
		if !bytes.HasSuffix(payload, want[i]) {
			t.Fatalf("%s: WAL record section differs from the field-wise encoding", src.name)
		}
	}
	if len(log) != 0 {
		t.Fatalf("%d bytes of WAL past the %d batches", len(log), len(sources))
	}
}
