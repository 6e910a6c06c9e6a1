package control

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// fuzzBatch is a representative sequenced batch used to seed the fuzzer
// with a valid v4 frame and with the retired layouts of the same batch.
func fuzzBatch() RecordBatch {
	b := RecordBatch{Agent: "agent-1", AgentTimeNs: 987654321, RingDrops: 3, Seq: 12, Epoch: 4, Degraded: 1}
	for i := 0; i < 3; i++ {
		b.Records = append(b.Records, core.Record{
			TraceID: uint32(i + 1),
			TPID:    2,
			TimeNs:  uint64(1000 + i),
			Len:     600,
			CPU:     uint32(i),
			Seq:     uint64(40 + i),
			SrcIP:   0x0a000001,
			DstIP:   0x0a000002,
			SrcPort: 5000,
			DstPort: 9000,
			Proto:   17,
			Dir:     1,
		})
	}
	return b
}

// FuzzDecodeBatchFrame feeds the collector's frame decoder arbitrary
// bytes plus mutations of a valid v4 frame and of the retired v1 (JSON),
// v2 and v3 layouts (committed as seed-v1-json, seed-v2, seed-v3: what an
// agent that was never upgraded still sends). The decoder must either
// return an error or a well-formed batch — never panic, never decode
// anything but a v4 body (a retired version is refused, not mis-parsed
// under the v4 header layout), and never allocate a record slice larger
// than the frame could possibly carry (the count field is
// attacker-controlled). Records must equal a field-wise decode of the
// record section, whether the decoder viewed it in place or copied it,
// and RawRecords must be the section's bytes. Whatever decodes must
// survive a re-encode/re-decode round trip unchanged.
func FuzzDecodeBatchFrame(f *testing.F) {
	b := fuzzBatch()
	v4, err := EncodeBatchFrame(&b)
	if err != nil {
		f.Fatal(err)
	}
	v1 := []byte(`{"type":"batch","batch":{"agent":"agent-1","agent_time_ns":987654321,"records":null,"seq":12}}`)
	empty, err := EncodeBatchFrame(&RecordBatch{Agent: "hb", AgentTimeNs: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{batchMagic})
	f.Add(v4)
	f.Add(v1)
	f.Add(empty)
	f.Add(encodeBatchFrameV2(&b))
	f.Add(encodeBatchFrameV3(&b))
	f.Add(v4[:len(v4)-1]) // truncated record tail
	f.Add(v4[:40])        // truncated v4 header
	f.Add(v4[:31])        // cut inside the epoch field
	// Mutations the decoder must reject cleanly: bad version, a count
	// field claiming far more records than the body holds.
	bad := append([]byte(nil), v4...)
	bad[1] = 9
	f.Add(bad)
	huge := append([]byte(nil), v4...)
	binary.LittleEndian.PutUint32(huge[20:], 1<<30)
	f.Add(huge)
	// Agent names of 0-7 bytes put the record section at every offset
	// modulo 8, so both the view and the copy decode run.
	for n := 0; n < 8; n++ {
		nb := b
		nb.Agent = "agent-1"[:n]
		body, err := EncodeBatchFrame(&nb)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeBatchFrame(body)
		if err != nil {
			return
		}
		if body[0] != batchMagic || body[1] != batchWireV4 {
			t.Fatalf("decoded a body that is not a v4 frame: % x...", body[:2])
		}
		// A binary frame carries exactly count*48 record bytes; a decoded
		// slice longer than the body proves the decoder trusted the count
		// field over the data.
		if want := len(got.Records) * core.RecordSize; want > len(body) {
			t.Fatalf("decoded %d records (%d bytes) from a %d-byte frame", len(got.Records), want, len(body))
		}
		section := body[batchHeaderSizeV4+len(got.Agent):]
		if len(got.Records) > 0 && !bytes.Equal(got.RawRecords, section) {
			t.Fatalf("RawRecords is %d bytes, not the %d-byte record section", len(got.RawRecords), len(section))
		}
		for i := range got.Records {
			want, err := core.UnmarshalRecord(section[i*core.RecordSize:])
			if err != nil || got.Records[i] != want {
				t.Fatalf("record %d = %+v, field-wise decode %+v (%v)", i, got.Records[i], want, err)
			}
		}
		reenc, err := AppendBatchFrame(nil, &got)
		if err != nil {
			t.Fatalf("re-encode of decodable batch failed: %v", err)
		}
		rt, err := DecodeBatchFrame(reenc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rt.Agent != got.Agent || rt.AgentTimeNs != got.AgentTimeNs ||
			rt.RingDrops != got.RingDrops || rt.Seq != got.Seq ||
			rt.Epoch != got.Epoch || rt.Degraded != got.Degraded ||
			len(rt.Records) != len(got.Records) {
			t.Fatalf("round trip changed batch: %+v vs %+v", rt, got)
		}
		for i := range rt.Records {
			if rt.Records[i] != got.Records[i] {
				t.Fatalf("round trip changed record %d: %+v vs %+v", i, rt.Records[i], got.Records[i])
			}
		}
	})
}

// FuzzDecodeAggFrame feeds the v5 aggregate-frame decoder arbitrary
// bytes plus mutations of valid frames. The decoder must never panic and
// never size an allocation from a count field the body cannot back (all
// counts are attacker-controlled varints). Whatever decodes must survive
// an encode/decode round trip unchanged — the delta/sparse packing is
// lossless by construction, and the fuzzer holds it to that.
func FuzzDecodeAggFrame(f *testing.F) {
	full := wireAgg()
	v5, err := EncodeAggFrame(&full)
	if err != nil {
		f.Fatal(err)
	}
	empty, err := EncodeAggFrame(&AggBatch{Agent: "hb", AgentTimeNs: 5, Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add([]byte{aggMagic})
	f.Add(v5)
	f.Add(empty)
	f.Add(v5[:len(v5)-1])     // truncated flow tail
	f.Add(v5[:aggHeaderSize]) // header only, body missing
	bad := append([]byte(nil), v5...)
	bad[1] = 9 // unsupported version
	f.Add(bad)
	huge := append([]byte(nil), v5[:aggHeaderSize+len(full.Agent)]...)
	huge = binary.AppendUvarint(huge, 1<<40) // hostile script count
	f.Add(huge)

	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := DecodeAggFrame(body)
		if err != nil {
			return
		}
		// Nothing decoded may outweigh the body it came from by more than
		// the sparse-series bound: every flow row costs >= 7 body bytes and
		// each dense counter >= 1, so a decoded shape far beyond that means
		// a count field was trusted over the data.
		rows := 0
		for i := range got.Scripts {
			rows += len(got.Scripts[i].Counters) + len(got.Scripts[i].Flows)*7
			if len(got.Scripts[i].CPUHits) > tracedb.MaxSparseLen || len(got.Scripts[i].Hist) > tracedb.MaxSparseLen {
				t.Fatalf("sparse series beyond cap: %d/%d", len(got.Scripts[i].CPUHits), len(got.Scripts[i].Hist))
			}
		}
		if rows > len(body) {
			t.Fatalf("decoded %d weighted rows from a %d-byte frame", rows, len(body))
		}
		reenc, err := AppendAggFrame(nil, &got)
		if err != nil {
			t.Fatalf("re-encode of decodable frame failed: %v", err)
		}
		rt, err := DecodeAggFrame(reenc)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(rt, got) {
			t.Fatalf("round trip changed frame:\n %+v\nvs %+v", rt, got)
		}
	})
}
