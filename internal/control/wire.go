package control

import (
	"encoding/binary"
	"fmt"
	"math"

	"vnettracer/internal/core"
)

// Binary batch framing (protocol v4). Record batches dominate the wire
// traffic of a deployment, and JSON inflates the fixed 48-byte record
// roughly 5-8x plus reflection cost on both ends; control packages stay
// JSON (rare, structured, debuggable). A batch frame body is:
//
//	[0]     magic, batchMagic (0xB2 — can never collide with '{' (0x7B),
//	        the first byte of every JSON envelope, so frames are
//	        self-describing)
//	[1]     wire version (batchWireV4)
//	[2:4]   agent-name length, uint16 LE
//	[4:12]  agent time, int64 LE (heartbeat timestamp)
//	[12:20] ring drops since last batch, uint64 LE
//	[20:24] record count, uint32 LE
//	[24:32] batch sequence number, uint64 LE (0 = unsequenced)
//	[32:40] registration epoch, uint64 LE (0 = unleased, never fenced)
//	[40]    degradation level (0 full capture, 1 stretched, 2 sampling)
//	[41:..] agent name bytes
//	[..:..] count * core.RecordSize record bytes (core.Record.MarshalTo layout)
//
// The record section is the records' own memory (core.RecordBytes): the
// encoder copies it in once, and the decoder views it in place when it
// sits at core.RecordAlign in the body, as the TCP server's readBody
// places it, and copies it once when it does not.
//
// The body is carried inside the usual 4-byte big-endian length prefix,
// like every other frame. For a batch of n records the wire cost is
// 4 + 41 + len(agent) + 48n bytes — about 52 bytes/record once a batch
// carries a handful of records. v4 is the only version: the decoder
// refuses any other version byte (the retired v2/v3 layouts had shorter
// headers, so guessing would mis-parse them) and the retired v1 JSON
// batch envelope, with an error.
const (
	batchMagic        = 0xB2
	batchWireV4       = 4
	batchHeaderSizeV4 = 41
)

// EncodeBatchFrame encodes a record batch as a v4 binary frame body
// (without the transport length prefix).
func EncodeBatchFrame(b *RecordBatch) ([]byte, error) {
	return AppendBatchFrame(nil, b)
}

// AppendBatchFrame appends the v4 binary frame body for b to dst and
// returns the extended slice. The record section is one copy of the
// records' wire bytes, and a caller recycling dst (the TCP sink's encode
// pool) pays no allocation at all once the buffer has grown to the
// working batch size.
func AppendBatchFrame(dst []byte, b *RecordBatch) ([]byte, error) {
	if len(b.Agent) > math.MaxUint16 {
		return nil, fmt.Errorf("control: agent name of %d bytes exceeds frame limit", len(b.Agent))
	}
	if len(b.Records) > math.MaxUint32 {
		return nil, fmt.Errorf("control: batch of %d records exceeds frame limit", len(b.Records))
	}
	base := len(dst)
	need := batchHeaderSizeV4 + len(b.Agent) + len(b.Records)*core.RecordSize
	if cap(dst)-base < need {
		grown := make([]byte, base, base+need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[: base+need : base+need]
	hdr := out[base:]
	hdr[0] = batchMagic
	hdr[1] = batchWireV4
	le := binary.LittleEndian
	le.PutUint16(hdr[2:], uint16(len(b.Agent)))
	le.PutUint64(hdr[4:], uint64(b.AgentTimeNs))
	le.PutUint64(hdr[12:], b.RingDrops)
	le.PutUint32(hdr[20:], uint32(len(b.Records)))
	le.PutUint64(hdr[24:], b.Seq)
	le.PutUint64(hdr[32:], b.Epoch)
	hdr[40] = b.Degraded
	copy(hdr[batchHeaderSizeV4:], b.Agent)
	copy(hdr[batchHeaderSizeV4+len(b.Agent):], core.RecordBytes(b.Records))
	return out, nil
}

// DecodeBatchFrame decodes a v4 batch frame body. Anything else — a
// retired wire version, a JSON envelope, a truncated or overlong body —
// is an error: the frame came off the network, so nothing about it is
// trusted until the header and the declared lengths agree. Records views
// the body's record section when it is aligned (else it is one copy of
// it) and RawRecords is the section itself, so the body must not change
// while the batch is in use; the decoder never writes into it.
func DecodeBatchFrame(body []byte) (RecordBatch, error) {
	if len(body) < 2 || body[0] != batchMagic {
		return RecordBatch{}, fmt.Errorf("control: %d-byte body is not a binary batch frame", len(body))
	}
	if v := body[1]; v != batchWireV4 {
		return RecordBatch{}, fmt.Errorf("control: unsupported batch wire version %d (want %d)", v, batchWireV4)
	}
	if len(body) < batchHeaderSizeV4 {
		return RecordBatch{}, fmt.Errorf("control: binary batch header truncated: %d bytes", len(body))
	}
	le := binary.LittleEndian
	nameLen := int(le.Uint16(body[2:]))
	count := int(le.Uint32(body[20:]))
	want := batchHeaderSizeV4 + nameLen + count*core.RecordSize
	if len(body) != want {
		return RecordBatch{}, fmt.Errorf("control: binary batch of %d bytes, header declares %d", len(body), want)
	}
	b := RecordBatch{
		Agent:       string(body[batchHeaderSizeV4 : batchHeaderSizeV4+nameLen]),
		AgentTimeNs: int64(le.Uint64(body[4:])),
		RingDrops:   le.Uint64(body[12:]),
		Seq:         le.Uint64(body[24:]),
		Epoch:       le.Uint64(body[32:]),
		Degraded:    body[40],
	}
	if count > 0 {
		raw := body[batchHeaderSizeV4+nameLen:]
		recs, err := core.ViewRecords(raw)
		if err != nil {
			return RecordBatch{}, fmt.Errorf("control: binary batch records: %w", err)
		}
		// readBody allocates a fresh body per frame, so the view stays
		// valid for the batch's lifetime.
		b.Records = recs
		b.RawRecords = raw
	}
	return b, nil
}
