package core

import (
	"encoding/binary"
	"fmt"
)

// RecordSize is the fixed length of a raw trace record as emitted by trace
// programs through perf_event_output and parsed by the collector.
const RecordSize = 48

// Record is one trace observation: packet identity, where and when it was
// seen. Records from all tracepoints are joined on TraceID to reconstruct
// per-packet paths (paper Section III-C: "records are indexed by their
// packet IDs").
type Record struct {
	TraceID uint32
	// TPID identifies the tracepoint that produced the record; the
	// dispatcher assigns these in the control package.
	TPID    uint32
	TimeNs  uint64 // node CLOCK_MONOTONIC
	Len     uint32 // wire length
	CPU     uint32
	Seq     uint64
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Dir     uint8
}

// MarshalTo serializes the 48-byte wire form in place into dst, which
// must hold at least RecordSize bytes. This is the zero-copy path: the
// ring-buffer reserve/commit producer and the batch wire encoder hand it
// a slice directly into their destination buffer. Bytes 46-47 of dst are
// reserved padding and are zeroed.
func (r *Record) MarshalTo(dst []byte) {
	le := binary.LittleEndian
	le.PutUint32(dst[0:], r.TraceID)
	le.PutUint32(dst[4:], r.TPID)
	le.PutUint64(dst[8:], r.TimeNs)
	le.PutUint32(dst[16:], r.Len)
	le.PutUint32(dst[20:], r.CPU)
	le.PutUint64(dst[24:], r.Seq)
	le.PutUint32(dst[32:], r.SrcIP)
	le.PutUint32(dst[36:], r.DstIP)
	le.PutUint16(dst[40:], r.SrcPort)
	le.PutUint16(dst[42:], r.DstPort)
	dst[44] = r.Proto
	dst[45] = r.Dir
	dst[46], dst[47] = 0, 0
}

// zeroRecord grows destination slices in Marshal without a temporary.
var zeroRecord [RecordSize]byte

// Marshal appends the 48-byte wire form to b. It allocates only when b
// lacks capacity; writers that already own destination space should use
// MarshalTo.
func (r *Record) Marshal(b []byte) []byte {
	n := len(b)
	b = append(b, zeroRecord[:]...)
	r.MarshalTo(b[n:])
	return b
}

// UnmarshalRecord parses one record from b.
func UnmarshalRecord(b []byte) (Record, error) {
	if len(b) < RecordSize {
		return Record{}, fmt.Errorf("core: record too short: %d bytes", len(b))
	}
	le := binary.LittleEndian
	return Record{
		TraceID: le.Uint32(b[0:]),
		TPID:    le.Uint32(b[4:]),
		TimeNs:  le.Uint64(b[8:]),
		Len:     le.Uint32(b[16:]),
		CPU:     le.Uint32(b[20:]),
		Seq:     le.Uint64(b[24:]),
		SrcIP:   le.Uint32(b[32:]),
		DstIP:   le.Uint32(b[36:]),
		SrcPort: le.Uint16(b[40:]),
		DstPort: le.Uint16(b[42:]),
		Proto:   b[44],
		Dir:     b[45],
	}, nil
}

// UnmarshalRecords parses a concatenation of records, as drained from the
// ring buffer.
func UnmarshalRecords(b []byte) ([]Record, error) {
	if len(b)%RecordSize != 0 {
		return nil, fmt.Errorf("core: record stream length %d not a multiple of %d", len(b), RecordSize)
	}
	out := make([]Record, 0, len(b)/RecordSize)
	for off := 0; off < len(b); off += RecordSize {
		r, err := UnmarshalRecord(b[off:])
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
