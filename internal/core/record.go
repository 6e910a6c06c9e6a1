package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"unsafe"
)

// RecordSize is the fixed length of a raw trace record as emitted by trace
// programs through perf_event_output and parsed by the collector.
const RecordSize = 48

// RecordAlign is the address alignment a record section needs for
// ViewRecords to view it in place rather than copy it.
const RecordAlign = int(unsafe.Alignof(Record{}))

// nativeLE reports a little-endian host, where a Record's memory is its
// wire form; a big-endian host converts field by field instead.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Record is one trace observation: packet identity, where and when it was
// seen. Records from all tracepoints are joined on TraceID to reconstruct
// per-packet paths (paper Section III-C: "records are indexed by their
// packet IDs").
//
// The struct's memory layout is the 48-byte wire form on a little-endian
// host: the fields sit at their MarshalTo offsets and bytes 46-47 are
// padding. RecordBytes and ViewRecords rely on it, so the ring, the batch
// frame and the WAL share one form; do not reorder or add fields.
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
// ring buffer, into a fresh slice that does not alias b.
func UnmarshalRecords(b []byte) ([]Record, error) {
	return AppendRecords(make([]Record, 0, len(b)/RecordSize), b)
}

// checkSection requires b to hold whole records.
func checkSection(b []byte) error {
	if len(b)%RecordSize != 0 {
		return fmt.Errorf("core: record stream length %d not a multiple of %d", len(b), RecordSize)
	}
	return nil
}

// RecordBytes returns the wire form of recs: on a little-endian host a
// view of their memory (writes through it change recs), on a big-endian
// one a fresh MarshalTo encoding. Either way the caller reads it and
// writes nothing through it. Bytes 46-47 of each record are its padding,
// zero for every record a producer here makes; nil for no records.
func RecordBytes(recs []Record) []byte {
	if len(recs) == 0 {
		return nil
	}
	if !nativeLE {
		out := make([]byte, len(recs)*RecordSize)
		for i := range recs {
			recs[i].MarshalTo(out[i*RecordSize:])
		}
		return out
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(recs))), len(recs)*RecordSize)
}

// ViewRecords returns the records of a section of whole records. When
// the section sits at RecordAlign on a little-endian host the result is
// a view of b itself, with no copy: b must then stay unchanged for as
// long as the records are used. Otherwise it is a fresh slice, filled by
// one copy (or, on a big-endian host, field by field).
func ViewRecords(b []byte) ([]Record, error) {
	if err := checkSection(b); err != nil {
		return nil, err
	}
	if len(b) == 0 {
		return nil, nil
	}
	if nativeLE && AlignPad(b) == 0 {
		return unsafe.Slice((*Record)(unsafe.Pointer(unsafe.SliceData(b))), len(b)/RecordSize), nil
	}
	return AppendRecords(make([]Record, 0, len(b)/RecordSize), b)
}

// AppendRecords appends the records of a section of whole records to
// dst, growing it at most once: one copy on a little-endian host, a
// field-by-field decode on a big-endian one. b is only read.
func AppendRecords(dst []Record, b []byte) ([]Record, error) {
	if err := checkSection(b); err != nil {
		return dst, err
	}
	n := len(b) / RecordSize
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	if nativeLE {
		copy(RecordBytes(dst[base:]), b)
		return dst, nil
	}
	for i := range dst[base:] {
		dst[base+i], _ = UnmarshalRecord(b[i*RecordSize:]) // RecordSize bytes are there
	}
	return dst, nil
}

// AlignPad returns how many bytes past the start of b the first address
// aligned for a Record lies: 0 when b itself is aligned, at most
// RecordAlign-1.
func AlignPad(b []byte) int {
	return int(-uintptr(unsafe.Pointer(unsafe.SliceData(b))) & uintptr(RecordAlign-1))
}
