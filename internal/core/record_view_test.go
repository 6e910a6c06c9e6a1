package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// TestRecordLayoutIsWireForm holds the struct to the wire layout the
// views rely on: 48 bytes, and each field at the offset and width
// MarshalTo writes it, found by marshalling the field alone at its
// maximum value.
func TestRecordLayoutIsWireForm(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != RecordSize {
		t.Fatalf("unsafe.Sizeof(Record{}) = %d, want %d", got, RecordSize)
	}
	typ := reflect.TypeOf(Record{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		var r Record
		reflect.ValueOf(&r).Elem().Field(i).SetUint(^uint64(0))
		b := r.Marshal(nil)
		lo := bytes.IndexFunc(b, func(c rune) bool { return c != 0 })
		hi := bytes.LastIndexByte(b, 0xff) + 1
		if lo != int(f.Offset) || hi-lo != int(f.Type.Size()) {
			t.Errorf("%s: struct bytes [%d,%d), MarshalTo writes [%d,%d)", f.Name, f.Offset, f.Offset+f.Type.Size(), lo, hi)
		}
	}
}

// randRecords returns n records with every field drawn at random.
func randRecords(rng *rand.Rand, n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{
			TraceID: rng.Uint32(), TPID: rng.Uint32(), TimeNs: rng.Uint64(),
			Len: rng.Uint32(), CPU: rng.Uint32(), Seq: rng.Uint64(),
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
			Proto: uint8(rng.Uint32()), Dir: uint8(rng.Uint32()),
		}
	}
	return recs
}

// fieldWise is the reference decode: UnmarshalRecord per record.
func fieldWise(t *testing.T, b []byte) []Record {
	t.Helper()
	var out []Record
	for off := 0; off < len(b); off += RecordSize {
		r, err := UnmarshalRecord(b[off:])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, r)
	}
	return out
}

// TestRecordViewsMatchFieldWise sweeps record counts and source offsets
// 0-7, with and without spare capacity behind the section, on both the
// native path and the big-endian field loop. ViewRecords, AppendRecords
// and UnmarshalRecords must equal the field-wise decode; RecordBytes
// must equal the MarshalTo encoding; ViewRecords views exactly the
// aligned sections; and no call writes a byte of the caller's buffer.
func TestRecordViewsMatchFieldWise(t *testing.T) {
	defer func(le bool) { nativeLE = le }(nativeLE)
	for _, le := range []bool{nativeLE, false} {
		nativeLE = le
		rng := rand.New(rand.NewSource(49))
		for _, n := range []int{0, 1, 2, 7, 64} {
			recs := randRecords(rng, n)
			var wire []byte
			for i := range recs {
				wire = recs[i].Marshal(wire)
			}
			if got := RecordBytes(recs); !bytes.Equal(got, wire) {
				t.Fatalf("le=%v n=%d: RecordBytes differs from MarshalTo", le, n)
			}
			for off := 0; off < 8; off++ {
				for _, spare := range []int{0, 13} {
					backing := make([]byte, 8+off+len(wire)+spare)
					rng.Read(backing)
					start := AlignPad(backing) + off
					copy(backing[start:], wire)
					src := backing[start : start+len(wire) : start+len(wire)+spare]
					before := bytes.Clone(backing)

					view, err := ViewRecords(src)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Equal(view, fieldWise(t, src)) {
						t.Fatalf("le=%v n=%d off=%d spare=%d: view differs from field-wise decode", le, n, off, spare)
					}
					aliased := n > 0 && unsafe.Pointer(unsafe.SliceData(view)) == unsafe.Pointer(unsafe.SliceData(src))
					if want := le && n > 0 && off%RecordAlign == 0; aliased != want {
						t.Fatalf("le=%v n=%d off=%d: view aliases source = %v, want %v", le, n, off, aliased, want)
					}
					copied, err := UnmarshalRecords(src)
					if err != nil || !slices.Equal(copied, fieldWise(t, src)) {
						t.Fatalf("le=%v n=%d off=%d: UnmarshalRecords differs: %v", le, n, off, err)
					}
					if n > 0 && unsafe.Pointer(unsafe.SliceData(copied)) == unsafe.Pointer(unsafe.SliceData(src)) {
						t.Fatalf("le=%v n=%d off=%d: UnmarshalRecords aliases its input", le, n, off)
					}
					head := randRecords(rng, 3)
					appended, err := AppendRecords(head[:2], src)
					if err != nil || !slices.Equal(appended, append(head[:2:2], fieldWise(t, src)...)) {
						t.Fatalf("le=%v n=%d off=%d: AppendRecords differs: %v", le, n, off, err)
					}
					if !bytes.Equal(backing, before) {
						t.Fatalf("le=%v n=%d off=%d spare=%d: the caller's buffer was written", le, n, off, spare)
					}
				}
			}
		}
	}
}

// TestRecordViewsRejectRaggedSections requires whole records.
func TestRecordViewsRejectRaggedSections(t *testing.T) {
	b := make([]byte, RecordSize+5)
	if _, err := ViewRecords(b); err == nil {
		t.Fatal("ViewRecords accepted a ragged section")
	}
	if _, err := AppendRecords(nil, b); err == nil {
		t.Fatal("AppendRecords accepted a ragged section")
	}
}
