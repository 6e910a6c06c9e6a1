// Extent is the segment store's unit of sealed storage. (The name avoids
// colliding with the exported latency-decomposition Segment alias in the
// root package.) An Extent is immutable from the moment it is sealed:
// either its compressed blob stays resident in memory, or — when the DB
// has a data directory — the blob is spilled to disk at seal time and
// only the metadata (count, time range, trace-ID bloom filter, where the
// tail starts) stays resident. Eviction drops whole extents; nothing ever
// rewrites one.
package tracedb

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"vnettracer/internal/core"
)

// extentOverheadBytes approximates one Extent's fixed in-memory footprint
// (struct fields, slice headers, path string) for residency accounting.
const extentOverheadBytes = 120

// adoptTailGuess is how much of a spilled extent's end adoption reads
// before it knows where the tail starts: enough for the tail of a
// default-sized segment (~23 KB), so those take one read.
const adoptTailGuess = 32 << 10

// Extent is one sealed, immutable, compressed segment of a table's
// record history. Extents are created by the table's seal path; the
// exported accessors exist for storage introspection (vntquery storage,
// tests, benchmarks).
type Extent struct {
	seq       int
	count     int
	minTimeNs uint64
	maxTimeNs uint64
	filter    bloom

	// blob holds the compressed bytes while resident; path points at the
	// spilled file instead. Exactly one of the two is set after seal.
	blob []byte
	path string
	// storedBytes is the compressed size (== len(blob) == file size);
	// tailOff is where in it the tail (ID section onwards) starts.
	storedBytes int
	tailOff     int
}

// SealRecords compresses a record slice into a standalone extent outside
// any table — for offline tools and benchmarks that want the codec
// without a DB.
func SealRecords(tpid uint32, recs []core.Record) *Extent {
	var enc extentEncoder
	e, blob := sealExtent(&enc, tpid, 0, recs)
	e.blob = bytes.Clone(blob)
	return e
}

// sealExtent compresses recs (one table's next run of records, batch
// aligned by construction) into an immutable extent. The encoded bytes
// alias enc's buffer: the caller spills them or keeps an exact-size copy
// as the extent's blob before enc is used again.
func sealExtent(enc *extentEncoder, tpid uint32, seq int, recs []core.Record) (*Extent, []byte) {
	e := &Extent{seq: seq, count: len(recs), filter: newBloom(len(recs))}
	if len(recs) > 0 {
		e.minTimeNs, e.maxTimeNs = recs[0].TimeNs, recs[0].TimeNs
	}
	for i := range recs {
		t := recs[i].TimeNs
		if t < e.minTimeNs {
			e.minTimeNs = t
		}
		if t > e.maxTimeNs {
			e.maxTimeNs = t
		}
		e.filter.add(recs[i].TraceID)
	}
	blob, tailOff := enc.encode(tpid, recs, e.minTimeNs, e.maxTimeNs)
	e.storedBytes, e.tailOff = len(blob), tailOff
	return e, blob
}

// spill writes the extent's encoded bytes to dir; the extent then lives
// on disk. The write goes to a temp file first and is renamed into place,
// so a crash mid-write never leaves a half-extent under the final name;
// the blob's self-describing tail makes the landed file readable on its
// own.
func (e *Extent) spill(dir string, tpid uint32, blob []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	final := filepath.Join(dir, fmt.Sprintf("tp%08x-%06d.vnx", tpid, e.seq))
	tmp := final + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		os.Remove(tmp)
		return err
	}
	e.path = final
	return nil
}

// reopenExtent rebuilds one spilled extent's resident metadata from its
// tail alone: count and time range from the trailer, the bloom filter
// from the ID section. The blocks are not read; a damaged one surfaces as
// a read error when a query reaches it.
func reopenExtent(path string, tpid uint32, seq int) (*Extent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	rd := readers.Get().(*extentReader)
	defer readers.Put(rd)
	e := &Extent{seq: seq, path: path, storedBytes: int(fi.Size())}
	t, err := e.readTail(f, rd, max(0, e.storedBytes-adoptTailGuess))
	if err != nil {
		return nil, err
	}
	if t.tpid != tpid {
		return nil, fmt.Errorf("tracedb: extent %s: tpid %d in blob, %d in name", filepath.Base(path), t.tpid, tpid)
	}
	e.tailOff = int(t.idOff)
	e.count, e.minTimeNs, e.maxTimeNs = t.count, t.minTimeNs, t.maxTimeNs
	e.filter = newBloom(t.count)
	for ids := t.ids; len(ids) >= 4; ids = ids[4:] {
		e.filter.add(le.Uint32(ids))
	}
	return e, nil
}

// remove deletes a spilled extent's file (eviction); resident extents
// just drop their reference when the table forgets them.
func (e *Extent) remove() {
	if e.path != "" {
		os.Remove(e.path)
	}
}

// extentReader is the scratch one read of an extent needs: a buffer for
// the tail or the whole file, one for a single block, and the record
// array blocks decode into. Readers are pooled, so a query allocates none
// of it.
type extentReader struct {
	buf, blk []byte
	recs     [blockRecords]core.Record
}

var readers = sync.Pool{New: func() any { return new(extentReader) }}

// readAt reads the n bytes at off of a spilled extent's file into buf,
// grown as needed. A read that reaches the extent's end asks for one byte
// more and must be cut short exactly there, so a file that shrank or grew
// since it was sealed fails instead of being misread.
func (e *Extent) readAt(f *os.File, buf []byte, off, n int) ([]byte, error) {
	atEnd := off+n == e.storedBytes
	if atEnd {
		n++
	}
	buf = slices.Grow(buf[:0], n)[:n]
	got, err := f.ReadAt(buf, int64(off))
	if atEnd {
		n--
		if got == n && err == io.EOF {
			err = nil
		} else if err == nil {
			err = fmt.Errorf("tracedb: extent %s is longer than its %d sealed bytes", filepath.Base(e.path), e.storedBytes)
		}
	}
	if err != nil {
		return buf[:0], err
	}
	return buf[:n], nil
}

// readTail reads and verifies the tail of a spilled extent, reading from
// offset from: the extent's tailOff, or adoption's guess when that is not
// known yet — there, a tail that starts earlier costs a second read.
func (e *Extent) readTail(f *os.File, rd *extentReader, from int) (extentTail, error) {
	var err error
	if rd.buf, err = e.readAt(f, rd.buf, from, e.storedBytes-from); err != nil {
		return extentTail{}, err
	}
	t, err := parseExtentTail(rd.buf, int64(e.storedBytes))
	if err == errShortTail {
		if rd.buf, err = e.readAt(f, rd.buf, int(t.idOff), e.storedBytes-int(t.idOff)); err != nil {
			return extentTail{}, err
		}
		t, err = parseExtentTail(rd.buf, int64(e.storedBytes))
	}
	return t, err
}

// view opens the whole extent for a scan: a spilled extent is read once,
// into rd.buf, which the view then aliases. Header, tail and every block
// are verified before it returns, and a scan decodes every block of the
// view before it hands any over (readAhead.decode), so an extent that
// fails — its bytes or its columns — delivers no record.
func (e *Extent) view(rd *extentReader) (extentView, error) {
	blob := e.blob
	if blob == nil {
		f, err := os.Open(e.path)
		if err != nil {
			return extentView{}, err
		}
		rd.buf, err = e.readAt(f, rd.buf, 0, e.storedBytes)
		f.Close()
		if err != nil {
			return extentView{}, err
		}
		blob = rd.buf
	}
	return viewExtent(blob)
}

// lookup appends the extent's records for one trace ID to out, in stored
// order. It reads the tail, scans the ID section, and fetches and decodes
// only the blocks that hold a match; a Bloom false positive costs the
// tail read and no block. On an error nothing is appended.
func (e *Extent) lookup(rd *extentReader, id uint32, out []core.Record) ([]core.Record, error) {
	var f *os.File
	var t extentTail
	var err error
	if e.blob != nil {
		t, err = parseExtentTail(e.blob[e.tailOff:], int64(e.storedBytes))
	} else {
		if f, err = os.Open(e.path); err != nil {
			return out, err
		}
		defer f.Close()
		t, err = e.readTail(f, rd, e.tailOff)
	}
	if err != nil {
		return out, err
	}
	found := len(out)
	decoded := -1 // the block rd.recs holds
	for i, ids := 0, t.ids; len(ids) >= 4; i, ids = i+1, ids[4:] {
		if le.Uint32(ids) != id {
			continue
		}
		if b := i / blockRecords; b != decoded {
			if err := e.loadBlock(f, rd, &t, b); err != nil {
				return out[:found], err
			}
			decoded = b
		}
		out = append(out, rd.recs[i%blockRecords])
	}
	return out, nil
}

// loadBlock fetches block b — a view of the resident blob, or read from f
// — verifies it and decodes it into rd.recs.
func (e *Extent) loadBlock(f *os.File, rd *extentReader, t *extentTail, b int) error {
	off, end, _ := t.blockSpan(b)
	blk := e.blob
	if blk != nil {
		blk = blk[off:end]
	} else {
		var err error
		if rd.blk, err = e.readAt(f, rd.blk, int(off), int(end-off)); err != nil {
			return err
		}
		blk = rd.blk
	}
	if err := t.checkBlock(b, blk); err != nil {
		return err
	}
	_, err := t.decodeBlock(b, blk, rd.recs[:])
	return err
}

// mayContain reports whether the extent can hold records for a trace ID
// (false positives possible, false negatives impossible).
func (e *Extent) mayContain(id uint32) bool { return e.filter.mayContain(id) }

// Spilled reports whether the blob lives on disk rather than in memory.
func (e *Extent) Spilled() bool { return e.path != "" }

// residentBytes is the extent's in-memory footprint: blob (when not
// spilled) plus bloom filter plus fixed overhead.
func (e *Extent) residentBytes() uint64 {
	n := uint64(len(e.filter)*8) + extentOverheadBytes
	if e.path == "" {
		n += uint64(len(e.blob))
	}
	return n
}

// bloom is a fixed double-hash Bloom filter over trace IDs, sized at seal
// to ~10 bits and 4 probes per record (~1% false positives). A false
// positive costs ByTraceID one wasted tail read; a false negative is
// impossible, so queries never miss records. The filter is resident
// only: adoption rebuilds it from the extent's ID section, which costs
// less than the 12 % more disk its bits would take.
type bloom []uint64

func newBloom(n int) bloom {
	bits := n * 10
	if bits < 64 {
		bits = 64
	}
	words := 1
	for words*64 < bits {
		words *= 2
	}
	return make(bloom, words)
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash
// from which the two probe sequences derive.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

func (b bloom) add(id uint32) {
	h := mix(uint64(id) + 0x9e3779b97f4a7c15)
	h1, h2 := h, h>>32|h<<32
	mask := uint64(len(b)*64 - 1)
	for i := uint64(0); i < 4; i++ {
		pos := (h1 + i*h2) & mask
		b[pos/64] |= 1 << (pos % 64)
	}
}

func (b bloom) mayContain(id uint32) bool {
	h := mix(uint64(id) + 0x9e3779b97f4a7c15)
	h1, h2 := h, h>>32|h<<32
	mask := uint64(len(b)*64 - 1)
	for i := uint64(0); i < 4; i++ {
		pos := (h1 + i*h2) & mask
		if b[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}
