// Extent is the segment store's unit of sealed storage. (The name avoids
// colliding with the exported latency-decomposition Segment alias in the
// root package.) An Extent is immutable from the moment it is sealed:
// either its compressed blob stays resident in memory, or — when the DB
// has a data directory — the blob is spilled to disk at seal time and
// only the metadata (count, time range, trace-ID filter, where the tail
// starts) stays resident. Eviction drops whole extents; nothing ever
// rewrites one.
package tracedb

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

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
	filter    idFilter

	// blob holds the compressed bytes while resident; path points at the
	// spilled file instead. Exactly one of the two is set after seal.
	blob []byte
	path string
	// f is the spilled file, kept open from the spill or the adoption
	// that made the extent when its DB's handle budget had room, and nil
	// otherwise: then every read opens path. It is set before the extent
	// is published and closed only by remove or DB.Close.
	f *os.File
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
	e := &Extent{seq: seq, count: len(recs), filter: newIDFilter(len(recs))}
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
// own. The file is opened for reading too and, while hs has room, kept
// open for the extent's reads.
func (e *Extent) spill(dir string, tpid uint32, blob []byte, hs *handles) error {
	final := filepath.Join(dir, fmt.Sprintf("tp%08x-%06d.vnx", tpid, e.seq))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		// The first spill makes the data directory, and so does the next
		// one after it is removed; the seals between ask nothing of it.
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		}
	}
	if err != nil {
		return err
	}
	if _, err = f.Write(blob); err == nil {
		err = os.Rename(tmp, final)
	}
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	e.path = final
	e.keep(f, hs)
	return nil
}

// keep makes f the extent's open file when hs has room for it, and closes
// it otherwise. The first file kept grows the descriptor table to the
// budget's size.
func (e *Extent) keep(f *os.File, hs *handles) {
	if hs.reserve() {
		growFDTable(f, hs.budget)
		e.f = f
	} else {
		f.Close()
	}
}

// reopenExtent rebuilds one spilled extent's resident metadata from its
// tail alone: count and time range from the trailer, the trace-ID filter
// from the ID section. The blocks are not read; a damaged one surfaces as
// a read error when a query reaches it. The file stays open for the
// extent's reads while hs has room.
func reopenExtent(path string, tpid uint32, seq int, hs *handles) (*Extent, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	e, err := adoptExtent(f, path, tpid, seq)
	if err != nil {
		f.Close()
		return nil, err
	}
	e.keep(f, hs)
	return e, nil
}

// adoptExtent builds the extent that f, the file at path, holds.
func adoptExtent(f *os.File, path string, tpid uint32, seq int) (*Extent, error) {
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
	e.filter = newIDFilter(t.count)
	for ids := t.ids; len(ids) >= 4; ids = ids[4:] {
		e.filter.add(le.Uint32(ids))
	}
	return e, nil
}

// remove deletes a spilled extent's file (eviction), closing the file it
// keeps first; resident extents just drop their reference when the table
// forgets them. A read still under way through a snapshot that holds the
// extent fails and is counted, as it would on an unlinked path.
func (e *Extent) remove(hs *handles) {
	hs.release(e)
	if e.path != "" {
		os.Remove(e.path)
	}
}

// handles is one DB's budget of spilled-extent files kept open across
// reads. A lookup or scan of an extent within it opens nothing; past it,
// each read opens the file and closes it again.
type handles struct {
	budget int64
	open   atomic.Int64
	closed atomic.Bool // the DB is closed: keep nothing more
}

// maxExtentHandles bounds a DB's kept files. A quarter of the process's
// open-file soft limit caps it lower, so the store never takes the
// descriptors its sockets and logs need.
const maxExtentHandles = 1024

// extentHandleBudget is the budget each DB starts with.
var extentHandleBudget = func() int64 {
	n := uint64(maxExtentHandles)
	if lim := openFileLimit(); lim > 0 {
		n = min(n, lim/4)
	}
	return int64(n)
}()

// reserve claims one handle; false when the budget is spent or the DB is
// closed.
func (hs *handles) reserve() bool {
	if hs.closed.Load() {
		return false
	}
	if hs.open.Add(1) <= hs.budget {
		return true
	}
	hs.open.Add(-1)
	return false
}

// release closes the file e keeps, if any, and returns its handle. A file
// already closed is not counted twice.
func (hs *handles) release(e *Extent) error {
	if e.f == nil {
		return nil
	}
	err := e.f.Close()
	if errors.Is(err, os.ErrClosed) {
		return nil
	}
	hs.open.Add(-1)
	return err
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

// file returns the spilled extent's file for one read: the one it keeps,
// or one opened now, which done closes again.
func (e *Extent) file() (*os.File, error) {
	if e.f != nil {
		return e.f, nil
	}
	return os.Open(e.path)
}

// done ends a read through f, closing it unless the extent keeps it.
func (e *Extent) done(f *os.File) {
	if f != e.f {
		f.Close()
	}
}

// view opens the whole extent for a scan: a spilled extent is read once,
// into rd.buf, which the view then aliases. Header, tail and every block
// are verified before it returns, and a scan decodes every block of the
// view before it hands any over (readAhead.decode), so an extent that
// fails — its bytes or its columns — delivers no record.
func (e *Extent) view(rd *extentReader) (extentView, error) {
	blob := e.blob
	if blob == nil {
		f, err := e.file()
		if err != nil {
			return extentView{}, err
		}
		rd.buf, err = e.readAt(f, rd.buf, 0, e.storedBytes)
		e.done(f)
		if err != nil {
			return extentView{}, err
		}
		blob = rd.buf
	}
	return viewExtent(blob)
}

// lookup appends the extent's records for one trace ID to out, in stored
// order. It reads the tail, scans the ID section, and fetches and
// verifies only the blocks that hold a match; of a block with one match
// it decodes that row alone, of one with more the whole block. A filter
// false positive costs the tail read and the scan, and no block. On an
// error nothing is appended.
func (e *Extent) lookup(rd *extentReader, id uint32, out []core.Record) ([]core.Record, error) {
	var f *os.File
	var t extentTail
	var err error
	if e.blob != nil {
		t, err = parseExtentTail(e.blob[e.tailOff:], int64(e.storedBytes))
	} else {
		if f, err = e.file(); err != nil {
			return out, err
		}
		defer e.done(f)
		t, err = e.readTail(f, rd, e.tailOff)
	}
	if err != nil {
		return out, err
	}
	found := len(out)
	for i := nextID(t.ids, id, 0); i >= 0; {
		b := i / blockRecords
		blk, err := e.readBlock(f, rd, &t, b)
		if err != nil {
			return out[:found], err
		}
		next := nextID(t.ids, id, i+1)
		if next < 0 || next/blockRecords != b {
			out = append(out, core.Record{})
			err = t.decodeRow(b, blk, i%blockRecords, &out[len(out)-1])
		} else {
			var recs []core.Record
			if recs, err = t.decodeBlock(b, blk, rd.recs[:]); err == nil {
				for _, r := range recs[i%blockRecords:] {
					if r.TraceID == id {
						out = append(out, r)
					}
				}
				next = nextID(t.ids, id, min((b+1)*blockRecords, t.count))
			}
		}
		if err != nil {
			return out[:found], err
		}
		i = next
	}
	return out, nil
}

// nextID returns the index of the first trace ID at or after index i of
// an ID section that equals id, or -1. bytes.Index finds the ID's four
// bytes at a vectorised rate; a hit that straddles two IDs resumes the
// search one byte past it, so even a section built to straddle costs one
// pass in total.
func nextID(ids []byte, id uint32, i int) int {
	var want [4]byte
	le.PutUint32(want[:], id)
	for off := 4 * i; ; off++ {
		j := bytes.Index(ids[off:], want[:])
		if j < 0 {
			return -1
		}
		if off += j; off%4 == 0 {
			return off / 4
		}
	}
}

// readBlock returns block b's verified bytes: a view of the resident
// blob, or read from f into rd.blk.
func (e *Extent) readBlock(f *os.File, rd *extentReader, t *extentTail, b int) ([]byte, error) {
	off, end, _ := t.blockSpan(b)
	blk := e.blob
	if blk != nil {
		blk = blk[off:end]
	} else {
		var err error
		if rd.blk, err = e.readAt(f, rd.blk, int(off), int(end-off)); err != nil {
			return nil, err
		}
		blk = rd.blk
	}
	return blk, t.checkBlock(b, blk)
}

// mayContain reports whether the extent can hold records for a trace ID
// (false positives possible, false negatives impossible).
func (e *Extent) mayContain(id uint32) bool { return e.filter.mayContain(id) }

// Spilled reports whether the blob lives on disk rather than in memory.
func (e *Extent) Spilled() bool { return e.path != "" }

// residentBytes is the extent's in-memory footprint: blob (when not
// spilled) plus trace-ID filter plus fixed overhead.
func (e *Extent) residentBytes() uint64 {
	n := uint64(len(e.filter)*8) + extentOverheadBytes
	if e.path == "" {
		n += uint64(len(e.blob))
	}
	return n
}

// idFilter is a cache-line-blocked Bloom filter over trace IDs (Putze,
// Sanders & Singler, "Cache-, Hash- and Space-Efficient Bloom Filters",
// WEA 2007). One hash of the ID picks a 64-byte block and sets one bit in
// each of the block's eight words, so an add or a probe touches one block
// of memory, not four scattered words. At filterBitsPerID bits per
// record (exactly ⌈n/32⌉ blocks, no power-of-two rounding) the
// false-positive rate is ~0.09 % at 2 resident bytes per record. A false positive costs ByTraceID one wasted tail read
// and ID scan; a false negative is impossible, so queries never miss
// records. The filter is resident only: adoption rebuilds it from the
// extent's ID section, which costs less than the 17 % more disk its bits
// would take.
type idFilter []uint64

const (
	filterBitsPerID  = 16
	filterBlockWords = 8 // 512 bits: one cache line
	filterBlockBits  = filterBlockWords * 64
)

// newIDFilter sizes a filter for n IDs; it has at least one block, so an
// empty extent's filter is valid and admits nothing.
func newIDFilter(n int) idFilter {
	blocks := max(1, (n*filterBitsPerID+filterBlockBits-1)/filterBlockBits)
	return make(idFilter, blocks*filterBlockWords)
}

// idHash mixes an ID with one 64×64→128-bit multiply whose operands both
// carry the ID, folded high into low. Its top 32 bits pick the block and
// its low 48 the eight in-word bit positions.
func idHash(id uint32) uint64 {
	x := uint64(id)<<32 | uint64(id)
	hi, lo := bits.Mul64(x^0x9e3779b97f4a7c15, x^0xbf58476d1ce4e5b9)
	return hi ^ lo
}

// block is h's block, chosen by multiply-shift range reduction.
func (f idFilter) block(h uint64) *[filterBlockWords]uint64 {
	i := (h >> 32 * uint64(len(f)/filterBlockWords)) >> 32 * filterBlockWords
	return (*[filterBlockWords]uint64)(f[i : i+filterBlockWords])
}

func (f idFilter) add(id uint32) {
	h := idHash(id)
	b := f.block(h)
	b[0] |= 1 << (h & 63)
	b[1] |= 1 << (h >> 6 & 63)
	b[2] |= 1 << (h >> 12 & 63)
	b[3] |= 1 << (h >> 18 & 63)
	b[4] |= 1 << (h >> 24 & 63)
	b[5] |= 1 << (h >> 30 & 63)
	b[6] |= 1 << (h >> 36 & 63)
	b[7] |= 1 << (h >> 42 & 63)
}

func (f idFilter) mayContain(id uint32) bool {
	h := idHash(id)
	b := f.block(h)
	return (b[0]>>(h&63))&(b[1]>>(h>>6&63))&(b[2]>>(h>>12&63))&(b[3]>>(h>>18&63))&
		(b[4]>>(h>>24&63))&(b[5]>>(h>>30&63))&(b[6]>>(h>>36&63))&(b[7]>>(h>>42&63))&1 != 0
}

// mix is splitmix64's finalizer: a cheap, well-distributed 64-bit hash.
func mix(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}
