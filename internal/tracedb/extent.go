// Extent is the segment store's unit of sealed storage. (The name avoids
// colliding with the exported latency-decomposition Segment alias in the
// root package.) An Extent is immutable from the moment it is sealed:
// either its compressed blob stays resident in memory, or — when the DB
// has a data directory — the blob is appended to its table's pack file at
// seal time and only the metadata (count, time range, trace-ID filter,
// where the tail starts) stays resident. Eviction drops whole extents;
// nothing ever rewrites one.
package tracedb

import (
	"bytes"
	"math/bits"
	"os"
	"sync"

	"vnettracer/internal/core"
)

// extentOverheadBytes approximates one Extent's fixed in-memory footprint
// (struct fields, slice headers, pack reference) for residency accounting.
const extentOverheadBytes = 120

// adoptTailGuess is how much before a packed extent's end adoption reads
// before it knows where the tail starts: enough for the tail of a
// default-sized segment (~23 KB), so those take one read.
const adoptTailGuess = 32 << 10

// Extent is one sealed, immutable, compressed segment of a table's
// record history. Extents are created by the table's seal path; the
// exported accessors exist for storage introspection (vntquery storage,
// tests, benchmarks).
type Extent struct {
	count     int
	minTimeNs uint64
	maxTimeNs uint64
	filter    idFilter

	// blob holds the compressed bytes while resident; pack holds them at
	// [base, base+storedBytes) instead. Exactly one of the two is set
	// after seal.
	blob []byte
	pack *pack
	base int64
	// storedBytes is the compressed size (== len(blob)); tailOff is where
	// in it the tail (ID section onwards) starts.
	storedBytes int
	tailOff     int
}

// SealRecords compresses a record slice into a standalone extent outside
// any table — for offline tools and benchmarks that want the codec
// without a DB.
func SealRecords(tpid uint32, recs []core.Record) *Extent {
	var enc extentEncoder
	e, blob := sealExtent(&enc, tpid, recs)
	e.blob = bytes.Clone(blob)
	return e
}

// sealExtent compresses recs (one table's next run of records, batch
// aligned by construction) into an immutable extent. The encoded bytes
// alias enc's buffer: the caller packs them or keeps an exact-size copy
// as the extent's blob before enc is used again.
func sealExtent(enc *extentEncoder, tpid uint32, recs []core.Record) (*Extent, []byte) {
	e := &Extent{count: len(recs), filter: newIDFilter(len(recs))}
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

// extentReader is the scratch one read of an extent needs: a buffer for
// the tail or the whole extent, one for a single block, and the record
// array blocks decode into. Readers are pooled, so a query allocates none
// of it.
type extentReader struct {
	buf, blk []byte
	recs     [blockRecords]core.Record
}

var readers = sync.Pool{New: func() any { return new(extentReader) }}

// readAt reads the n bytes at off of a packed extent, through f, into
// buf, grown as needed. A pack that ends before them fails the read.
func (e *Extent) readAt(f *os.File, buf []byte, off, n int) ([]byte, error) {
	return readFull(f, buf, e.base+int64(off), n)
}

// readTail reads and verifies the tail of a packed extent.
func (e *Extent) readTail(f *os.File, rd *extentReader) (extentTail, error) {
	var err error
	if rd.buf, err = e.readAt(f, rd.buf, e.tailOff, e.storedBytes-e.tailOff); err != nil {
		return extentTail{}, err
	}
	return parseExtentTail(rd.buf, int64(e.storedBytes))
}

// file returns the packed extent's file for one read: the one its pack
// keeps, or one opened now, which done closes again.
func (e *Extent) file() (*os.File, error) {
	if e.pack.kept {
		return e.pack.f, nil
	}
	return os.Open(e.pack.path)
}

// done ends a read through f, closing it unless the pack keeps it.
func (e *Extent) done(f *os.File) {
	if !e.pack.kept {
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
		t, err = e.readTail(f, rd)
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
func (e *Extent) Spilled() bool { return e.pack != nil }

// residentBytes is the extent's in-memory footprint: blob (when not
// spilled) plus trace-ID filter plus fixed overhead.
func (e *Extent) residentBytes() uint64 {
	n := uint64(len(e.filter)*8) + extentOverheadBytes
	if e.pack == nil {
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
