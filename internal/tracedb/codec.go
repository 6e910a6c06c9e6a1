// Record codec for sealed extents, `vntx` version 2: column blocks that
// restart every 256 records, one fixed-width trace-ID section, and a tail
// that holds everything a reader needs before it touches a block. The
// three readers each read only their part:
//
//   - adoption (Recover) and a trace-ID lookup read the tail — ID
//     section, dictionary, directory, trailer — in one pread, verify its
//     CRC and its geometry against the extent's size, and then either
//     rebuild the resident metadata from it or scan the ID section and
//     fetch, by directory offset, only the block(s) that hold a match;
//   - a scan reads the whole extent once, verifies header, tail and every
//     block's CRC, and decodes every block before the first record is
//     delivered, so an extent delivers all of its records or none.
//
// Layout (all fixed-width integers little-endian):
//
//	header      magic "vntx" | version byte (2)
//	blocks      block 0 | block 1 | ...
//	              block i holds records [256i, 256i+256) of the extent as
//	              five columns, each one varint per record: time, len,
//	              cpu, seq, flow ref
//	ID section  count × uint32 trace IDs, insertion order
//	dictionary  flows × 14 B: srcIP u32, dstIP u32, srcPort u16,
//	              dstPort u16, proto, dir
//	directory   blocks × 12 B: block offset u64, CRC-32C of its bytes u32
//	trailer     tpid u32 | flows u32 | count u64 | minTimeNs u64 |
//	              maxTimeNs u64 | idOff u64 | CRC-32C u32
//
// idOff is where the blocks end and the tail begins; the trailer's CRC
// covers the tail from there up to the CRC itself. The block size is a
// format constant, so the number of blocks and of records in each follow
// from count and are not stored: there is nothing there to forge.
//
// Columns restart at every block: the first record's time, len, cpu and
// seq are raw uvarints, later ones zigzag-varint deltas (delta-of-delta
// for time) computed with wrap-around arithmetic at the field's width and
// reversed the same way, so encode→decode round-trips every possible
// record exactly, including timestamps at the uint64 edge. A flow ref is
// a uvarint index into the extent's dictionary of distinct (srcIP, dstIP,
// srcPort, dstPort, proto, dir) tuples; traced traffic concentrates on
// few flows per tracepoint, so it is almost always one byte.
//
// Trace IDs are not delta-coded because they are random 32-bit values
// (PAPER.md §1): a zigzag-varint delta of two random IDs costs 4.94 bytes
// on average where the raw value costs 4.00, and a fixed-width column is
// what lets a lookup find a record's block without decoding anything.
//
// The blob is self-describing, so a pack of them back to back needs no
// external metadata — the property that makes the on-disk format
// crash-safe: the trailer sizes its extent, so recovery walks a pack from
// its end, and a torn or damaged append fails its checksums and is
// skipped (pack.go). Every count and offset a reader takes from the disk
// is checked against the extent's size before it sizes an allocation or
// a slice. Version 1 files (a varint record stream with no
// tail) are refused; the collector's -out dump is the carry-over path.
package tracedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"vnettracer/internal/core"
)

const (
	extentVersion   = 2
	extentHeaderLen = 5 // magic + version

	// blockRecords is the restart interval: every block but the last
	// holds exactly this many records.
	blockRecords = 256

	flowEntryLen     = 14
	dirEntryLen      = 12
	extentTrailerLen = 44

	// Field offsets within the trailer.
	trailerTPID    = 0
	trailerFlows   = 4
	trailerCount   = 8
	trailerMinTime = 16
	trailerMaxTime = 24
	trailerIDOff   = 32
	trailerCRC     = 40

	// A record's five column entries take between 5 bytes (one each) and
	// 35 (two 64-bit and three 32-bit varints).
	minRecordBytes = 5
	maxRecordBytes = 2*binary.MaxVarintLen64 + 3*binary.MaxVarintLen32
)

var (
	extentMagic = [4]byte{'v', 'n', 't', 'x'}
	castagnoli  = crc32.MakeTable(crc32.Castagnoli)
	le          = binary.LittleEndian
)

// errShortTail reports that the bytes handed to parseExtentTail end with
// a plausible trailer but start after the tail does; the returned
// extentTail carries idOff, where to read from instead.
var errShortTail = errors.New("tracedb: extent tail starts before the bytes read")

// packedFlow is a record's 5-tuple plus direction — the fields that repeat
// across records and live in the extent's flow dictionary — packed into
// two words: srcIP|dstIP and srcPort|dstPort|proto|dir.
type packedFlow struct{ ips, rest uint64 }

// slot is where a probe for k starts in a flow table of mask+1 cells.
func (k packedFlow) slot(mask int) int {
	return int(mix(k.ips^k.rest*0x9e3779b97f4a7c15)) & mask
}

func flowOf(r *core.Record) packedFlow {
	return packedFlow{
		ips:  uint64(r.SrcIP)<<32 | uint64(r.DstIP),
		rest: uint64(r.SrcPort)<<32 | uint64(r.DstPort)<<16 | uint64(r.Proto)<<8 | uint64(r.Dir),
	}
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// delta32/delta64 compute wrap-around field deltas sized to the field, so
// the zigzag encoding stays short for small moves in either direction.
func delta32(cur, prev uint32) int64 { return int64(int32(cur - prev)) }
func delta64(cur, prev uint64) int64 { return int64(cur - prev) }

// putUvarint writes v at b[p:] and returns the offset after it. The
// caller has reserved the room.
func putUvarint(b []byte, p int, v uint64) int {
	for v >= 0x80 {
		b[p] = byte(v) | 0x80
		v >>= 7
		p++
	}
	b[p] = byte(v)
	return p + 1
}

// extentEncoder holds the scratch one seal needs — output buffer, flow
// dictionary, block directory — so a table that seals again and again
// reuses it instead of allocating per extent. The zero value is ready.
type extentEncoder struct {
	buf []byte
	// flows is the dictionary in index order; slots finds a flow's index
	// in it: an open-addressed table (power-of-two size, linear probing,
	// at most half full) that costs a seal one multiply-mix and usually
	// one compare per record where a Go map cost a third of the encode.
	flows []packedFlow
	slots []flowSlot
	dir   []blockRef
}

// flowSlot is one cell of the encoder's flow table; ref is the flow's
// dictionary index plus one, zero for an empty cell.
type flowSlot struct {
	key packedFlow
	ref uint32
}

type blockRef struct {
	off int
	crc uint32
}

// encode compresses recs (all from one tracepoint, timestamps within
// [minTimeNs, maxTimeNs]) into the extent wire form and returns it with
// the offset its tail starts at. The result aliases the encoder's buffer
// and is valid until the next encode.
func (enc *extentEncoder) encode(tpid uint32, recs []core.Record, minTimeNs, maxTimeNs uint64) (blob []byte, tailOff int) {
	clear(enc.slots)
	enc.flows = enc.flows[:0]
	enc.dir = enc.dir[:0]
	buf := append(enc.buf[:0], extentMagic[:]...)
	buf = append(buf, extentVersion)

	for start := 0; start < len(recs); start += blockRecords {
		blk := recs[start:min(start+blockRecords, len(recs))]
		off := len(buf)
		buf = slices.Grow(buf, len(blk)*maxRecordBytes)
		b := buf[off : off+len(blk)*maxRecordBytes]

		p := putUvarint(b, 0, blk[0].TimeNs)
		var prevDelta uint64
		for i := 1; i < len(blk); i++ {
			d := blk[i].TimeNs - blk[i-1].TimeNs // wrap-around delta
			p = putUvarint(b, p, zigzag(delta64(d, prevDelta)))
			prevDelta = d
		}
		p = putUvarint(b, p, uint64(blk[0].Len))
		for i := 1; i < len(blk); i++ {
			p = putUvarint(b, p, zigzag(delta32(blk[i].Len, blk[i-1].Len)))
		}
		p = putUvarint(b, p, uint64(blk[0].CPU))
		for i := 1; i < len(blk); i++ {
			p = putUvarint(b, p, zigzag(delta32(blk[i].CPU, blk[i-1].CPU)))
		}
		p = putUvarint(b, p, blk[0].Seq)
		for i := 1; i < len(blk); i++ {
			p = putUvarint(b, p, zigzag(delta64(blk[i].Seq, blk[i-1].Seq)))
		}
		for i := range blk {
			p = putUvarint(b, p, uint64(enc.flowRef(&blk[i])))
		}

		buf = buf[:off+p]
		enc.dir = append(enc.dir, blockRef{off: off, crc: crc32.Checksum(buf[off:], castagnoli)})
	}

	idOff := len(buf)
	buf = slices.Grow(buf, 4*len(recs)+flowEntryLen*len(enc.flows)+dirEntryLen*len(enc.dir)+extentTrailerLen)
	for i := range recs {
		buf = le.AppendUint32(buf, recs[i].TraceID)
	}
	for _, f := range enc.flows {
		buf = le.AppendUint32(buf, uint32(f.ips>>32))
		buf = le.AppendUint32(buf, uint32(f.ips))
		buf = le.AppendUint16(buf, uint16(f.rest>>32))
		buf = le.AppendUint16(buf, uint16(f.rest>>16))
		buf = append(buf, byte(f.rest>>8), byte(f.rest))
	}
	for _, d := range enc.dir {
		buf = le.AppendUint64(buf, uint64(d.off))
		buf = le.AppendUint32(buf, d.crc)
	}
	buf = le.AppendUint32(buf, tpid)
	buf = le.AppendUint32(buf, uint32(len(enc.flows)))
	buf = le.AppendUint64(buf, uint64(len(recs)))
	buf = le.AppendUint64(buf, minTimeNs)
	buf = le.AppendUint64(buf, maxTimeNs)
	buf = le.AppendUint64(buf, uint64(idOff))
	buf = le.AppendUint32(buf, crc32.Checksum(buf[idOff:], castagnoli))
	enc.buf = buf
	return buf, idOff
}

// flowRef returns the dictionary index of r's flow, adding the flow on
// first sight.
func (enc *extentEncoder) flowRef(r *core.Record) uint32 {
	k := flowOf(r)
	if 2*len(enc.flows) >= len(enc.slots) {
		enc.growSlots()
	}
	mask := len(enc.slots) - 1
	for i := k.slot(mask); ; i = (i + 1) & mask {
		switch s := &enc.slots[i]; {
		case s.ref == 0:
			enc.flows = append(enc.flows, k)
			*s = flowSlot{key: k, ref: uint32(len(enc.flows))}
			return s.ref - 1
		case s.key == k:
			return s.ref - 1
		}
	}
}

// growSlots doubles the flow table and re-seats every known flow.
func (enc *extentEncoder) growSlots() {
	enc.slots = make([]flowSlot, max(64, 2*len(enc.slots)))
	mask := len(enc.slots) - 1
	for ref, k := range enc.flows {
		i := k.slot(mask)
		for enc.slots[i].ref != 0 {
			i = (i + 1) & mask
		}
		enc.slots[i] = flowSlot{key: k, ref: uint32(ref + 1)}
	}
}

// extentTail is the verified tail of one extent: its trailer fields and
// views of the ID section, dictionary and directory in the bytes it was
// parsed from.
type extentTail struct {
	tpid                 uint32
	count                int
	minTimeNs, maxTimeNs uint64
	// idOff is the extent offset where the blocks end and the tail begins.
	idOff          int64
	ids, dict, dir []byte
}

// parseExtentTail verifies and opens the tail of an extent of size bytes,
// given b, the extent's last len(b) bytes. Every count and offset is
// checked against size before anything is sliced: a record costs at least
// 4 bytes of ID section and 5 of block, so no forged count survives to
// size an allocation. When b holds the trailer but not the whole tail it
// returns errShortTail with idOff set — the caller reads again from
// there.
func parseExtentTail(b []byte, size int64) (extentTail, error) {
	var t extentTail
	if len(b) < extentTrailerLen {
		return t, fmt.Errorf("tracedb: extent of %d bytes has no room for a trailer", len(b))
	}
	tr := b[len(b)-extentTrailerLen:]
	t.tpid = le.Uint32(tr[trailerTPID:])
	flows := uint64(le.Uint32(tr[trailerFlows:]))
	count := le.Uint64(tr[trailerCount:])
	t.minTimeNs = le.Uint64(tr[trailerMinTime:])
	t.maxTimeNs = le.Uint64(tr[trailerMaxTime:])
	idOff := le.Uint64(tr[trailerIDOff:])
	sum := le.Uint32(tr[trailerCRC:])

	// count first, so the sums below cannot overflow; once they match the
	// size, every length in them fits an int.
	if count > uint64(size)/(4+minRecordBytes) {
		return t, fmt.Errorf("tracedb: extent count %d exceeds what %d bytes can hold", count, size)
	}
	blocks := (count + blockRecords - 1) / blockRecords
	tailLen := 4*count + flowEntryLen*flows + dirEntryLen*blocks + extentTrailerLen
	if idOff < extentHeaderLen || idOff > uint64(size) || idOff+tailLen != uint64(size) {
		return t, fmt.Errorf("tracedb: extent tail (%d records, %d flows, blocks end at %d) does not fit %d bytes",
			count, flows, idOff, size)
	}
	t.count, t.idOff = int(count), int64(idOff)
	if uint64(len(b)) < tailLen {
		return t, errShortTail
	}
	idLen, dictLen, dirLen := 4*t.count, flowEntryLen*int(flows), dirEntryLen*int(blocks)
	tail := b[len(b)-int(tailLen):]
	if got := crc32.Checksum(tail[:len(tail)-4], castagnoli); got != sum {
		return t, fmt.Errorf("tracedb: extent tail checksum %#x, want %#x", got, sum)
	}
	t.ids = tail[:idLen]
	t.dict = tail[idLen : idLen+dictLen]
	t.dir = tail[idLen+dictLen : idLen+dictLen+dirLen]

	// The blocks must tile [header, idOff) in order, each within the size
	// its record count allows.
	end := int64(extentHeaderLen)
	for i := 0; i < int(blocks); i++ {
		off, next, n := t.blockSpan(i)
		if off != end || next-off < int64(n*minRecordBytes) || next-off > int64(n*maxRecordBytes) {
			return t, fmt.Errorf("tracedb: extent block %d spans [%d,%d) after %d, for %d records", i, off, next, end, n)
		}
		end = next
	}
	if end != t.idOff {
		return t, fmt.Errorf("tracedb: extent blocks end at %d, tail begins at %d", end, t.idOff)
	}
	return t, nil
}

// blocks is the number of blocks the extent has.
func (t *extentTail) blocks() int { return len(t.dir) / dirEntryLen }

// blockSpan returns the extent byte range [off, end) of block i and the
// number of records it holds. Only the last block can be short.
func (t *extentTail) blockSpan(i int) (off, end int64, n int) {
	off = int64(le.Uint64(t.dir[dirEntryLen*i:]))
	end, n = t.idOff, t.count-i*blockRecords
	if next := dirEntryLen * (i + 1); next < len(t.dir) {
		end, n = int64(le.Uint64(t.dir[next:])), blockRecords
	}
	return off, end, n
}

// checkBlock verifies block i's bytes against the directory's CRC.
func (t *extentTail) checkBlock(i int, b []byte) error {
	want := le.Uint32(t.dir[dirEntryLen*i+8:])
	if got := crc32.Checksum(b, castagnoli); got != want {
		return fmt.Errorf("tracedb: extent block %d checksum %#x, want %#x", i, got, want)
	}
	return nil
}

// readUvarint reads one uvarint at b[p:] and returns it with the offset
// after it. A truncated or overlong varint returns zero and an offset past
// len(b), which every later read returns again: a block's columns are
// decoded without checking and the offset is tested once, after the last.
// (Small enough to inline, which binary.Uvarint behind a slice expression
// is not.)
func readUvarint(b []byte, p int) (uint64, int) {
	var v uint64
	for shift := 0; p < len(b) && shift < 64; shift += 7 {
		c := b[p]
		p++
		if c < 0x80 {
			if shift == 63 && c > 1 {
				break // overflows 64 bits
			}
			return v | uint64(c)<<shift, p
		}
		v |= uint64(c&0x7f) << shift
	}
	return 0, len(b) + 1
}

// decodeBlock decodes block i, whose verified bytes are b, into
// recs[:n] and returns that slice. recs must have room for the block's
// records; every field of each is overwritten.
func (t *extentTail) decodeBlock(i int, b []byte, recs []core.Record) ([]core.Record, error) {
	_, _, n := t.blockSpan(i)
	recs = recs[:n]
	ids := t.ids[4*blockRecords*i:]
	for k := range recs {
		recs[k].TraceID = le.Uint32(ids[4*k:])
		recs[k].TPID = t.tpid
	}

	tm, p := readUvarint(b, 0)
	recs[0].TimeNs = tm
	var d uint64
	for k := 1; k < n; k++ {
		var dod uint64
		dod, p = readUvarint(b, p)
		d += uint64(unzigzag(dod))
		tm += d
		recs[k].TimeNs = tm
	}

	v, p := readUvarint(b, p)
	if v > math.MaxUint32 {
		return nil, fmt.Errorf("tracedb: extent block %d: len %d overflows uint32", i, v)
	}
	ln := uint32(v)
	recs[0].Len = ln
	for k := 1; k < n; k++ {
		v, p = readUvarint(b, p)
		ln += uint32(unzigzag(v))
		recs[k].Len = ln
	}

	v, p = readUvarint(b, p)
	if v > math.MaxUint32 {
		return nil, fmt.Errorf("tracedb: extent block %d: cpu %d overflows uint32", i, v)
	}
	cpu := uint32(v)
	recs[0].CPU = cpu
	for k := 1; k < n; k++ {
		v, p = readUvarint(b, p)
		cpu += uint32(unzigzag(v))
		recs[k].CPU = cpu
	}

	seq, p := readUvarint(b, p)
	recs[0].Seq = seq
	for k := 1; k < n; k++ {
		v, p = readUvarint(b, p)
		seq += uint64(unzigzag(v))
		recs[k].Seq = seq
	}

	flows := uint64(len(t.dict) / flowEntryLen)
	for k := range recs {
		v, p = readUvarint(b, p)
		if v >= flows {
			return nil, fmt.Errorf("tracedb: extent block %d: flow ref %d beyond dictionary size %d", i, v, flows)
		}
		f := t.dict[flowEntryLen*int(v):]
		r := &recs[k]
		r.SrcIP, r.DstIP = le.Uint32(f[0:]), le.Uint32(f[4:])
		r.SrcPort, r.DstPort = le.Uint16(f[8:]), le.Uint16(f[10:])
		r.Proto, r.Dir = f[12], f[13]
	}
	if p != len(b) {
		return nil, fmt.Errorf("tracedb: extent block %d: columns end at byte %d of %d", i, p, len(b))
	}
	return recs, nil
}

// decodeRow decodes row r of block i, whose verified bytes are b, into
// rec, and refuses exactly what decodeBlock refuses for the block. Each
// of the four delta columns is summed up to row r and the rest of it
// skipped by counting terminator bytes (skipUvarints fails wherever
// readUvarint would); every flow ref is read and range-checked, and the
// columns must end at the block's end.
func (t *extentTail) decodeRow(i int, b []byte, r int, rec *core.Record) error {
	_, _, n := t.blockSpan(i)
	rest := n - 1 - r
	rec.TraceID = le.Uint32(t.ids[4*(blockRecords*i+r):])
	rec.TPID = t.tpid

	tm, p := readUvarint(b, 0)
	var d uint64
	for range r {
		var dod uint64
		dod, p = readUvarint(b, p)
		d += uint64(unzigzag(dod))
		tm += d
	}
	rec.TimeNs = tm
	p = skipUvarints(b, p, rest)

	// len, cpu and seq: a raw first value, then zigzag deltas. Summing at
	// 64 bits and truncating gives the wrap-around sum at 32.
	var col [3]uint64
	for c := range col {
		v, q := readUvarint(b, p)
		if c < 2 && v > math.MaxUint32 {
			return fmt.Errorf("tracedb: extent block %d: %s %d overflows uint32", i, [2]string{"len", "cpu"}[c], v)
		}
		for range r {
			var dv uint64
			dv, q = readUvarint(b, q)
			v += uint64(unzigzag(dv))
		}
		col[c] = v
		p = skipUvarints(b, q, rest)
	}
	rec.Len, rec.CPU, rec.Seq = uint32(col[0]), uint32(col[1]), col[2]

	flows := uint64(len(t.dict) / flowEntryLen)
	var ref uint64
	for k := range n {
		v, q := readUvarint(b, p)
		if v >= flows {
			return fmt.Errorf("tracedb: extent block %d: flow ref %d beyond dictionary size %d", i, v, flows)
		}
		if k == r {
			ref = v
		}
		p = q
	}
	if p != len(b) {
		return fmt.Errorf("tracedb: extent block %d: columns end at byte %d of %d", i, p, len(b))
	}
	f := t.dict[flowEntryLen*int(ref):]
	rec.SrcIP, rec.DstIP = le.Uint32(f[0:]), le.Uint32(f[4:])
	rec.SrcPort, rec.DstPort = le.Uint16(f[8:]), le.Uint16(f[10:])
	rec.Proto, rec.Dir = f[12], f[13]
	return nil
}

// skipUvarints returns the offset after the k uvarints at b[p:], or
// len(b)+1 wherever reading them with readUvarint would fail: input that
// ends first, or a varint of more than ten bytes, or of ten whose last is
// above 1. It counts terminator bytes (high bit clear), and looks at a
// varint's length only at its terminator.
func skipUvarints(b []byte, p, k int) int {
	start := p // where the varint being skipped began
	for ; k > 0; p++ {
		if p >= len(b) {
			return len(b) + 1
		}
		if c := b[p]; c < 0x80 {
			if n := p - start; n >= 9 && (n > 9 || c > 1) {
				return len(b) + 1
			}
			start = p + 1
			k--
		}
	}
	return p
}

// extentView is a whole extent in memory with its header, tail and every
// block's CRC verified: what a scan decodes from.
type extentView struct {
	blob []byte
	tail extentTail
}

// viewExtent verifies a whole in-memory extent blob.
func viewExtent(blob []byte) (extentView, error) {
	x := extentView{blob: blob}
	if len(blob) < extentHeaderLen {
		return x, fmt.Errorf("tracedb: extent of %d bytes has no header", len(blob))
	}
	if [4]byte(blob[:4]) != extentMagic {
		return x, fmt.Errorf("tracedb: bad extent magic %#x", blob[:4])
	}
	if blob[4] != extentVersion {
		return x, fmt.Errorf("tracedb: unsupported extent version %d", blob[4])
	}
	var err error
	if x.tail, err = parseExtentTail(blob, int64(len(blob))); err != nil {
		return x, err
	}
	for i := 0; i < x.tail.blocks(); i++ {
		off, end, _ := x.tail.blockSpan(i)
		if err := x.tail.checkBlock(i, blob[off:end]); err != nil {
			return x, err
		}
	}
	return x, nil
}

// decode decodes every block of the extent into recs, grown to the
// extent's record count, and returns it: all of the extent's records, or
// recs[:0] and the first block's error — never a prefix.
func (x *extentView) decode(recs []core.Record) ([]core.Record, error) {
	recs = slices.Grow(recs[:0], x.tail.count)[:x.tail.count]
	for i := 0; i < x.tail.blocks(); i++ {
		off, end, _ := x.tail.blockSpan(i)
		if _, err := x.tail.decodeBlock(i, x.blob[off:end], recs[i*blockRecords:]); err != nil {
			return recs[:0], err
		}
	}
	return recs, nil
}

// decodeExtentBytes decodes a whole in-memory extent blob into a freshly
// allocated slice, sized from a count that parseExtentTail has already
// held against the blob's length.
func decodeExtentBytes(blob []byte) (tpid uint32, recs []core.Record, err error) {
	x, err := viewExtent(blob)
	if err != nil {
		return 0, nil, err
	}
	if recs, err = x.decode(nil); err != nil {
		return x.tail.tpid, nil, err
	}
	return x.tail.tpid, recs, nil
}
