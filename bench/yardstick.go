package main

import (
	"encoding/binary"
	"hash/crc32"
	"time"
)

// The yardstick measures the machine, not the product. On a small shared
// box the same code runs up to 1.4× slower for seconds at a time (a
// neighbour in the shared cache), which moves every timed metric of a
// run together. One yardstick round is a frozen miniature of the record
// path — emit 48-byte records into per-CPU rings, drain, parse, frame,
// copy, parse again, checksum, index into a head and seal into a varint
// blob — over a working set of a few hundred KiB, like the code it
// stands beside. (A register-only arithmetic loop does not notice the
// neighbour at all and is useless here; a DRAM-streaming copy notices a
// different neighbour.) The harness interleaves rounds with the timed
// work, outside the timed windows, and states a timed metric at the
// yardstick's nominal speed: measured time × yardstickNominal ÷ observed
// round time. It belongs to the benchmark and no product change touches
// it. It allocates nothing, so it adds no garbage-collector work.
const (
	yardstickNominal = 150 * time.Microsecond

	refRecords = 2048
	refRecSize = 48
	refRings   = 4
	refHead    = 3 * refRecords
	refIndex   = 1 << 14
)

type refRecord struct {
	id, tp  uint32
	t       uint64
	l, cpu  uint32
	seq     uint64
	a, b    uint32
	sp, dp  uint16
	pr, dir uint8
}

type yardstick struct {
	src    []byte
	rings  [refRings][]byte
	drain  []byte
	frame  []byte
	body   []byte
	parsed []refRecord
	head   []refRecord
	index  []uint32
	blob   []byte
	sink   uint64
	round  uint32

	// Readings since the last take, and the time they took in all.
	readings []float64
	spent    time.Duration
}

func newYardstick() *yardstick {
	y := &yardstick{
		src:      make([]byte, refRecords*refRecSize),
		drain:    make([]byte, 0, refRecords*refRecSize),
		frame:    make([]byte, 0, refRecords*refRecSize),
		body:     make([]byte, refRecords*refRecSize),
		parsed:   make([]refRecord, 0, refRecords),
		readings: make([]float64, 0, 1<<16),
		head:     make([]refRecord, 0, refHead),
		index:    make([]uint32, refIndex),
		blob:     make([]byte, 0, 128<<10),
	}
	for i := range y.rings {
		y.rings[i] = make([]byte, 0, refRecords*refRecSize/refRings)
	}
	le := binary.LittleEndian
	for i := 0; i < refRecords; i++ {
		rec := y.src[i*refRecSize:]
		le.PutUint32(rec[0:], uint32(splitmix64(uint64(i))))
		le.PutUint32(rec[4:], uint32(i&1)+1)
		le.PutUint64(rec[8:], uint64(i)*5000)
		le.PutUint32(rec[20:], uint32(i%refRings))
	}
	// Touch everything once, so the first measured round is like the rest.
	y.sample()
	y.take()
	return y
}

func refParse(dst []refRecord, b []byte) []refRecord {
	le := binary.LittleEndian
	for off := 0; off+refRecSize <= len(b); off += refRecSize {
		r := b[off:]
		dst = append(dst, refRecord{
			id: le.Uint32(r[0:]), tp: le.Uint32(r[4:]), t: le.Uint64(r[8:]),
			l: le.Uint32(r[16:]), cpu: le.Uint32(r[20:]), seq: le.Uint64(r[24:]),
			a: le.Uint32(r[32:]), b: le.Uint32(r[36:]),
			sp: le.Uint16(r[40:]), dp: le.Uint16(r[42:]), pr: r[44], dir: r[45],
		})
	}
	return dst
}

// sample runs one yardstick round and keeps its time as a reading.
// Callers keep it outside their own timed windows.
func (y *yardstick) sample() {
	t0 := time.Now()
	y.round++
	le := binary.LittleEndian
	for i := range y.rings {
		y.rings[i] = y.rings[i][:0]
	}
	for i := 0; i < refRecords; i++ {
		rec := y.src[i*refRecSize : (i+1)*refRecSize]
		cpu := le.Uint32(rec[20:]) % refRings
		y.rings[cpu] = append(y.rings[cpu], rec...)
	}
	y.drain = y.drain[:0]
	for i := range y.rings {
		y.drain = append(y.drain, y.rings[i]...)
	}
	recs := refParse(y.parsed[:0], y.drain)
	y.frame = y.frame[:0]
	var tmp [refRecSize]byte
	for i := range recs {
		r := &recs[i]
		le.PutUint32(tmp[0:], r.id+y.round*2654435761)
		le.PutUint32(tmp[4:], r.tp)
		le.PutUint64(tmp[8:], r.t)
		le.PutUint32(tmp[16:], r.l)
		le.PutUint32(tmp[20:], r.cpu)
		le.PutUint64(tmp[24:], r.seq)
		y.frame = append(y.frame, tmp[:]...)
	}
	copy(y.body, y.frame)
	got := refParse(y.parsed[:0], y.body)
	y.sink += uint64(crc32.ChecksumIEEE(y.body))
	// Index into the head, and seal this round's share of it: every
	// round costs the same, so a handful of rounds is already a fair
	// sample.
	if len(y.head)+len(got) > cap(y.head) {
		y.head = y.head[:0]
	}
	y.blob = y.blob[:0]
	var prevID uint32
	var prevT uint64
	for i := range got {
		h := &got[i]
		y.index[h.id%refIndex] = uint32(len(y.head))
		y.head = append(y.head, *h)
		y.blob = binary.AppendUvarint(y.blob, uint64(h.id-prevID))
		y.blob = binary.AppendUvarint(y.blob, h.t-prevT)
		prevID, prevT = h.id, h.t
	}
	y.sink += uint64(len(y.blob))
	dt := time.Since(t0)
	y.readings = append(y.readings, float64(dt))
	y.spent += dt
}

// take returns the machine's slowness over the rounds since the last
// take — median round time ÷ nominal, so 1.25 means the machine ran a
// quarter slower than nominal — and the time those rounds took (all of
// it on the caller's CPU), and starts a new accumulation. The median
// shrugs off the odd round that a collection or an interrupt landed in.
// With no rounds it reports nominal speed.
func (y *yardstick) take() (slowness float64, spent time.Duration) {
	slowness = 1
	if len(y.readings) > 0 {
		slowness = median(y.readings) / float64(yardstickNominal)
	}
	spent = y.spent
	y.readings, y.spent = y.readings[:0], 0
	return slowness, spent
}
