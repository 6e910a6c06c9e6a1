package metrics

import "vnettracer/internal/core"

// The latency join is a radix-partitioned hash join on packet ID. One scan
// of a source scatters its traced records, as (id, time, seq), over
// joinParts partitions by the top bits of a hash of the ID; matching
// partitions of two sides are then joined through one small open-addressing
// table that is reused from partition to partition, and the samples are put
// in (Seq, TraceID) order by a radix sort.
//
// It is exact on every input, by construction rather than by a bound on
// the data. An ID's partition is a function of the ID alone, so every
// record of one packet — on either side, however far apart in the scan —
// lands in the same partition pair, and a partition keeps its side's scan
// order. Within the pair, side b is inserted if absent (the first
// occurrence per ID wins) and side a takes each entry at most once (so
// does its first occurrence): "first occurrence per ID on each side, ID 0
// skipped", whatever the duplicates, the reordering or the skew of the
// hash. A time-window join over the two time-ordered streams would need
// less memory only for a consumer that does not keep the samples;
// LatenciesOf returns them all, and under ID reuse or stragglers a window
// is exact only with state for every open ID or a second path behind it.

const (
	// joinPartBits is the fan-out of the scatter: 256 write heads stay
	// within L1 and the TLB, and a side of a few million records leaves
	// partitions whose table fits L2.
	joinPartBits = 8
	joinParts    = 1 << joinPartBits
	// joinChunk is how many entries a partition grows by (3 KiB), and
	// joinSlabChunks bounds how many chunks one allocation is cut into.
	joinChunk      = 128
	joinSlabChunks = 1024
)

// joinEntry is what the join keeps of one record.
type joinEntry struct {
	id  uint32
	t   uint64
	seq uint64
}

// joinHash spreads a packet ID over 64 bits: the top joinPartBits pick the
// partition, the bits below them the slot in the partition's table.
func joinHash(id uint32) uint64 { return uint64(id) * 0x9e3779b97f4a7c15 }

// joinSide is one source's traced records, scattered.
type joinSide struct {
	// parts holds each partition's chunks in scan order; only the last
	// chunk of a partition may be short.
	parts  [joinParts][][]joinEntry
	slab   []joinEntry // what is left of the newest allocation
	chunks int         // chunks handed out
	n      int         // entries held
}

// partition scans src once and scatters its traced records.
func partition(src RecordSource) *joinSide {
	s := new(joinSide)
	src.Scan(func(r core.Record) bool {
		if r.TraceID != 0 { // untraced packets cannot be joined
			s.add(joinEntry{id: r.TraceID, t: r.TimeNs, seq: r.Seq})
		}
		return true
	})
	return s
}

func (s *joinSide) add(e joinEntry) {
	p := &s.parts[joinHash(e.id)>>(64-joinPartBits)]
	last := len(*p) - 1
	if last < 0 || len((*p)[last]) == joinChunk {
		if len(s.slab) < joinChunk {
			// Slabs grow with the side, so a small join stays small and a
			// large one allocates a few dozen times.
			s.slab = make([]joinEntry, min(max(s.chunks, 8), joinSlabChunks)*joinChunk)
		}
		s.chunks++
		*p = append(*p, s.slab[:0:joinChunk])
		s.slab = s.slab[joinChunk:]
		last++
	}
	(*p)[last] = append((*p)[last], e)
	s.n++
}

// joinSlot is one slot of the partition table: a side-b ID, its first
// timestamp, and whether side a has taken it. ID 0 marks an empty slot.
type joinSlot struct {
	id    uint32
	taken bool
	t     uint64
}

// joinTable is the open-addressing table one partition pair is joined
// through, kept from one pair (and one hop of a decomposition) to the next.
type joinTable []joinSlot

// join pairs the sides' first occurrences per packet ID and returns the
// samples, side a's Seq with t_b - t_a, in (Seq, TraceID) order.
func (tab *joinTable) join(a, b *joinSide) []LatencySample {
	out := make([]LatencySample, 0, min(a.n, b.n))
	for p := range a.parts {
		if len(a.parts[p]) == 0 || len(b.parts[p]) == 0 {
			continue
		}
		// At most half full, so linear probing stays short.
		entries := (len(b.parts[p])-1)*joinChunk + len(b.parts[p][len(b.parts[p])-1])
		bits := 4
		for 1<<bits < 2*entries {
			bits++
		}
		if len(*tab) < 1<<bits {
			*tab = make(joinTable, 1<<bits)
		}
		slots := (*tab)[:1<<bits]
		clear(slots)
		shift, mask := uint(64-joinPartBits-bits), uint64(1)<<bits-1
		for _, chunk := range b.parts[p] {
			for i := range chunk {
				e := &chunk[i]
				for h := joinHash(e.id) >> shift & mask; ; h = (h + 1) & mask {
					if s := &slots[h]; s.id == 0 {
						s.id, s.t = e.id, e.t
						break
					} else if s.id == e.id {
						break // a later occurrence: the first one stands
					}
				}
			}
		}
		for _, chunk := range a.parts[p] {
			for i := range chunk {
				e := &chunk[i]
				for h := joinHash(e.id) >> shift & mask; ; h = (h + 1) & mask {
					s := &slots[h]
					if s.id == e.id {
						if !s.taken {
							s.taken = true
							out = append(out, LatencySample{TraceID: e.id, Seq: e.seq, Ns: int64(s.t) - int64(e.t)})
						}
						break
					}
					if s.id == 0 {
						break // never seen at b
					}
				}
			}
		}
	}
	sortSamples(out)
	return out
}

// sortSamples orders samples by (Seq, TraceID): a radix sort on Seq, then
// one on TraceID inside every run of equal Seq.
func sortSamples(s []LatencySample) {
	tmp := make([]LatencySample, len(s))
	radixSort(s, tmp, false)
	for i := 0; i < len(s); {
		j := i + 1
		for j < len(s) && s[j].Seq == s[i].Seq {
			j++
		}
		if j-i > 1 {
			radixSort(s[i:j], tmp[i:j], true)
		}
		i = j
	}
}

// radixSort sorts s by Seq, or by TraceID when byID, least significant
// byte first through tmp (as long as s), skipping the bytes every key
// shares; the sort is stable. Short inputs take an insertion sort.
func radixSort(s, tmp []LatencySample, byID bool) {
	key := func(x *LatencySample) uint64 {
		if byID {
			return uint64(x.TraceID)
		}
		return x.Seq
	}
	if len(s) <= 32 {
		for i := 1; i < len(s); i++ {
			for j := i; j > 0 && key(&s[j]) < key(&s[j-1]); j-- {
				s[j], s[j-1] = s[j-1], s[j]
			}
		}
		return
	}
	var count [8][256]int
	for i := range s {
		k := key(&s[i])
		for d := range count {
			count[d][uint8(k>>(8*d))]++
		}
	}
	src, dst := s, tmp
	for d := range count {
		c := &count[d]
		if c[uint8(key(&s[0])>>(8*d))] == len(s) {
			continue
		}
		at := 0
		for b, n := range c {
			c[b], at = at, at+n
		}
		for i := range src {
			b := uint8(key(&src[i]) >> (8 * d))
			dst[c[b]] = src[i]
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &s[0] {
		copy(s, src)
	}
}
