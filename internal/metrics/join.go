package metrics

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"vnettracer/internal/core"
)

// The latency join is a radix-partitioned hash join on packet ID. One scan
// of a source scatters its traced records, as (id, time, seq), over
// joinParts partitions by the top bits of a hash of the ID; the sources
// are scanned one after the other on the caller's goroutine, as a source
// need not be safe for concurrent use. Matching partitions of two sides
// are then joined on up to GOMAXPROCS workers, each through an
// open-addressing table of its own that it reuses from partition to
// partition, and the samples are put in (Seq, TraceID) order by one
// parallel bucket pass on the high bits of Seq and a radix sort of each
// bucket.
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
	// joinPartBits is the fan-out of the scatter. The scatter runs beside
	// the table scan's decode, and every write head it adds competes with
	// that decode for L1 and the TLB: two spilled tables of 1.6 M records
	// (BenchmarkLatenciesOf/tables, 2 vCPUs) scan and scatter in 286-303
	// ms at 8 bits, 174-205 at 6, 142-205 at 5, 130-180 at 4 and 158-174
	// at 3. At 4 bits a partition of such a side holds ~100 k entries, a
	// 4 MiB table that outgrows L2, yet its pairs join in 79-110 ms
	// against 92-100 at 8 bits with 256 KiB tables; so a big partition is
	// not split again.
	joinPartBits = 4
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
}

// joinSlot is one slot of the partition table: a side-b ID, its first
// timestamp, and whether side a has taken it. ID 0 marks an empty slot.
type joinSlot struct {
	id    uint32
	taken bool
	t     uint64
}

// joinTable is the open-addressing table one partition pair is joined
// through, kept by its worker from one pair (and one hop of a
// decomposition) to the next.
type joinTable []joinSlot

// joiner joins partition pairs on up to joinParts workers. Each worker
// keeps its table and its sort buffer from one hop of a decomposition to
// the next.
type joiner struct {
	tabs []joinTable
	tmps [][]LatencySample
}

func newJoiner(workers int) *joiner {
	w := min(max(workers, 1), joinParts)
	return &joiner{tabs: make([]joinTable, w), tmps: make([][]LatencySample, w)}
}

// parallel calls fn(w, i) once for every i in [0, n), w being the worker
// that made the call. Workers take the next i from a shared counter; the
// caller is worker 0, and parallel returns when every call has.
func (j *joiner) parallel(n int, fn func(w, i int)) {
	var next atomic.Int64
	work := func(w int) {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(w, i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(len(j.tabs), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	work(0)
	wg.Wait()
}

// join pairs the sides' first occurrences per packet ID and returns the
// samples, side a's Seq with t_b - t_a, in (Seq, TraceID) order. It uses
// side a up: each partition's samples are written over its own entries.
//
// Partition pairs are joined in parallel, each worker into the partition
// it took, so no worker appends to or waits on another and nothing is
// allocated for the samples but the output. They are then scattered by
// the top 8 bits of Seq - least (the least Seq joined) into 256 buckets
// of the output, each partition into ranges of its own, and every bucket
// is sorted by itself. The order does not depend on the worker count: a
// packet ID occurs at most once in the output, so (Seq, TraceID) orders
// it totally.
func (j *joiner) join(a, b *joinSide) []LatencySample {
	var lo, hi [joinParts]uint64
	j.parallel(joinParts, func(w, p int) {
		lo[p], hi[p] = j.tabs[w].joinPart(&a.parts[p], b.parts[p])
	})
	least, most, total := ^uint64(0), uint64(0), 0
	for p := range a.parts {
		if n := partLen(a.parts[p]); n > 0 {
			least, most, total = min(least, lo[p]), max(most, hi[p]), total+n
		}
	}
	out := make([]LatencySample, total)
	if total == 0 {
		return out
	}
	shift := max(bits.Len64(most-least), 8) - 8
	// next[p][k] is where partition p's next sample of bucket k goes:
	// bucket by bucket, partition by partition.
	var next [joinParts][256]int
	j.parallel(joinParts, func(_, p int) {
		for _, chunk := range a.parts[p] {
			for i := range chunk {
				next[p][(chunk[i].seq-least)>>shift]++
			}
		}
	})
	var bucket [257]int
	for k := range 256 {
		at := bucket[k]
		for p := range next {
			next[p][k], at = at, at+next[p][k]
		}
		bucket[k+1] = at
	}
	j.parallel(joinParts, func(_, p int) {
		for _, chunk := range a.parts[p] {
			for i := range chunk {
				e := &chunk[i]
				k := (e.seq - least) >> shift
				out[next[p][k]] = LatencySample{TraceID: e.id, Seq: e.seq, Ns: int64(e.t)}
				next[p][k]++
			}
		}
	})
	j.parallel(256, func(w, k int) {
		s := out[bucket[k]:bucket[k+1]]
		if len(j.tmps[w]) < len(s) {
			j.tmps[w] = make([]LatencySample, len(s))
		}
		sortSamples(s, j.tmps[w][:len(s)])
	})
	return out
}

// partLen is how many entries a partition's chunks hold.
func partLen(chunks [][]joinEntry) int {
	if len(chunks) == 0 {
		return 0
	}
	return (len(chunks)-1)*joinChunk + len(chunks[len(chunks)-1])
}

// joinPart joins one partition pair. It writes the samples over side a's
// entries, in a's scan order — sample n as the nth entry, id and seq kept
// and t replaced by t_b - t_a — cuts *a to them, and returns their least
// and greatest Seq. Sample n is written only after entry n has been read.
func (tab *joinTable) joinPart(a *[][]joinEntry, b [][]joinEntry) (lo, hi uint64) {
	if len(b) == 0 {
		*a = nil
	}
	if len(*a) == 0 {
		return 0, 0
	}
	// At most half full, so linear probing stays short.
	width := 4
	for 1<<width < 2*partLen(b) {
		width++
	}
	if len(*tab) < 1<<width {
		*tab = make(joinTable, 1<<width)
	}
	slots := (*tab)[:1<<width]
	clear(slots)
	shift, mask := uint(64-joinPartBits-width), uint64(1)<<width-1
	for _, chunk := range b {
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
	lo, n := ^uint64(0), 0
	for _, chunk := range *a {
		for i := range chunk {
			e := chunk[i]
			for h := joinHash(e.id) >> shift & mask; ; h = (h + 1) & mask {
				s := &slots[h]
				if s.id == e.id {
					if !s.taken {
						s.taken = true
						(*a)[n/joinChunk][n%joinChunk] = joinEntry{id: e.id, t: uint64(int64(s.t) - int64(e.t)), seq: e.seq}
						lo, hi = min(lo, e.seq), max(hi, e.seq)
						n++
					}
					break
				}
				if s.id == 0 {
					break // never seen at b
				}
			}
		}
	}
	if n == 0 {
		*a = nil
		return 0, 0
	}
	last := (n - 1) / joinChunk
	*a = (*a)[:last+1]
	(*a)[last] = (*a)[last][:n-last*joinChunk]
	return lo, hi
}

// sortSamples orders samples by (Seq, TraceID) through tmp, as long as s:
// a radix sort on Seq, then one on TraceID inside every run of equal Seq.
func sortSamples(s, tmp []LatencySample) {
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
