package tracedb

import (
	"slices"

	"vnettracer/internal/core"
)

// Merged is the query view of one tracepoint: the union of its table's
// partitions, presented as a single record stream. A single-collector
// table is the one-partition case, Merge(t); with the collector tier
// scaled out a tracepoint's records are partitioned across collectors
// (after a re-homing, an agent's table has a prefix on its old collector
// and a suffix on its new one). ScanAligned is a k-way merge on aligned
// timestamps, so when each partition is time-sorted (per-CPU ring order
// survives segment sealing) the merged stream is globally time-sorted —
// what the latency join and throughput span calculations assume.
type Merged struct {
	parts []*Table
}

// Merge builds a merged view over the given table partitions; nil
// entries are skipped (a collector without this table contributes
// nothing).
func Merge(parts ...*Table) *Merged {
	m := &Merged{}
	for _, t := range parts {
		if t != nil {
			m.parts = append(m.parts, t)
		}
	}
	return m
}

// Parts reports how many partitions back the view.
func (m *Merged) Parts() int { return len(m.parts) }

// Part returns partition i (0 <= i < Parts()), for checks that must hold
// within each collector's share of the table.
func (m *Merged) Part(i int) *Table { return m.parts[i] }

// Name returns the first partition's table name (partitions of one
// tracepoint share it).
func (m *Merged) Name() string {
	if len(m.parts) == 0 {
		return ""
	}
	return m.parts[0].Name
}

// Len sums the record counts of all partitions.
func (m *Merged) Len() int {
	n := 0
	for _, t := range m.parts {
		n += t.Len()
	}
	return n
}

// Scan streams every partition's records in raw timestamps, k-way merged
// on TimeNs.
func (m *Merged) Scan(fn func(core.Record) bool) { m.scan(false, fn) }

// ScanAligned streams every partition's records with per-table skew
// correction applied, k-way merged on the aligned TimeNs — the
// cross-collector equivalent of Table.ScanAligned.
func (m *Merged) ScanAligned(fn func(core.Record) bool) { m.scan(true, fn) }

// mergeSource is one partition's cursor inside a merge, with the record
// it currently offers.
type mergeSource struct {
	cursor
	part int
	recs []core.Record // rest of the current block; recs[0] is cur, raw
	cur  core.Record   // as the merge orders and delivers it
}

// advance moves to the partition's next record and reports whether there
// is one.
func (s *mergeSource) advance(align bool) bool {
	if len(s.recs) > 1 {
		s.recs = s.recs[1:]
	} else if s.recs = s.next(); s.recs == nil {
		return false
	}
	s.cur = s.recs[0]
	if align {
		s.cur.TimeNs = alignNs(s.cur.TimeNs, s.skew)
	}
	return true
}

// before orders sources by (cur.TimeNs, partition index): ties break by
// partition, so the merged order is deterministic for a fixed partition
// list.
func (s *mergeSource) before(o *mergeSource) bool {
	if s.cur.TimeNs != o.cur.TimeNs {
		return s.cur.TimeNs < o.cur.TimeNs
	}
	return s.part < o.part
}

// siftDown restores the min-heap property of h below index i.
func siftDown(h []*mergeSource, i int) {
	for {
		least, l, r := i, 2*i+1, 2*i+2
		if l < len(h) && h[l].before(h[least]) {
			least = l
		}
		if r < len(h) && h[r].before(h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// scan runs the k-way merge: one cursor per partition in a binary
// min-heap, pulled in the caller's goroutine while each partition's
// producer decodes ahead on its own. A partition is opened (its first
// extent read, verified and decoded) before the first record is
// delivered; every producer is stopped and waited for when the merge
// ends, fn stops it, or fn panics.
func (m *Merged) scan(align bool, fn func(core.Record) bool) {
	srcs := make([]mergeSource, len(m.parts))
	h := make([]*mergeSource, 0, len(srcs))
	defer func() {
		for i := range srcs {
			srcs[i].close()
		}
	}()
	for i, t := range m.parts {
		s := &srcs[i]
		s.cursor, s.part = t.cursor(), i
		if s.advance(align) {
			h = append(h, s)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i)
	}
	for len(h) > 0 {
		s := h[0]
		if !fn(s.cur) {
			return
		}
		if !s.advance(align) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(h, 0)
	}
}

// TraceIDs returns the distinct packet IDs across all partitions, in
// ascending order: one streaming pass collects them, 4 bytes a record, and
// a sort and a compaction make them a set — transient query state, not
// resident storage. ID 0 is not a packet ID: it marks a record of a packet
// that carries none (IDs are only embedded in UDP), which the latency join
// cannot pair either, so loss and the join agree on what counts as a
// packet.
func (m *Merged) TraceIDs() []uint32 {
	ids := make([]uint32, 0, m.Len())
	for _, t := range m.parts {
		t.Scan(func(r core.Record) bool {
			if r.TraceID != 0 {
				ids = append(ids, r.TraceID)
			}
			return true
		})
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// NumTraceIDs counts distinct packet IDs across all partitions.
func (m *Merged) NumTraceIDs() int { return len(m.TraceIDs()) }

// FirstByTraceID returns the record with the earliest aligned timestamp
// for a packet ID across all partitions — the cross-collector trace-ID
// join primitive behind latency decomposition. Ties break toward the
// earliest partition.
func (m *Merged) FirstByTraceID(id uint32) (core.Record, bool) {
	var best core.Record
	found := false
	for _, t := range m.parts {
		if r, ok := t.FirstByTraceID(id); ok {
			if !found || r.TimeNs < best.TimeNs {
				best = r
				found = true
			}
		}
	}
	return best, found
}
