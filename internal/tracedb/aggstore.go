package tracedb

import (
	"cmp"
	"slices"
	"sort"
	"sync"
)

// This file implements the collector-side store for in-probe aggregates:
// compact per-script metric frames drained from agent maps instead of
// per-packet records. Frames share their agent's sequence space with
// record batches and are admitted through the DB's one delivery ledger,
// so exactly-once merge and zombie fencing extend to aggregates; the
// store only merges what the ledger classified fresh. Merging is
// additive: counters,
// per-CPU hits and histogram buckets sum slot-wise; flows sum per
// 5-tuple. Additivity is what makes at-most-once admission sufficient —
// a frame merged twice would double every metric it carries.

// FlowAgg is one per-flow aggregate row: the packed 5-tuple identity plus
// its packet and byte sums.
type FlowAgg struct {
	SrcIP   uint32 `json:"src_ip"`
	DstIP   uint32 `json:"dst_ip"`
	SrcPort uint16 `json:"src_port"`
	DstPort uint16 `json:"dst_port"`
	Proto   uint8  `json:"proto"`
	Packets uint64 `json:"packets"`
	Bytes   uint64 `json:"bytes"`
}

// ScriptAgg is the aggregate state of one trace script: counter slots
// (packets, bytes), per-CPU invocation counts, log2 latency histogram
// buckets, and per-flow sums. Empty slices mean the script lacks that
// action. It is the one aggregate form: a script's map drain writes it,
// the wire, WAL and checkpoints carry it, and the collector's merged
// view is one.
type ScriptAgg struct {
	Script   string    `json:"script"`
	Counters []uint64  `json:"counters,omitempty"`
	CPUHits  []uint64  `json:"cpu_hits,omitempty"`
	Hist     []uint64  `json:"hist,omitempty"`
	Flows    []FlowAgg `json:"flows,omitempty"`
}

// Rows returns the number of aggregate rows the entry carries, the unit
// RowsMerged counts.
func (s *ScriptAgg) Rows() int {
	return len(s.Counters) + len(s.CPUHits) + len(s.Hist) + len(s.Flows)
}

// Empty reports whether the entry carries no nonzero slot and no flow —
// the agent ships no frame for such a script.
func (s *ScriptAgg) Empty() bool {
	for _, series := range [...][]uint64{s.Counters, s.CPUHits, s.Hist} {
		for _, v := range series {
			if v != 0 {
				return false
			}
		}
	}
	return len(s.Flows) == 0
}

// CompareFlows orders flow rows by 5-tuple: source IP, destination IP,
// source port, destination port, protocol. It is the one flow order —
// the agent's drain, AggStore snapshots and MergeAggs all sort by it.
func CompareFlows(a, b FlowAgg) int {
	if a.SrcIP != b.SrcIP {
		return cmp.Compare(a.SrcIP, b.SrcIP)
	}
	if a.DstIP != b.DstIP {
		return cmp.Compare(a.DstIP, b.DstIP)
	}
	if a.SrcPort != b.SrcPort {
		return cmp.Compare(a.SrcPort, b.SrcPort)
	}
	if a.DstPort != b.DstPort {
		return cmp.Compare(a.DstPort, b.DstPort)
	}
	return cmp.Compare(a.Proto, b.Proto)
}

type flowKey struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto            uint8
}

// scriptAgg is a running sum of snapshots of one script: the sum itself
// in the wire form, flows in first-seen order, and flowAt, the row of
// each 5-tuple in Flows.
type scriptAgg struct {
	ScriptAgg
	flowAt map[flowKey]int
}

// add folds one snapshot into the sum: counters, per-CPU hits and
// histogram buckets sum slot-wise, flows per 5-tuple. A sum without a
// name takes the snapshot's.
func (sa *scriptAgg) add(in *ScriptAgg) {
	if sa.Script == "" {
		sa.Script = in.Script
	}
	sa.Counters = addU64(sa.Counters, in.Counters)
	sa.CPUHits = addU64(sa.CPUHits, in.CPUHits)
	sa.Hist = addU64(sa.Hist, in.Hist)
	if len(in.Flows) > 0 && sa.flowAt == nil {
		sa.flowAt = make(map[flowKey]int, len(in.Flows))
	}
	for _, f := range in.Flows {
		k := flowKey{f.SrcIP, f.DstIP, f.SrcPort, f.DstPort, f.Proto}
		if i, ok := sa.flowAt[k]; ok {
			sa.Flows[i].Packets += f.Packets
			sa.Flows[i].Bytes += f.Bytes
			continue
		}
		sa.flowAt[k] = len(sa.Flows)
		sa.Flows = append(sa.Flows, f)
	}
}

// snapshot deep-copies the sum, flows sorted by CompareFlows.
func (sa *scriptAgg) snapshot() ScriptAgg {
	out := ScriptAgg{
		Script:   sa.Script,
		Counters: slices.Clone(sa.Counters),
		CPUHits:  slices.Clone(sa.CPUHits),
		Hist:     slices.Clone(sa.Hist),
		Flows:    slices.Clone(sa.Flows),
	}
	slices.SortFunc(out.Flows, CompareFlows)
	return out
}

// AggTotals summarizes an AggStore's ingest history for shutdown
// reporting.
type AggTotals struct {
	// FramesMerged counts fresh frames whose payload was merged.
	FramesMerged uint64
	// FramesDup counts duplicate frames dropped by sequence dedup.
	FramesDup uint64
	// FramesFenced counts stale-epoch frames rejected by the fence.
	FramesFenced uint64
	// RowsMerged counts aggregate rows summed in across all frames.
	RowsMerged uint64
	// Scripts and Flows size the current merged state.
	Scripts int
	Flows   int
}

// AggStore holds merged in-probe aggregates beside the record DB. It
// keeps no ledger: Durability.admit classifies each frame through the
// DB's and then hands it to add.
type AggStore struct {
	mu      sync.Mutex
	scripts map[string]*scriptAgg

	framesMerged uint64
	framesDup    uint64
	framesFenced uint64
	rowsMerged   uint64
}

// NewAggStore returns an empty aggregate store.
func NewAggStore() *AggStore {
	return &AggStore{scripts: make(map[string]*scriptAgg)}
}

// add takes in one frame the ledger classified as st: a fresh frame's
// scripts merge, a duplicate or fenced one only counts.
func (s *AggStore) add(st BatchStatus, scripts []ScriptAgg) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch st {
	case BatchFresh:
		for i := range scripts {
			s.merge(&scripts[i])
			s.rowsMerged += uint64(scripts[i].Rows())
		}
		s.framesMerged++
	case BatchDuplicate:
		s.framesDup++
	case BatchFenced:
		s.framesFenced++
	}
}

// merge folds one script snapshot into the store. Callers hold s.mu.
func (s *AggStore) merge(in *ScriptAgg) {
	sa, ok := s.scripts[in.Script]
	if !ok {
		sa = new(scriptAgg)
		s.scripts[in.Script] = sa
	}
	sa.add(in)
}

// addU64 sums src into dst slot-wise, growing dst as needed.
func addU64(dst, src []uint64) []uint64 {
	for len(dst) < len(src) {
		dst = append(dst, 0)
	}
	for i, v := range src {
		dst[i] += v
	}
	return dst
}

// Scripts lists the script names with merged aggregates, sorted.
func (s *AggStore) Scripts() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.scripts))
	for name := range s.scripts {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Get returns a deep-copied snapshot of one script's merged aggregates,
// flows sorted by CompareFlows.
func (s *AggStore) Get(script string) (ScriptAgg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sa, ok := s.scripts[script]
	if !ok {
		return ScriptAgg{}, false
	}
	return sa.snapshot(), true
}

// Totals summarizes ingest history and current store size.
func (s *AggStore) Totals() AggTotals {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := AggTotals{
		FramesMerged: s.framesMerged,
		FramesDup:    s.framesDup,
		FramesFenced: s.framesFenced,
		RowsMerged:   s.rowsMerged,
		Scripts:      len(s.scripts),
	}
	for _, sa := range s.scripts {
		t.Flows += len(sa.Flows)
	}
	return t
}
