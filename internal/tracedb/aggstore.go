package tracedb

import (
	"sort"
	"sync"
)

// This file implements the collector-side store for in-probe aggregates:
// compact per-script metric frames drained from agent maps instead of
// per-packet records. Frames are sequence-numbered and epoch-fenced in a
// sequence space of their own but with the exact semantics of record
// batches (the embedded deliveryLedger), so exactly-once merge and
// zombie fencing extend to aggregates. Merging is additive: counters,
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
// buckets, and per-flow sums. Nil slices mean the script lacks that
// action. The same type serves as the wire payload (agent snapshot) and
// the merged collector view.
type ScriptAgg struct {
	Script   string    `json:"script"`
	Counters []uint64  `json:"counters,omitempty"`
	CPUHits  []uint64  `json:"cpu_hits,omitempty"`
	Hist     []uint64  `json:"hist,omitempty"`
	Flows    []FlowAgg `json:"flows,omitempty"`
}

// Rows returns the number of aggregate rows the entry carries, the unit
// used for fenced-loss accounting (the aggregate analogue of a record).
func (s *ScriptAgg) Rows() int {
	return len(s.Counters) + len(s.CPUHits) + len(s.Hist) + len(s.Flows)
}

type flowKey struct {
	srcIP, dstIP     uint32
	srcPort, dstPort uint16
	proto            uint8
}

// scriptAgg is the mutable merged state behind one script name.
type scriptAgg struct {
	counters []uint64
	cpuHits  []uint64
	hist     []uint64
	flows    map[flowKey]*struct{ packets, bytes uint64 }
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
// keeps its own per-agent delivery ledger because aggregate frames ride
// a dedicated sequence space (agents number record batches and aggregate
// frames independently).
type AggStore struct {
	// The aggregate-frame ledger. Frames come in through Admit, never
	// the ledger's own AdmitBatch: Admit classifies through it while
	// holding mu, so a frame's classification and its merge are one
	// atomic step.
	deliveryLedger

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

// Admit classifies an aggregate frame exactly like DB.AdmitBatch
// classifies a record batch — fresh frames are merged, duplicates and
// stale-epoch zombie frames are dropped with their counters advanced —
// and returns the classification. rows should be the frame's total
// aggregate row count (sum of ScriptAgg.Rows), the payload unit tracked
// by FencedRecords.
func (s *AggStore) Admit(agent string, epoch, seq uint64, scripts []ScriptAgg, nowNs int64, degraded uint8) BatchStatus {
	rows := 0
	for i := range scripts {
		rows += scripts[i].Rows()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.AdmitBatch(agent, epoch, seq, rows, nowNs, degraded)
	switch st {
	case BatchFresh:
		for i := range scripts {
			s.merge(&scripts[i])
		}
		s.framesMerged++
		s.rowsMerged += uint64(rows)
	case BatchDuplicate:
		s.framesDup++
	case BatchFenced:
		s.framesFenced++
	}
	return st
}

// merge folds one script snapshot into the store. Callers hold s.mu.
func (s *AggStore) merge(in *ScriptAgg) {
	sa, ok := s.scripts[in.Script]
	if !ok {
		sa = &scriptAgg{flows: make(map[flowKey]*struct{ packets, bytes uint64 })}
		s.scripts[in.Script] = sa
	}
	sa.counters = addU64(sa.counters, in.Counters)
	sa.cpuHits = addU64(sa.cpuHits, in.CPUHits)
	sa.hist = addU64(sa.hist, in.Hist)
	for _, f := range in.Flows {
		k := flowKey{f.SrcIP, f.DstIP, f.SrcPort, f.DstPort, f.Proto}
		fv, ok := sa.flows[k]
		if !ok {
			fv = &struct{ packets, bytes uint64 }{}
			sa.flows[k] = fv
		}
		fv.packets += f.Packets
		fv.bytes += f.Bytes
	}
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
// flows sorted by 5-tuple.
func (s *AggStore) Get(script string) (ScriptAgg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sa, ok := s.scripts[script]
	if !ok {
		return ScriptAgg{}, false
	}
	return sa.snapshot(script), true
}

// snapshot deep-copies the merged state under the given script name,
// flows sorted by 5-tuple. Callers hold the store's mutex.
func (sa *scriptAgg) snapshot(script string) ScriptAgg {
	out := ScriptAgg{
		Script:   script,
		Counters: append([]uint64(nil), sa.counters...),
		CPUHits:  append([]uint64(nil), sa.cpuHits...),
		Hist:     append([]uint64(nil), sa.hist...),
	}
	for k, v := range sa.flows {
		out.Flows = append(out.Flows, FlowAgg{
			SrcIP: k.srcIP, DstIP: k.dstIP,
			SrcPort: k.srcPort, DstPort: k.dstPort, Proto: k.proto,
			Packets: v.packets, Bytes: v.bytes,
		})
	}
	sort.Slice(out.Flows, func(i, j int) bool { return flowLess(&out.Flows[i], &out.Flows[j]) })
	return out
}

// flowLess orders flows by 5-tuple for deterministic output.
func flowLess(a, b *FlowAgg) bool {
	if a.SrcIP != b.SrcIP {
		return a.SrcIP < b.SrcIP
	}
	if a.DstIP != b.DstIP {
		return a.DstIP < b.DstIP
	}
	if a.SrcPort != b.SrcPort {
		return a.SrcPort < b.SrcPort
	}
	if a.DstPort != b.DstPort {
		return a.DstPort < b.DstPort
	}
	return a.Proto < b.Proto
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
		t.Flows += len(sa.flows)
	}
	return t
}
