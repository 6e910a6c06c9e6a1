package metrics

import (
	"fmt"
	"sort"

	"vnettracer/internal/core"
)

// FlowKey identifies a flow in collected records (the record's 5-tuple).
type FlowKey struct {
	SrcIP   uint32
	DstIP   uint32
	SrcPort uint16
	DstPort uint16
	Proto   uint8
}

// String renders "proto a.b.c.d:p->a.b.c.d:p".
func (k FlowKey) String() string {
	proto := "?"
	switch k.Proto {
	case 6:
		proto = "tcp"
	case 17:
		proto = "udp"
	}
	return fmt.Sprintf("%s %s:%d->%s:%d", proto, ip4(k.SrcIP), k.SrcPort, ip4(k.DstIP), k.DstPort)
}

func ip4(v uint32) string {
	return fmt.Sprintf("%d.%d.%d.%d", byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func keyOf(r core.Record) FlowKey {
	return FlowKey{SrcIP: r.SrcIP, DstIP: r.DstIP, SrcPort: r.SrcPort, DstPort: r.DstPort, Proto: r.Proto}
}

// FlowStats summarizes one flow at a tracepoint.
type FlowStats struct {
	Flow    FlowKey
	Packets int
	Bytes   uint64
	// ThroughputBps is sum(S_i - S_ID)/(T_N - T_1) for this flow alone —
	// the paper's per-flow throughput (Section III-D, "advanced tracing
	// information, like per-flow throughput").
	ThroughputBps float64
	FirstNs       uint64
	LastNs        uint64
}

// PerFlowThroughputOf streams one tracepoint's records, grouping by flow
// and computing per-flow throughput in a single pass — only the running
// aggregates are kept per flow, never the records themselves. Flows with a
// single record have zero throughput (no interval).
func PerFlowThroughputOf(src RecordSource) []FlowStats {
	groups := make(map[FlowKey]*FlowStats)
	src.Scan(func(r core.Record) bool {
		k := keyOf(r)
		fs, ok := groups[k]
		if !ok {
			fs = &FlowStats{Flow: k, FirstNs: r.TimeNs, LastNs: r.TimeNs}
			groups[k] = fs
		}
		fs.Packets++
		if r.Len > TraceIDBytes {
			fs.Bytes += uint64(r.Len) - TraceIDBytes
		}
		if r.TimeNs < fs.FirstNs {
			fs.FirstNs = r.TimeNs
		}
		if r.TimeNs > fs.LastNs {
			fs.LastNs = r.TimeNs
		}
		return true
	})
	out := make([]FlowStats, 0, len(groups))
	for _, fs := range groups {
		if span := fs.LastNs - fs.FirstNs; span > 0 {
			fs.ThroughputBps = float64(fs.Bytes) * 8 * 1e9 / float64(span)
		}
		out = append(out, *fs)
	}
	// Deterministic order: by descending bytes, then by flow string.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Flow.String() < out[j].Flow.String()
	})
	return out
}

// InterArrivalsOf returns consecutive packet arrival gaps at one
// tracepoint, sorted by timestamp — the paper's "packet arrival time" raw
// metric. Only the 8-byte timestamps are materialized from the stream, not
// full records.
func InterArrivalsOf(src RecordSource) []int64 {
	var ts []uint64
	src.Scan(func(r core.Record) bool {
		ts = append(ts, r.TimeNs)
		return true
	})
	if len(ts) < 2 {
		return nil
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	out := make([]int64, 0, len(ts)-1)
	for i := 1; i < len(ts); i++ {
		out = append(out, int64(ts[i]-ts[i-1]))
	}
	return out
}
