// Package metrics computes the network performance metrics of the paper's
// Section III-D from collected trace records: per-flow throughput, latency
// between tracepoints (joined on packet ID, skew-corrected), jitter,
// packet loss, and the decomposition of end-to-end latency along a path of
// tracepoints.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// ErrNoData marks an empty input set.
var ErrNoData = errors.New("metrics: no data")

// TraceIDBytes is the size of the embedded packet ID, which the paper's
// throughput formula subtracts from each packet (S_i - S_ID).
const TraceIDBytes = 4

// RecordSource streams records one pass at a time; Scan calls fn for each
// record until fn returns false. Every analysis here reads the timestamps
// its source hands it, so the caller picks raw or skew-corrected time by
// the scan it passes: *tracedb.Table and *tracedb.Merged satisfy
// RecordSource directly, but through their raw Scan — cross-node math
// wants SourceFunc(x.ScanAligned), which is what Latencies, Decompose and
// the query layer above them pass.
type RecordSource interface {
	Scan(fn func(core.Record) bool)
}

// SourceFunc adapts a scan function to a RecordSource:
// SourceFunc(view.ScanAligned) is a view in skew-corrected time.
type SourceFunc func(fn func(core.Record) bool)

// Scan implements RecordSource.
func (f SourceFunc) Scan(fn func(core.Record) bool) { f(fn) }

// Records adapts an in-memory slice to a RecordSource.
type Records []core.Record

// Scan implements RecordSource.
func (rs Records) Scan(fn func(core.Record) bool) {
	for _, r := range rs {
		if !fn(r) {
			return
		}
	}
}

// ThroughputOf computes bits per second over one tracepoint's record
// stream: sum(S_i - S_ID) / (T_N - T_1), in a single pass (only the
// earliest and latest timestamps matter, not the order in between).
func ThroughputOf(src RecordSource) (float64, error) {
	var n int
	var bytes uint64
	var minT, maxT uint64
	src.Scan(func(r core.Record) bool {
		if n == 0 {
			minT, maxT = r.TimeNs, r.TimeNs
		} else {
			if r.TimeNs < minT {
				minT = r.TimeNs
			}
			if r.TimeNs > maxT {
				maxT = r.TimeNs
			}
		}
		n++
		if r.Len > TraceIDBytes {
			bytes += uint64(r.Len) - TraceIDBytes
		}
		return true
	})
	if n < 2 {
		return 0, fmt.Errorf("%w: need >= 2 records, have %d", ErrNoData, n)
	}
	if maxT == minT {
		return 0, fmt.Errorf("%w: zero time span", ErrNoData)
	}
	return float64(bytes) * 8 * 1e9 / float64(maxT-minT), nil
}

// LatencySample is one per-packet latency measurement between two
// tracepoints.
type LatencySample struct {
	TraceID uint32
	Seq     uint64
	Ns      int64
}

// Latencies joins two tracepoint views on packet ID and returns per-packet
// latency from a to b: t_b - t_a (timestamps skew-aligned per table).
// Packets missing from either side are skipped (they feed the loss metric
// instead). A single table is the one-partition view tracedb.Merge(t);
// with more partitions a packet seen at a on one collector and at b on
// another still pairs up.
func Latencies(a, b *tracedb.Merged) []LatencySample {
	return LatenciesOf(SourceFunc(a.ScanAligned), SourceFunc(b.ScanAligned))
}

// LatenciesOf is the latency join itself, over any two record streams — a
// view's ScanAligned, a filtered stream, an in-memory slice: first
// occurrence per packet ID on each side, untraced records (ID 0) skipped,
// samples in (Seq, TraceID) order. Each source is scanned once (see
// join.go). Callers pass already-aligned sources.
func LatenciesOf(a, b RecordSource) []LatencySample {
	return newJoiner(runtime.GOMAXPROCS(0)).join(partition(a), partition(b))
}

// Values extracts the nanosecond latencies from samples.
func Values(samples []LatencySample) []int64 {
	out := make([]int64, len(samples))
	for i, s := range samples {
		out[i] = s.Ns
	}
	return out
}

// Jitter returns consecutive latency differences ΔT_{i+1} - ΔT_i, ordered
// by packet sequence.
func Jitter(samples []LatencySample) []int64 {
	if len(samples) < 2 {
		return nil
	}
	out := make([]int64, 0, len(samples)-1)
	for i := 1; i < len(samples); i++ {
		out = append(out, samples[i].Ns-samples[i-1].Ns)
	}
	return out
}

// JitterRange returns the minimum and maximum jitter, the form the paper
// reports ("the range of jitter ... was only (-7.2us, 9.2us)").
func JitterRange(samples []LatencySample) (minNs, maxNs int64) {
	j := Jitter(samples)
	if len(j) == 0 {
		return 0, 0
	}
	minNs, maxNs = j[0], j[0]
	for _, v := range j[1:] {
		if v < minNs {
			minNs = v
		}
		if v > maxNs {
			maxNs = v
		}
	}
	return minNs, maxNs
}

// Loss computes packet loss between two tracepoint views: N_loss = N_i -
// N_j and R_loss = N_loss / N_i, over distinct packet IDs (untraced
// records, ID 0, are not packets on either side).
func Loss(a, b *tracedb.Merged) (lost int64, rate float64) {
	ni := int64(a.NumTraceIDs())
	nj := int64(b.NumTraceIDs())
	lost = ni - nj
	if ni > 0 {
		rate = float64(lost) / float64(ni)
	}
	return lost, rate
}

// Segment is one hop of a latency decomposition.
type Segment struct {
	From string
	To   string
	// PerPacket holds each joined packet's latency in this segment.
	PerPacket []LatencySample
}

// MeanNs returns the segment's mean latency.
func (s *Segment) MeanNs() float64 { return Mean(Values(s.PerPacket)) }

// Decompose splits end-to-end latency across consecutive tracepoint
// views, the paper's "decomposition of end-to-end latency" (Figures 9a
// and 11): one latency join per consecutive pair.
func Decompose(stages []*tracedb.Merged) ([]Segment, error) {
	if len(stages) < 2 {
		return nil, fmt.Errorf("%w: need >= 2 stages", ErrNoData)
	}
	sources := make([]RecordSource, len(stages))
	for i, st := range stages {
		sources[i] = SourceFunc(st.ScanAligned)
	}
	out := make([]Segment, 0, len(stages)-1)
	for i, samples := range decompose(sources) {
		out = append(out, Segment{From: stages[i].Name(), To: stages[i+1].Name(), PerPacket: samples})
	}
	return out, nil
}

// decompose joins each stage to the next. Every stage is scanned once: an
// interior stage's scattered records are side b of the hop that ends at it
// and then side a of the hop that starts there.
func decompose(stages []RecordSource) [][]LatencySample {
	out := make([][]LatencySample, 0, len(stages)-1)
	j := newJoiner(runtime.GOMAXPROCS(0))
	a := partition(stages[0])
	for _, st := range stages[1:] {
		b := partition(st)
		out = append(out, j.join(a, b))
		a = b
	}
	return out
}

// Mean returns the arithmetic mean of vals, 0 when empty.
func Mean(vals []int64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += float64(v)
	}
	return sum / float64(len(vals))
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank on a sorted copy.
func Percentile(vals []int64, p float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	return nearestRank(sorted, p)
}

// nearestRank reads the p-th percentile off non-empty, sorted values.
func nearestRank(sorted []int64, p float64) int64 {
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// Summary bundles the latency statistics the paper's figures report.
type Summary struct {
	Count  int
	MeanNs float64
	P50Ns  int64
	P99Ns  int64
	P999Ns int64
	MaxNs  int64
}

// Summarize computes a Summary over latency values.
func Summarize(vals []int64) Summary {
	s := Summary{Count: len(vals)}
	if len(vals) == 0 {
		return s
	}
	s.MeanNs = Mean(vals)
	sorted := slices.Clone(vals)
	slices.Sort(sorted)
	s.P50Ns = nearestRank(sorted, 50)
	s.P99Ns = nearestRank(sorted, 99)
	s.P999Ns = nearestRank(sorted, 99.9)
	s.MaxNs = sorted[len(sorted)-1]
	return s
}
