package vnettracer

// Query layer: every table-level metric is answered over merged views of
// a tracepoint's partitions. With one collector there is one partition
// per tracepoint (Session queries its database this way); when the
// collector tier is scaled out, each agent's record tables and aggregate
// ledgers live on its home collector, so any tracepoint's data is
// partitioned across the tier (an agent that re-homed mid-run leaves
// records on both its old and new collector). ClusterQuery stitches the
// partitions into one query surface: k-way merged time-ordered scans,
// cross-collector trace-ID joins for latency and loss, and mergeable
// sketches (log2 histograms, per-flow top-K with exact overflow
// accounting) for the aggregate plane.

import (
	"fmt"
	"sort"

	"vnettracer/internal/metrics"
	"vnettracer/internal/tracedb"
)

// ClusterQuery is a read-only merged view over the databases (and
// optionally aggregate stores) of one or more collectors. It never copies
// records: scans k-way merge the partition streams on aligned
// timestamps, and joins stream each side exactly once.
type ClusterQuery struct {
	dbs  []*tracedb.DB
	aggs []*tracedb.AggStore
}

// NewClusterQuery creates an empty cluster view; add partitions with
// AddDB or AddCollector.
func NewClusterQuery() *ClusterQuery { return &ClusterQuery{} }

// AddDB joins one collector's trace database to the view.
func (q *ClusterQuery) AddDB(db *DB) *ClusterQuery {
	q.dbs = append(q.dbs, db)
	return q
}

// AddAggStore joins one collector's aggregate store to the view (for
// offline dumps replayed into a store without a live collector).
func (q *ClusterQuery) AddAggStore(st *tracedb.AggStore) *ClusterQuery {
	q.aggs = append(q.aggs, st)
	return q
}

// AddCollector joins a collector's database and aggregate store.
func (q *ClusterQuery) AddCollector(c *Collector) *ClusterQuery {
	q.dbs = append(q.dbs, c.DB())
	q.aggs = append(q.aggs, c.Aggregates())
	return q
}

// Partitions returns the number of databases in the view.
func (q *ClusterQuery) Partitions() int { return len(q.dbs) }

// Tables returns the sorted union of tracepoint IDs across partitions.
func (q *ClusterQuery) Tables() []uint32 {
	seen := make(map[uint32]bool)
	var out []uint32
	for _, db := range q.dbs {
		for _, id := range db.Tables() {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Table returns the merged view of one tracepoint: every partition that
// holds a shard of it, k-way merged. ok is false when no partition has
// the table.
func (q *ClusterQuery) Table(tpid uint32) (*tracedb.Merged, bool) {
	var parts []*Table
	for _, db := range q.dbs {
		if t, ok := db.Table(tpid); ok {
			parts = append(parts, t)
		}
	}
	if len(parts) == 0 {
		return nil, false
	}
	return tracedb.Merge(parts...), true
}

func (q *ClusterQuery) table(tpid uint32) (*tracedb.Merged, error) {
	m, ok := q.Table(tpid)
	if !ok {
		return nil, fmt.Errorf("vnettracer: no partition holds tracepoint %d", tpid)
	}
	return m, nil
}

// Throughput computes the paper's throughput metric over the merged
// tracepoint stream, in skew-corrected time.
func (q *ClusterQuery) Throughput(tpid uint32) (float64, error) {
	m, err := q.table(tpid)
	if err != nil {
		return 0, err
	}
	return metrics.ThroughputOf(metrics.SourceFunc(m.ScanAligned))
}

// PerFlowThroughput computes per-flow throughput over the merged stream.
func (q *ClusterQuery) PerFlowThroughput(tpid uint32) ([]FlowStats, error) {
	m, err := q.table(tpid)
	if err != nil {
		return nil, err
	}
	return metrics.PerFlowThroughputOf(metrics.SourceFunc(m.ScanAligned)), nil
}

// tables resolves a path of tracepoints to their merged views.
func (q *ClusterQuery) tables(tpids ...uint32) ([]*tracedb.Merged, error) {
	out := make([]*tracedb.Merged, len(tpids))
	for i, id := range tpids {
		m, err := q.table(id)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// Latencies joins two tracepoints on packet trace ID across collector
// boundaries: the from and to sides are each a merged multi-partition
// stream, so a packet observed at tracepoint A on one collector and at
// tracepoint B on another still pairs up.
func (q *ClusterQuery) Latencies(from, to uint32) ([]LatencySample, error) {
	ab, err := q.tables(from, to)
	if err != nil {
		return nil, err
	}
	return metrics.Latencies(ab[0], ab[1]), nil
}

// Loss counts packets seen at from but never at to, across all
// partitions of both tracepoints.
func (q *ClusterQuery) Loss(from, to uint32) (lost int64, rate float64, err error) {
	ab, err := q.tables(from, to)
	if err != nil {
		return 0, 0, err
	}
	lost, rate = metrics.Loss(ab[0], ab[1])
	return lost, rate, nil
}

// Decompose splits end-to-end latency across a path of tracepoints, each
// stage a merged multi-partition stream — the paper's latency
// decomposition, surviving collector scale-out.
func (q *ClusterQuery) Decompose(tpids ...uint32) ([]Segment, error) {
	stages, err := q.tables(tpids...)
	if err != nil {
		return nil, err
	}
	return metrics.Decompose(stages)
}

// TopFlows builds a per-partition top-K flow sketch at each collector
// and merges them — the scalable plan, shipping K flows per collector
// instead of the full stream. The merged sketch's Overflow() keeps the
// exact packet/byte mass outside the top K, so totals still reconcile.
func (q *ClusterQuery) TopFlows(tpid uint32, k int) (*metrics.TopKFlows, error) {
	m, err := q.table(tpid)
	if err != nil {
		return nil, err
	}
	merged := metrics.NewTopKFlows(k)
	for i := 0; i < m.Parts(); i++ {
		merged.Merge(metrics.TopKOf(metrics.SourceFunc(m.Part(i).ScanAligned), k))
	}
	return merged, nil
}

// Scripts returns the sorted union of script names across the view's
// aggregate stores.
func (q *ClusterQuery) Scripts() []string {
	seen := make(map[string]bool)
	var out []string
	for _, st := range q.aggs {
		for _, name := range st.Scripts() {
			if !seen[name] {
				seen[name] = true
				out = append(out, name)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Aggregate merges one script's in-probe aggregates across every
// collector's store: counters and per-CPU hits add, log2 histogram
// buckets add (the mergeable-sketch property), and per-flow sums merge
// by flow key. ok is false when no store has the script.
func (q *ClusterQuery) Aggregate(script string) (tracedb.ScriptAgg, bool) {
	var parts []tracedb.ScriptAgg
	for _, st := range q.aggs {
		if agg, ok := st.Get(script); ok {
			parts = append(parts, agg)
		}
	}
	if len(parts) == 0 {
		return tracedb.ScriptAgg{}, false
	}
	return tracedb.MergeAggs(parts...), true
}
