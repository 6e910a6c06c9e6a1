package vnettracer

// ClusterQuery must be indistinguishable from querying one collector
// that saw everything: the tests load the same record stream into a
// single baseline DB and into three partition DBs (with one tracepoint
// deliberately split across two partitions, as a re-homed agent leaves
// it), then compare every query surface.

import (
	"reflect"
	"testing"

	"vnettracer/internal/metrics"
	"vnettracer/internal/tracedb"
)

// clusterFixture builds the baseline single-collector session, the
// partitioned view, and the record stream behind them. Tracepoint 1 is
// the source, tracepoint 3 a hop in between, tracepoint 2 the destination
// (some packets "lost"); tracepoint 1's records split across partitions 0
// and 1 mid-stream, tracepoint 3's alternate between partitions 1 and 2.
func clusterFixture(t *testing.T) (*Session, *ClusterQuery) {
	t.Helper()
	s := NewSession()
	base := s.cols[0].col.DB()
	parts := []*tracedb.DB{tracedb.New(), tracedb.New(), tracedb.New()}
	for _, db := range append([]*tracedb.DB{base}, parts...) {
		for tpid, label := range map[uint32]string{1: "src", 2: "dst", 3: "mid"} {
			if _, err := db.CreateTable(tpid, label); err != nil {
				t.Fatal(err)
			}
			s.labels[label] = tpid
		}
	}
	const n = 400
	for i := 0; i < n; i++ {
		src := Record{
			TraceID: uint32(i + 1), TPID: 1, TimeNs: uint64(1000 * (i + 1)),
			Len: 100 + uint32(i%7), CPU: uint32(i % 4), Seq: uint64(i),
			SrcIP: 0x0a000001 + uint32(i%5), DstIP: 0x0a000100,
			SrcPort: 40000, DstPort: 9000, Proto: 17, Dir: 1,
		}
		base.Insert([]Record{src})
		// Split the source tracepoint mid-stream: the re-homed shape.
		if i < n/2 {
			parts[0].Insert([]Record{src})
		} else {
			parts[1].Insert([]Record{src})
		}
		if i%10 == 3 {
			continue // lost before the destination tracepoint
		}
		mid := src
		mid.TPID = 3
		mid.TimeNs += uint64(2000 + 100*(i%3))
		base.Insert([]Record{mid})
		parts[1+i%2].Insert([]Record{mid})
		dst := src
		dst.TPID = 2
		dst.TimeNs += uint64(5000 + 100*(i%11))
		base.Insert([]Record{dst})
		parts[2].Insert([]Record{dst})
	}
	q := NewClusterQuery()
	for _, db := range parts {
		q.AddDB(db)
	}
	return s, q
}

func TestClusterQueryMatchesSingleCollector(t *testing.T) {
	s, q := clusterFixture(t)
	if q.Partitions() != 3 {
		t.Fatalf("partitions = %d, want 3", q.Partitions())
	}
	if got := q.Tables(); !reflect.DeepEqual(got, []uint32{1, 2, 3}) {
		t.Fatalf("tables = %v, want [1 2 3]", got)
	}

	baseSrc, _ := s.Table("src")
	m, ok := q.Table(1)
	if !ok {
		t.Fatal("no merged table 1")
	}
	if m.Len() != baseSrc.Len() {
		t.Fatalf("merged len %d, baseline %d", m.Len(), baseSrc.Len())
	}

	wantTp, err := metrics.ThroughputOf(baseSrc)
	if err != nil {
		t.Fatal(err)
	}
	gotTp, err := q.Throughput(1)
	if err != nil {
		t.Fatal(err)
	}
	if gotTp != wantTp {
		t.Fatalf("throughput %v, baseline %v", gotTp, wantTp)
	}

	baseDst, _ := s.Table("dst")
	wantLat := Latencies(baseSrc, baseDst)
	gotLat, err := q.Latencies(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotLat, wantLat) {
		t.Fatalf("latency join diverged: %d samples vs baseline %d", len(gotLat), len(wantLat))
	}

	wantLost, wantRate := Loss(baseSrc, baseDst)
	gotLost, gotRate, err := q.Loss(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if gotLost != wantLost || gotRate != wantRate {
		t.Fatalf("loss (%d, %v), baseline (%d, %v)", gotLost, gotRate, wantLost, wantRate)
	}

	segs, err := q.Decompose(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0].From != "src" || segs[0].To != "dst" {
		t.Fatalf("decompose segments = %+v", segs)
	}
	if !reflect.DeepEqual(segs[0].PerPacket, wantLat) {
		t.Fatal("decompose per-packet latencies diverged from baseline")
	}

	// A three-stage path, every stage partitioned differently, against the
	// single-collector session.
	wantSegs, err := s.Decompose("src", "mid", "dst")
	if err != nil {
		t.Fatal(err)
	}
	gotSegs, err := q.Decompose(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSegs) != 2 || len(gotSegs[0].PerPacket) != 360 || gotSegs[1].MeanNs() <= 0 {
		t.Fatalf("three-stage decomposition = %d segments, %d packets in the first", len(gotSegs), len(gotSegs[0].PerPacket))
	}
	if !reflect.DeepEqual(gotSegs, wantSegs) {
		t.Fatalf("three-stage decomposition diverged from the session's:\n got %+v\nwant %+v", gotSegs, wantSegs)
	}
}

func TestClusterQueryTopFlows(t *testing.T) {
	s, q := clusterFixture(t)
	baseSrc, _ := s.Table("src")

	// k larger than the flow count: the merged sketch must be exact.
	exact := metrics.TopKOf(metrics.SourceFunc(baseSrc.ScanAligned), 16)
	merged, err := q.TopFlows(1, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(merged.Top(), exact.Top()) {
		t.Fatalf("merged top flows diverged:\n got %+v\nwant %+v", merged.Top(), exact.Top())
	}

	// k smaller than the flow count: top-K is approximate, but the
	// overflow accounting must keep totals exact.
	small, err := q.TopFlows(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	wantPkts, wantBytes := exact.Totals()
	if pkts, bytes := small.Totals(); pkts != wantPkts || bytes != wantBytes {
		t.Fatalf("k=2 totals (%d, %d), want exact (%d, %d)", pkts, bytes, wantPkts, wantBytes)
	}
	if _, _, evictions := small.Overflow(); evictions == 0 {
		t.Fatal("k=2 over 5 flows evicted nothing — overflow accounting untested")
	}

	if _, err := q.TopFlows(99, 4); err == nil {
		t.Fatal("want error for unknown tracepoint")
	}
}

func TestClusterQueryAggregates(t *testing.T) {
	mk := func(hist []uint64, pkts uint64) *tracedb.AggStore {
		st := tracedb.NewAggStore()
		tracedb.Unlogged(tracedb.New(), st).AdmitAggFrame("agent", 1, 1, []tracedb.ScriptAgg{{
			Script:   "udp-rx",
			Counters: []uint64{pkts, pkts * 100},
			Hist:     hist,
		}}, 0, 0)
		return st
	}
	q := &ClusterQuery{aggs: []*tracedb.AggStore{
		mk([]uint64{0, 3, 5}, 8),
		mk([]uint64{1, 0, 2, 9}, 12),
	}}
	if got := q.Scripts(); !reflect.DeepEqual(got, []string{"udp-rx"}) {
		t.Fatalf("scripts = %v", got)
	}
	agg, ok := q.Aggregate("udp-rx")
	if !ok {
		t.Fatal("script missing from merged view")
	}
	if want := []uint64{1, 3, 7, 9}; !reflect.DeepEqual(agg.Hist, want) {
		t.Fatalf("merged hist = %v, want %v", agg.Hist, want)
	}
	if agg.Counters[0] != 20 || agg.Counters[1] != 2000 {
		t.Fatalf("merged counters = %v", agg.Counters)
	}
	if _, ok := q.Aggregate("missing"); ok {
		t.Fatal("unknown script reported present")
	}
}
