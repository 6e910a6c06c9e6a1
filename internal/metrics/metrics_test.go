package metrics

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// table creates and fills one table and returns its one-partition view,
// the form every table-level metric takes.
func table(t *testing.T, db *tracedb.DB, tpid uint32, name string, recs []core.Record) *tracedb.Merged {
	t.Helper()
	tbl, err := db.CreateTable(tpid, name)
	if err != nil {
		t.Fatal(err)
	}
	db.Insert(recs)
	return tracedb.Merge(tbl)
}

func TestThroughputFormula(t *testing.T) {
	// 10 packets of 1004 bytes (1000 + 4-byte ID) over 1ms:
	// 10 * 1000 * 8 bits / 1e-3 s = 80 Mbps.
	var recs []core.Record
	for i := 0; i < 10; i++ {
		recs = append(recs, core.Record{TPID: 1, TraceID: uint32(i + 1), Len: 1004, TimeNs: uint64(i) * 111_111})
	}
	recs[len(recs)-1].TimeNs = 1_000_000
	bps, err := ThroughputOf(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	want := 80_000_000.0
	if bps < want*0.99 || bps > want*1.01 {
		t.Fatalf("throughput = %.0f, want ~%.0f", bps, want)
	}
}

func TestThroughputErrors(t *testing.T) {
	if _, err := ThroughputOf(Records(nil)); !errors.Is(err, ErrNoData) {
		t.Fatalf("empty: %v", err)
	}
	same := []core.Record{{TimeNs: 5}, {TimeNs: 5}}
	if _, err := ThroughputOf(Records(same)); !errors.Is(err, ErrNoData) {
		t.Fatalf("zero span: %v", err)
	}
}

func TestThroughputUnsorted(t *testing.T) {
	recs := []core.Record{
		{Len: 104, TimeNs: 1000},
		{Len: 104, TimeNs: 0},
		{Len: 104, TimeNs: 500},
	}
	bps, err := ThroughputOf(Records(recs))
	if err != nil {
		t.Fatal(err)
	}
	want := float64(3*100*8) * 1e9 / 1000
	if bps != want {
		t.Fatalf("throughput = %f, want %f", bps, want)
	}
}

func TestLatenciesJoinOnTraceID(t *testing.T) {
	db := tracedb.New()
	a := table(t, db, 1, "a", []core.Record{
		{TPID: 1, TraceID: 10, Seq: 0, TimeNs: 100},
		{TPID: 1, TraceID: 11, Seq: 1, TimeNs: 200},
		{TPID: 1, TraceID: 12, Seq: 2, TimeNs: 300}, // lost before b
	})
	b := table(t, db, 2, "b", []core.Record{
		{TPID: 2, TraceID: 10, Seq: 0, TimeNs: 150},
		{TPID: 2, TraceID: 11, Seq: 1, TimeNs: 290},
	})
	lat := Latencies(a, b)
	if len(lat) != 2 {
		t.Fatalf("samples = %d", len(lat))
	}
	if lat[0].Ns != 50 || lat[1].Ns != 90 {
		t.Fatalf("latencies = %+v", lat)
	}
}

func TestLatenciesSkipUntraced(t *testing.T) {
	db := tracedb.New()
	a := table(t, db, 1, "a", []core.Record{{TPID: 1, TraceID: 0, TimeNs: 1}})
	b := table(t, db, 2, "b", []core.Record{{TPID: 2, TraceID: 0, TimeNs: 5}})
	if got := Latencies(a, b); len(got) != 0 {
		t.Fatalf("untraced packets joined: %+v", got)
	}
}

func TestLatenciesApplySkewCorrection(t *testing.T) {
	db := tracedb.New()
	a := table(t, db, 1, "client", []core.Record{{TPID: 1, TraceID: 5, TimeNs: 1000}})
	b := table(t, db, 2, "server", []core.Record{{TPID: 2, TraceID: 5, TimeNs: 10_000}})
	// Server clock is 8000 ahead: true latency is 1000.
	db.SetSkew(2, 8000)
	lat := Latencies(a, b)
	if len(lat) != 1 || lat[0].Ns != 1000 {
		t.Fatalf("skew-corrected latency = %+v", lat)
	}
}

func TestJitterAndRange(t *testing.T) {
	samples := []LatencySample{
		{Seq: 0, Ns: 100}, {Seq: 1, Ns: 150}, {Seq: 2, Ns: 120}, {Seq: 3, Ns: 200},
	}
	j := Jitter(samples)
	want := []int64{50, -30, 80}
	if len(j) != 3 {
		t.Fatalf("jitter = %v", j)
	}
	for i := range want {
		if j[i] != want[i] {
			t.Fatalf("jitter = %v, want %v", j, want)
		}
	}
	lo, hi := JitterRange(samples)
	if lo != -30 || hi != 80 {
		t.Fatalf("range = (%d, %d)", lo, hi)
	}
}

func TestJitterEmpty(t *testing.T) {
	if Jitter(nil) != nil {
		t.Fatal("jitter of nothing")
	}
	lo, hi := JitterRange([]LatencySample{{Ns: 5}})
	if lo != 0 || hi != 0 {
		t.Fatal("single-sample range should be zero")
	}
}

func TestLoss(t *testing.T) {
	db := tracedb.New()
	a := table(t, db, 1, "a", []core.Record{
		{TPID: 1, TraceID: 1}, {TPID: 1, TraceID: 2}, {TPID: 1, TraceID: 3}, {TPID: 1, TraceID: 4},
	})
	b := table(t, db, 2, "b", []core.Record{
		{TPID: 2, TraceID: 1}, {TPID: 2, TraceID: 3},
	})
	lost, rate := Loss(a, b)
	if lost != 2 || rate != 0.5 {
		t.Fatalf("loss = %d rate = %f", lost, rate)
	}
}

// Untraced records (ID 0: TCP, which carries no embedded ID) are not
// packets to the loss metric, as they are not to the join.
func TestLossIgnoresUntraced(t *testing.T) {
	db := tracedb.New()
	a := table(t, db, 1, "a", []core.Record{
		{TPID: 1, TraceID: 0, Proto: 6}, {TPID: 1, TraceID: 1}, {TPID: 1, TraceID: 0, Proto: 6}, {TPID: 1, TraceID: 2},
	})
	b := table(t, db, 2, "b", []core.Record{
		{TPID: 2, TraceID: 1}, {TPID: 2, TraceID: 2},
	})
	if lost, rate := Loss(a, b); lost != 0 || rate != 0 {
		t.Fatalf("loss = %d rate = %f, want none: the untraced records counted as a packet", lost, rate)
	}
	if n := a.NumTraceIDs(); n != 2 {
		t.Fatalf("distinct packet IDs = %d, want 2", n)
	}
}

func TestDecompose(t *testing.T) {
	db := tracedb.New()
	mk := func(tpid uint32, base uint64) []core.Record {
		var out []core.Record
		for i := uint32(1); i <= 3; i++ {
			out = append(out, core.Record{TPID: tpid, TraceID: i, Seq: uint64(i), TimeNs: base + uint64(i)*10})
		}
		return out
	}
	s1 := table(t, db, 1, "eth0", mk(1, 0))
	s2 := table(t, db, 2, "ovs", mk(2, 1000))
	s3 := table(t, db, 3, "eth1", mk(3, 5000))
	segs, err := Decompose([]*tracedb.Merged{s1, s2, s3})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	if segs[0].From != "eth0" || segs[0].To != "ovs" {
		t.Fatalf("seg0 = %s->%s", segs[0].From, segs[0].To)
	}
	if segs[0].MeanNs() != 1000 || segs[1].MeanNs() != 4000 {
		t.Fatalf("means = %f %f", segs[0].MeanNs(), segs[1].MeanNs())
	}
	if _, err := Decompose([]*tracedb.Merged{s1}); !errors.Is(err, ErrNoData) {
		t.Fatal("single stage accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	vals := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	tests := []struct {
		p    float64
		want int64
	}{
		{0, 10}, {10, 10}, {50, 50}, {90, 90}, {99, 100}, {100, 100},
	}
	for _, tc := range tests {
		if got := Percentile(vals, tc.p); got != tc.want {
			t.Errorf("P%.0f = %d, want %d", tc.p, got, tc.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile")
	}
}

func TestPercentileProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		vals := make([]int64, int(n)+1)
		for i := range vals {
			vals[i] = rng.Int63n(1000)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		p50 := Percentile(vals, 50)
		p99 := Percentile(vals, 99)
		// Monotone in p, bounded by min/max, and a member of the set.
		if p50 > p99 {
			return false
		}
		if p99 > sorted[len(sorted)-1] || p50 < sorted[0] {
			return false
		}
		found := false
		for _, v := range vals {
			if v == p50 {
				found = true
				break
			}
		}
		return found
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSummarize(t *testing.T) {
	vals := make([]int64, 1000)
	for i := range vals {
		vals[i] = int64(i + 1)
	}
	s := Summarize(vals)
	if s.Count != 1000 || s.MeanNs != 500.5 {
		t.Fatalf("summary = %+v", s)
	}
	if s.P50Ns != 500 || s.P99Ns != 990 || s.P999Ns != 999 || s.MaxNs != 1000 {
		t.Fatalf("percentiles = %+v", s)
	}
	empty := Summarize(nil)
	if empty.Count != 0 || empty.MeanNs != 0 {
		t.Fatalf("empty summary = %+v", empty)
	}
}
