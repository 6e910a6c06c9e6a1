package metrics

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// twoPassLatencies is the join LatenciesOf replaced, kept as its oracle:
// a whole-table map of side b's first timestamps, a set of the side-a IDs
// already seen, and a comparison sort of the samples.
func twoPassLatencies(a, b RecordSource) []LatencySample {
	bFirst := make(map[uint32]uint64)
	b.Scan(func(r core.Record) bool {
		if r.TraceID != 0 {
			if _, seen := bFirst[r.TraceID]; !seen {
				bFirst[r.TraceID] = r.TimeNs
			}
		}
		return true
	})
	var out []LatencySample
	seen := make(map[uint32]struct{})
	a.Scan(func(r core.Record) bool {
		if r.TraceID == 0 {
			return true
		}
		if _, dup := seen[r.TraceID]; dup {
			return true
		}
		seen[r.TraceID] = struct{}{}
		tb, ok := bFirst[r.TraceID]
		if !ok {
			return true
		}
		out = append(out, LatencySample{TraceID: r.TraceID, Seq: r.Seq, Ns: int64(tb) - int64(r.TimeNs)})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].TraceID < out[j].TraceID
	})
	return out
}

func checkAgainstTwoPass(t *testing.T, a, b []core.Record) {
	t.Helper()
	got, want := LatenciesOf(Records(a), Records(b)), twoPassLatencies(Records(a), Records(b))
	if !slices.Equal(got, want) {
		for i := range min(len(got), len(want)) {
			if got[i] != want[i] {
				t.Fatalf("%d/%d samples; first difference at %d: %+v, want %+v", len(got), len(want), i, got[i], want[i])
			}
		}
		t.Fatalf("%d samples, want %d", len(got), len(want))
	}
}

// onePartitionIDs returns n distinct non-zero IDs that all hash to
// partition part, which must be below joinParts.
func onePartitionIDs(part uint64, n int) []uint32 {
	if part >= joinParts {
		panic(fmt.Sprintf("partition %d of %d", part, joinParts))
	}
	ids := make([]uint32, 0, n)
	for id := uint32(1); len(ids) < n; id++ {
		if joinHash(id)>>(64-joinPartBits) == part {
			ids = append(ids, id)
		}
	}
	return ids
}

// checkJoinersAgainstTwoPass holds the join to the two-pass oracle at
// worker counts from one up to past joinParts, where a joiner caps them.
func checkJoinersAgainstTwoPass(t *testing.T, a, b []core.Record) {
	t.Helper()
	want := twoPassLatencies(Records(a), Records(b))
	for _, w := range []int{1, 2, 3, joinParts, 2 * joinParts} {
		got := newJoiner(w).join(partition(Records(a)), partition(Records(b)))
		if !slices.Equal(got, want) {
			t.Fatalf("%d workers: %d samples, want %d", w, len(got), len(want))
		}
	}
}

func TestLatenciesOfMatchesTwoPass(t *testing.T) {
	rec := func(id uint32, seq, ns uint64) core.Record { return core.Record{TraceID: id, Seq: seq, TimeNs: ns} }

	t.Run("empty sides", func(t *testing.T) {
		some := []core.Record{rec(1, 1, 10), rec(2, 2, 20)}
		checkAgainstTwoPass(t, nil, nil)
		checkAgainstTwoPass(t, some, nil)
		checkAgainstTwoPass(t, nil, some)
		if got := LatenciesOf(Records(some), Records(nil)); len(got) != 0 {
			t.Fatalf("joined against nothing: %+v", got)
		}
	})

	t.Run("duplicates, ID 0, missing IDs", func(t *testing.T) {
		a := []core.Record{
			rec(7, 3, 100), rec(0, 0, 101), rec(7, 9, 150), // the second 7 must not pair
			rec(8, 1, 110), // missing from b
			rec(9, 2, 120), rec(0, 5, 121),
		}
		b := []core.Record{
			rec(9, 0, 500), rec(0, 0, 1), rec(7, 0, 300), rec(9, 0, 400), // the first 9 stands
			rec(6, 0, 310), // missing from a
			rec(7, 0, 900),
		}
		checkAgainstTwoPass(t, a, b)
		got := LatenciesOf(Records(a), Records(b))
		want := []LatencySample{{TraceID: 9, Seq: 2, Ns: 380}, {TraceID: 7, Seq: 3, Ns: 200}}
		if !slices.Equal(got, want) {
			t.Fatalf("samples = %+v, want %+v", got, want)
		}
	})

	t.Run("equal Seq ties", func(t *testing.T) {
		// Every Seq equal (a source that does not number its packets), more
		// samples than the insertion sort takes: order is by TraceID alone.
		var a, b []core.Record
		rng := rand.New(rand.NewSource(3))
		for _, i := range rng.Perm(5000) {
			a = append(a, rec(uint32(i+1), 7, uint64(i)))
			b = append(b, rec(uint32(i+1), 0, uint64(i)+50))
		}
		checkAgainstTwoPass(t, a, b)
		// And a few distinct Seq values, each shared by many samples.
		for i := range a {
			a[i].Seq = uint64(a[i].TraceID%5) << 40
		}
		checkAgainstTwoPass(t, a, b)
	})

	t.Run("one partition, larger than the table began", func(t *testing.T) {
		// A small partition pair first, so the table exists at its
		// smallest; then every other ID in one later partition, which has
		// to outgrow it; then a small pair again, joined through a prefix
		// of the grown table.
		var a, b []core.Record
		add := func(ids []uint32) {
			for i, id := range ids {
				a = append(a, rec(id, uint64(len(a)), uint64(i)))
				b = append(b, rec(id, 0, uint64(i)+uint64(id%97)))
			}
		}
		add(onePartitionIDs(0, 3))
		add(onePartitionIDs(joinParts/2, 20_000))
		add(onePartitionIDs(joinParts-1, 3))
		rand.New(rand.NewSource(4)).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		checkAgainstTwoPass(t, a, b)
		if got := LatenciesOf(Records(a), Records(b)); len(got) != 20_006 {
			t.Fatalf("%d samples, want 20006", len(got))
		}
	})

	t.Run("random", func(t *testing.T) {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a, b := randomJoinInput(rng, rng.Intn(3000)), randomJoinInput(rng, rng.Intn(3000))
			checkAgainstTwoPass(t, a, b)
		}
	})

	// pairs returns n packets seen on both sides, packet i with Seq
	// seq(i), in a shuffled order on side b.
	pairs := func(n int, seq func(i int) uint64) (a, b []core.Record) {
		for i := range n {
			a = append(a, rec(uint32(i+1), seq(i), uint64(i)))
			b = append(b, rec(uint32(i+1), 0, uint64(i)+uint64(i%89)))
		}
		rand.New(rand.NewSource(int64(n))).Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		return a, b
	}

	t.Run("Seq over the whole uint64 range", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		a, b := pairs(6000, func(i int) uint64 {
			switch i {
			case 0:
				return 0
			case 1:
				return math.MaxUint64
			}
			return rng.Uint64()
		})
		checkJoinersAgainstTwoPass(t, a, b)
	})

	t.Run("one outlier Seq, every other sample in one bucket", func(t *testing.T) {
		a, b := pairs(6000, func(i int) uint64 {
			if i == 2999 {
				return 1 << 63
			}
			return uint64(5999 - i)
		})
		checkJoinersAgainstTwoPass(t, a, b)
	})

	t.Run("more workers than non-empty partitions", func(t *testing.T) {
		var a, b []core.Record
		for _, part := range []uint64{1, joinParts - 2} {
			for i, id := range onePartitionIDs(part, 700) {
				a = append(a, rec(id, uint64(i%50), uint64(i)))
				b = append(b, rec(id, 0, uint64(i)+uint64(id%31)))
			}
		}
		checkJoinersAgainstTwoPass(t, a, b)
	})

	t.Run("decompose over 5 stages", func(t *testing.T) {
		// Stages of very different sizes, so the workers' tables and sort
		// buffers grow and are then reused at a smaller size.
		for seed := int64(1); seed <= 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			stages := make([][]core.Record, 5)
			sources := make([]RecordSource, len(stages))
			for s := range stages {
				stages[s] = randomJoinInput(rng, []int{4000, 30, 2500, 0, 1200}[(s+int(seed))%5])
				sources[s] = Records(stages[s])
			}
			for i, got := range decompose(sources) {
				if want := twoPassLatencies(sources[i], sources[i+1]); !slices.Equal(got, want) {
					t.Fatalf("seed %d, hop %d: %d samples, want %d", seed, i, len(got), len(want))
				}
			}
		}
	})
}

// randomJoinInput draws n records over a small ID space, so IDs repeat
// within a side — next to each other and far apart — and go missing from
// either side; about one in ten is untraced, Seq is unsorted and repeats,
// and some inputs keep to IDs of a single partition.
func randomJoinInput(rng *rand.Rand, n int) []core.Record {
	ids := make([]uint32, max(1, n/2))
	for i := range ids {
		ids[i] = rng.Uint32()
	}
	if rng.Intn(4) == 0 {
		ids = onePartitionIDs(uint64(rng.Intn(joinParts)), len(ids))
	}
	out := make([]core.Record, n)
	for i := range out {
		r := core.Record{TraceID: ids[rng.Intn(len(ids))], TimeNs: rng.Uint64() >> 1}
		switch rng.Intn(10) {
		case 0:
			r.TraceID = 0
		case 1:
			if i > 0 {
				r.TraceID = out[i-1].TraceID // back to back
			}
		}
		switch rng.Intn(3) {
		case 0:
			r.Seq = uint64(rng.Intn(8))
		case 1:
			r.Seq = uint64(i)
		default:
			r.Seq = rng.Uint64()
		}
		out[i] = r
	}
	return out
}

// FuzzLatenciesOf reads the input as 6-byte records — side, a one-byte ID
// (so IDs collide and 0 occurs), a two-byte Seq, a two-byte time — and
// holds the join to the two-pass oracle.
func FuzzLatenciesOf(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 10, 1, 1, 0, 0, 0, 30}) // the corpus under testdata/fuzz has the rest
	f.Fuzz(func(t *testing.T, data []byte) {
		var sides [2][]core.Record
		for ; len(data) >= 6; data = data[6:] {
			// Spread the 256 IDs over the partitions, keeping 0 at 0.
			id := uint32(data[1]) * 0x01010101
			sides[data[0]&1] = append(sides[data[0]&1], core.Record{
				TraceID: id,
				Seq:     uint64(binary.BigEndian.Uint16(data[2:])),
				TimeNs:  uint64(binary.BigEndian.Uint16(data[4:])),
			})
		}
		got := LatenciesOf(Records(sides[0]), Records(sides[1]))
		if want := twoPassLatencies(Records(sides[0]), Records(sides[1])); !slices.Equal(got, want) {
			t.Fatalf("samples = %+v, want %+v", got, want)
		}
	})
}

// stageViews builds n tracepoint tables a path of packets crossed, each
// losing a few packets and seeing a few twice, over sealed extents and a
// head.
func stageViews(t *testing.T, n, packets int) []*tracedb.Merged {
	t.Helper()
	db := tracedb.NewWith(tracedb.Config{SegmentBytes: 16 << 10})
	rng := rand.New(rand.NewSource(9))
	views := make([]*tracedb.Merged, n)
	for s := range views {
		tbl, err := db.CreateTable(uint32(s+1), string(rune('a'+s)))
		if err != nil {
			t.Fatal(err)
		}
		var recs []core.Record
		for p := 0; p < packets; p++ {
			if rng.Intn(20) == 0 {
				continue // lost before this stage
			}
			recs = append(recs, core.Record{TPID: uint32(s + 1), TraceID: uint32(p + 1), Seq: uint64(p), TimeNs: uint64(p*100 + s*1000 + rng.Intn(50))})
			if rng.Intn(30) == 0 {
				recs = append(recs, recs[len(recs)-1]) // seen twice
			}
		}
		db.Insert(recs)
		views[s] = tracedb.Merge(tbl)
	}
	return views
}

// Decompose reads every stage once — an interior stage serves the hop
// before it and the hop after — and its segments are the n-1 independent
// pairwise joins.
func TestDecomposeScansEachStageOnce(t *testing.T) {
	const stages = 5
	views := stageViews(t, stages, 4000)
	scans := make([]int, stages)
	sources := make([]RecordSource, stages)
	for s := range views {
		sources[s] = SourceFunc(func(fn func(core.Record) bool) {
			scans[s]++
			views[s].ScanAligned(fn)
		})
	}
	segs := decompose(sources)
	for s, n := range scans {
		if n != 1 {
			t.Errorf("stage %d scanned %d times, want once", s, n)
		}
	}
	viaViews, err := Decompose(views)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != stages-1 || len(viaViews) != stages-1 {
		t.Fatalf("%d / %d segments, want %d", len(segs), len(viaViews), stages-1)
	}
	for i := range segs {
		want := Latencies(views[i], views[i+1])
		if len(want) == 0 {
			t.Fatalf("hop %d: nothing joined", i)
		}
		if !slices.Equal(segs[i], want) || !slices.Equal(viaViews[i].PerPacket, want) {
			t.Errorf("hop %d differs from its independent join", i)
		}
		if viaViews[i].From != views[i].Name() || viaViews[i].To != views[i+1].Name() {
			t.Errorf("hop %d named %s->%s", i, viaViews[i].From, viaViews[i].To)
		}
	}
}

// scrambleID is a bijective scramble of a packet number into a non-zero
// trace ID.
func scrambleID(pkt uint32) uint32 {
	id := (pkt + 1) ^ 0x9e3779b9
	id ^= id >> 16
	id *= 0x85ebca6b
	id ^= id >> 13
	id *= 0xc2b2ae35
	id ^= id >> 16
	return id
}

// benchSource is one side of the pipeline benchmark's join without the
// store under it: n packets in rounds of 1024 spread over 4 CPUs, drained
// one per-CPU ring after the other, so Seq runs in four interleaved
// ascending strands per round; IDs are a bijective scramble of the packet
// number.
func benchSource(n int, hopNs uint64) SourceFunc {
	const round, cpus = 1024, 4
	return func(fn func(core.Record) bool) {
		for base := 0; base < n; base += round {
			for cpu := 0; cpu < cpus; cpu++ {
				for i := cpu; i < round && base+i < n; i += cpus {
					pkt := uint32(base + i)
					if !fn(core.Record{TraceID: scrambleID(pkt), Seq: uint64(pkt), TimeNs: uint64(pkt)*5000 + hopNs, CPU: uint32(cpu)}) {
						return
					}
				}
			}
		}
	}
}

// benchTables builds two tables a path of packets crossed, in
// BenchmarkTableScan's shape: 256-record batches until each side holds
// ~300 spilled default-size extents (~1.6 M records) and a head. Packet
// i has the same ID at both and reaches b 40 µs after a.
func benchTables(b *testing.B) (db *tracedb.DB, a, z *tracedb.Table, packets int) {
	db = tracedb.NewWith(tracedb.Config{DataDir: b.TempDir()})
	a, _ = db.CreateTable(1, "a")
	z, _ = db.CreateTable(2, "b")
	rng := rand.New(rand.NewSource(1))
	batch := make([]core.Record, 256)
	tns := uint64(1_000_000)
	for a.Extents() < 300 || a.Storage().HeadRecords < 2560 {
		for i := range batch {
			tns += uint64(800 + rng.Intn(400))
			batch[i] = core.Record{
				TraceID: scrambleID(uint32(packets)), TPID: 1, TimeNs: tns,
				Len: uint32(64 + rng.Intn(1400)), CPU: uint32(rng.Intn(2)), Seq: uint64(packets),
				SrcIP: 0x0a000001, DstIP: 0x0a000101, SrcPort: uint16(40000 + rng.Intn(4)), DstPort: 9000, Proto: 17,
			}
			packets++
		}
		db.Insert(batch)
		for i := range batch {
			batch[i].TPID, batch[i].TimeNs = 2, batch[i].TimeNs+40_000
		}
		db.Insert(batch)
	}
	if st := z.Storage(); st.SpilledExtents < 300 {
		b.Fatalf("fixture: %d spilled extents, want 300", st.SpilledExtents)
	}
	return db, a, z, packets
}

// BenchmarkLatenciesOf is the join layer's number on its own, every packet
// on both sides. "partitioned" joins 1 M generated records a side, and the
// two-pass oracle runs beside it for the ratio; "tables" joins two spilled
// tables of ~1.6 M records each, as the pipeline benchmark's query does,
// and reports the scans that scatter both sides (scan-ms) apart from the
// joining of the partition pairs and the sort (join-ms). The in-memory
// source hides what the scatter costs beside a decode, so the fan-out is
// chosen on "tables".
func BenchmarkLatenciesOf(b *testing.B) {
	const n = 1 << 20
	for _, bc := range []struct {
		name string
		join func(a, b RecordSource) []LatencySample
	}{{"partitioned", LatenciesOf}, {"two-pass-oracle", twoPassLatencies}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := bc.join(benchSource(n, 0), benchSource(n, 40_000)); len(got) != n || got[n-1].Seq != n-1 || got[0].Ns != 40_000 {
					b.Fatalf("%d samples, last %+v", len(got), got[len(got)-1])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(2*n), "ns/rec")
		})
	}
	b.Run("tables", func(b *testing.B) {
		db, ta, tb, packets := benchTables(b)
		defer db.Close()
		b.ReportAllocs()
		b.ResetTimer()
		var scan, join time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			sa, sb := partition(SourceFunc(ta.ScanAligned)), partition(SourceFunc(tb.ScanAligned))
			t1 := time.Now()
			got := newJoiner(runtime.GOMAXPROCS(0)).join(sa, sb)
			scan, join = scan+t1.Sub(t0), join+time.Since(t1)
			if len(got) != packets || got[packets-1].Seq != uint64(packets-1) || got[0].Ns != 40_000 {
				b.Fatalf("%d samples of %d, last %+v", len(got), packets, got[len(got)-1])
			}
		}
		b.ReportMetric(float64(scan.Milliseconds())/float64(b.N), "scan-ms")
		b.ReportMetric(float64(join.Milliseconds())/float64(b.N), "join-ms")
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*packets), "ns/rec")
	})
}
