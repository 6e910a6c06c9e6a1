package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"vnettracer/internal/script"
)

// tiny returns a records workload small enough to run in a fraction of a
// second: 40 slices of one 32-record round each.
func tiny() *workload {
	return &workload{
		name:  "tiny",
		sites: []siteSpec{txSite, rxSite}, actions: []script.Action{script.ActionRecord},
		flows: 8, pktsPerRound: 16, firings: 40 * 32 * 4, segmentBytes: 4 << 10, yardstickEvery: 2,
		checkpoints: []int{50},
		setupCycles: 2, serveCycles: 2, queryPasses: 1, lookups: 20, fullQueries: true,
	}
}

func mustRun(t *testing.T, w *workload, seed uint64, traced bool) *result {
	t.Helper()
	res, err := runWorkload(w, seed, filepath.Join(t.TempDir(), "state"), traced)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", res.Failed, res.Attempted, res.Failures)
	}
	return res
}

func TestSameSeedRepeatsCountsAndBytes(t *testing.T) {
	a := mustRun(t, tiny(), 7, false)
	b := mustRun(t, tiny(), 7, false)
	if a.Counts != b.Counts {
		t.Errorf("counts differ under one seed:\n%+v\n%+v", a.Counts, b.Counts)
	}
	for _, name := range []string{"wire_bytes_per_rec", "stored_bytes_per_rec"} {
		if a.EndToEnd[name].Value != b.EndToEnd[name].Value || a.EndToEnd[name].Value == 0 {
			t.Errorf("%s: %v then %v under one seed", name, a.EndToEnd[name].Value, b.EndToEnd[name].Value)
		}
	}
	for _, m := range endToEndSpecs {
		got, ok := a.EndToEnd[m.name]
		if !ok || got.Value <= 0 || got.Unit != m.unit {
			t.Errorf("end-to-end metric %s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
	if len(a.EndToEnd) != len(endToEndSpecs) {
		t.Errorf("%d end-to-end metrics reported, %d declared", len(a.EndToEnd), len(endToEndSpecs))
	}
}

func TestOtherSeedPermutesOrderNotCounts(t *testing.T) {
	a := mustRun(t, tiny(), 1, false)
	b := mustRun(t, tiny(), 2, false)
	if a.Counts != b.Counts {
		t.Errorf("counts depend on the seed:\n%+v\n%+v", a.Counts, b.Counts)
	}
	ga, gb := newGenerator(tiny(), 1), newGenerator(tiny(), 2)
	same := 0
	seen := make(map[uint32]bool)
	for pkt := uint64(0); pkt < 1000; pkt++ {
		id := ga.traceID(pkt)
		if id == 0 || seen[id] {
			t.Fatalf("trace ID %d of packet %d is zero or repeats", id, pkt)
		}
		seen[id] = true
		if id == gb.traceID(pkt) {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d of 1000 packets keep their trace ID across seeds", same)
	}
	if reflect.DeepEqual(ga.slotCPU, gb.slotCPU) && reflect.DeepEqual(ga.slotFlow, gb.slotFlow) {
		t.Error("seed does not permute the slot assignment")
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range []*workload{tiny(), tinyAggregates()} {
		res := mustRun(t, w, 3, true)
		for _, m := range perLayerSpecs {
			got, ok := res.PerLayer[m.name]
			if !ok || got.Unit != m.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: per-layer metric %s = %+v, want a finite value in %s", w.name, m.name, got, m.unit)
			}
		}
		if len(res.PerLayer) != len(perLayerSpecs) {
			t.Errorf("%s: %d per-layer metrics reported, %d declared", w.name, len(res.PerLayer), len(perLayerSpecs))
		}
	}
}

func tinyAggregates() *workload {
	w := tiny()
	w.name = "tiny-agg"
	w.actions = []script.Action{script.ActionCount, script.ActionCPUHist, script.ActionHist, script.ActionFlowCount}
	w.aggregates = true
	return w
}

func TestAggregatesWorkloadConserves(t *testing.T) {
	res := mustRun(t, tinyAggregates(), 5, false)
	if res.Counts.AggFrames == 0 || res.Counts.Extents != 0 {
		t.Errorf("aggregating workload shipped %d frames and sealed %d extents", res.Counts.AggFrames, res.Counts.Extents)
	}
}

func TestPacedWorkloadKeepsItsRate(t *testing.T) {
	w := tiny()
	w.pacedRecPerS = 10_000
	start := time.Now()
	res := mustRun(t, w, 5, false)
	got := res.EndToEnd["ingest_rec_per_s"].Value
	if got < 9_000 || got > 10_100 {
		t.Errorf("paced at 10000 rec/s, measured %.0f (run took %v)", got, time.Since(start))
	}
}

func TestOracleCatchesDroppedBatch(t *testing.T) {
	w := tiny()
	p, err := setup(w, filepath.Join(t.TempDir(), "state"), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.close()
	g := newGenerator(w, 1)
	for n := 0; n < 4; n++ {
		g.prepare(n)
		g.fire(p.node.Probes)
		if n == 2 {
			// The injected fault: one round's records vanish from the
			// rings before the agent drains them.
			p.agent.Machine().Ring.Drain()
		}
		if err := p.agent.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	var o oracle
	o.delivery(p, g)
	o.conservation(p.store, g)
	o.digests(p.store, g)
	if o.failed == 0 {
		t.Fatal("oracle passed a run that lost a batch")
	}
	t.Logf("oracle reported %d failures, first: %s", o.failed, o.failures[0])
}

func TestDueTimeArithmetic(t *testing.T) {
	// 256 records per round at 200k rec/s: a round every 1.28 ms, exactly,
	// however many rounds have passed.
	for _, r := range []int{0, 1, 2, 1000, 1_000_000} {
		if got, want := dueNs(r, 256, 200_000), int64(r)*1_280_000; got != want {
			t.Errorf("round %d due at %d ns, want %d", r, got, want)
		}
	}
	// A rate that does not divide evenly must not drift: round r is due
	// at floor(r × 300 × 1e9 / 7000), not at r × floor(...).
	if got, want := dueNs(7, 300, 7000), int64(300_000_000); got != want {
		t.Errorf("round 7 due at %d ns, want %d", got, want)
	}
	if spun := waitUntil(time.Now().Add(-time.Millisecond)); spun != 0 {
		t.Errorf("a due time in the past spun for %v", spun)
	}
	due := time.Now().Add(2 * time.Millisecond)
	waitUntil(due)
	if late := time.Since(due); late < 0 || late > 5*time.Millisecond {
		t.Errorf("woke %v after the due time", late)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{Name: "round", StartNs: 0, EndNs: 100, Parent: -1},
		{Name: "kernel.fire", StartNs: 5, EndNs: 35, Parent: 0},
		{Name: "agent.flush", StartNs: 35, EndNs: 95, Parent: 0},
		{Name: "tcp.roundtrip", StartNs: 40, EndNs: 90, Parent: 2},
		{Name: "collector.handle", StartNs: 50, EndNs: 70, Parent: 3},
	}
	want := []int64{10, 30, 10, 30, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	totals := layerTotals(spans)
	if totals["tcp.roundtrip"].SelfNs != 30 || totals["round"].Spans != 1 {
		t.Errorf("layer totals %+v", totals)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
	q1, q3 = quartiles([]float64{3, 1, 4, 1, 5})
	if q1 != 1 || q3 != 4.5 {
		t.Errorf("quartiles of 3,1,4,1,5 = %v, %v, want 1, 4.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

func TestHighPercentileNeedsTenSamplesBeyond(t *testing.T) {
	vals := make([]float64, 200)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	// 200 samples: 5 % of them is 10 beyond p95, 1 % is only 2 beyond p99.
	if p, v := highPercentile(vals); p != 95 || v != 190 {
		t.Errorf("200 samples: p%v = %v, want p95 = 190", p, v)
	}
	if p, _ := highPercentile(vals[:15]); p != 50 {
		t.Errorf("15 samples support p%v, want p50", p)
	}
	if p, _ := highPercentile(make([]float64, 100_000)); p != 99.99 {
		t.Errorf("100000 samples support p%v, want p99.99", p)
	}
}

func TestWorkloadsScaleByWholeSlices(t *testing.T) {
	for _, w := range workloads {
		for _, seconds := range []int{1, 7, referenceSeconds, 60} {
			s := w.scaled(seconds)
			if s.rounds()%ingestSlices != 0 || s.rounds() == 0 {
				t.Errorf("%s at %d s: %d rounds is not whole slices", w.name, seconds, s.rounds())
			}
		}
		if got := w.scaled(referenceSeconds).firings; got != w.firings {
			t.Errorf("%s: %d firings at the reference budget, declared %d", w.name, got, w.firings)
		}
		if w.pktsPerRound%(w.flows) != 0 && w.flows%w.pktsPerRound != 0 {
			t.Errorf("%s: %d packets per round do not balance over %d flows", w.name, w.pktsPerRound, w.flows)
		}
	}
}

// TestBenchmarkJSONMatchesTheCode keeps the declaration the driver reads
// and the tables the code reports from saying the same thing.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type declared struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var decl struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []declared `json:"workloads"`
		EndToEnd   []declared `json:"end_to_end"`
		PerLayer   []declared `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != referenceSeconds {
		t.Errorf("run_seconds %d, the workloads are sized for %d", decl.RunSeconds, referenceSeconds)
	}
	if !reflect.DeepEqual(decl.Paths, []string{"bench"}) {
		t.Errorf("paths %v", decl.Paths)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d in the code", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.name || d.Why != w.why || len(d.Why) > 200 {
			t.Errorf("workload %d: declared %q (%d chars of why), code has %q", i, d.Name, len(d.Why), w.name)
		}
	}
	check := func(kind string, got []declared, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics declared, %d in the code", len(got), kind, len(want))
		}
		for i, m := range want {
			d := got[i]
			if d.Name != m.name || d.Unit != m.unit || d.Better != m.better {
				t.Errorf("%s metric %d: declared %+v, code has %+v", kind, i, d, m)
			}
			if bounded && (d.Bound == nil || *d.Bound != m.bound) {
				t.Errorf("%s metric %s: declared bound %v, code has %v", kind, m.name, d.Bound, m.bound)
			}
			if !bounded && d.Bound != nil {
				t.Errorf("%s metric %s declares a bound", kind, m.name)
			}
		}
	}
	check("end-to-end", decl.EndToEnd, endToEndSpecs, true)
	check("per-layer", decl.PerLayer, perLayerSpecs, false)
}
