package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"

	"vnettracer/internal/core"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

const (
	// scanSampleEvery is how many scanned records pass between yardstick
	// readings inside a query.
	scanSampleEvery = 1 << 15
	// lookupBatch is how many point questions make one lookup sample, with
	// a yardstick reading before each batch. A lookup decodes one extent,
	// plus one for every Bloom filter that wrongly admits its ID, so single
	// lookups fall into clusters a whole decode apart, and their median
	// jumps between clusters from seed to seed; the mean of a batch does
	// not.
	lookupBatch = 8
	// querySampleEvery is how many passes of a short question set share
	// one pair of yardstick readings; a long set reads it inside its
	// scans as well.
	querySampleEvery = 25
	// topFlows is the K of the aggregate question set's top-K flows.
	topFlows = 10
)

// metric is one reported number. A metric measured against the yardstick
// is stated at nominal machine speed; Raw is what the clock read.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Raw     float64 `json:"raw,omitempty"`
	Samples int     `json:"samples,omitempty"`
	// Tail is the highest percentile the samples support, where the
	// metric is a latency.
	TailPct float64 `json:"tail_pct,omitempty"`
	Tail    float64 `json:"tail,omitempty"`
}

// counts are the run's count-valued facts: functions of the workload
// alone, identical under every seed.
type counts struct {
	Firings     uint64 `json:"firings"`
	Rounds      int    `json:"rounds"`
	Batches     uint64 `json:"batches"`
	AggFrames   uint64 `json:"agg_frames"`
	Extents     int    `json:"extents"`
	Checkpoints uint64 `json:"checkpoints"`
	WALEntries  uint64 `json:"wal_entries"`
	Replayed    uint64 `json:"replayed_entries"`
	Adopted     int    `json:"adopted_extents"`
}

// result is everything one run of one workload reports.
type result struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	Traced     bool              `json:"traced"`
	GoVersion  string            `json:"go_version"`
	NumCPU     int               `json:"nproc"`
	GoMaxProcs int               `json:"gomaxprocs"`
	StateDir   string            `json:"state_dir"`
	StateDirFS string            `json:"state_dir_fs"`
	WallS      float64           `json:"wall_s"`
	Slowness   float64           `json:"machine_slowness"` // during ingest; 1 = nominal
	Counts     counts            `json:"counts"`
	Slices     []slice           `json:"ingest_slices"`
	Cycles     []cycle           `json:"serve_cycles"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
	Attempted  int               `json:"ops_attempted"`
	Failed     int               `json:"ops_failed"`
	Failures   []string          `json:"failures,omitempty"`
}

// slice is what one of the ingest phase's equal-count slices measured.
// Times are as the clock read them; slow is the machine's slowness over
// the slice.
type slice struct {
	Traced  bool          `json:"traced,omitempty"`
	Firings int           `json:"firings"`
	Fire    time.Duration `json:"fire_ns"` // Σ inside Probes.Fire
	Busy    time.Duration `json:"busy_ns"` // Σ fire start → ack
	CPU     time.Duration `json:"cpu_ns"`  // process CPU, less the harness's own
	Slow    float64       `json:"machine_slowness"`
	lagMs   []float64     // per round
}

// cycle is what one recover-and-serve cycle measured, as the clock read
// it, with the machine's slowness over the cycle.
type cycle struct {
	RecoverS float64 `json:"recover_s"`
	QueryMs  float64 `json:"query_ms"` // median pass
	LookupUs float64 `json:"lookup_us"`
	Slow     float64 `json:"machine_slowness"`
}

// run is the state of one workload run as it moves through its phases:
// setup, ingest, seal, crash, and recover-and-serve cycles.
type run struct {
	w    *workload
	seed uint64
	dir  string  // the state directory the pipeline ingests into
	tr   *tracer // nil on the timed run
	gen  *generator
	yard *yardstick
	p    *pipeline // nil after the crash
	last *store    // what the final recovery rebuilt; read-only once closed
	o    oracle
	res  *result

	// What the layer phase of a traced run reads.
	progs        []*script.Compiled // the attached programs, in site order
	lateMs       []float64
	checkpointMs []float64
	gcFrac       float64
	walBytes     uint64
	walSyncs     uint64

	ringDrops, spoolRetries, dupBatches, missingBatches uint64
}

// runWorkload runs w once under seed with its state below stateRoot, and
// returns what it measured. A traced run measures the per-layer metrics;
// its end-to-end figures carry the tracing overhead and are not reported.
func runWorkload(w *workload, seed uint64, stateRoot string, traced bool) (*result, error) {
	start := time.Now()
	r := &run{w: w, seed: seed, gen: newGenerator(w, seed), yard: newYardstick()}
	r.res = &result{
		Workload: w.name, Seed: seed, Traced: traced,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		StateDir: stateRoot, StateDirFS: fsType(stateRoot),
		EndToEnd: make(map[string]metric),
	}
	if traced {
		r.tr = newTracer()
		r.res.PerLayer = make(map[string]metric)
	}
	defer os.RemoveAll(stateRoot)

	if err := r.setupPhase(stateRoot); err != nil {
		return nil, err
	}
	if err := r.ingestPhase(); err != nil {
		r.p.close()
		return nil, err
	}
	r.sealPhase()
	before := r.snapshotAggregates()
	err := r.p.close() // the crash
	r.p = nil
	if err != nil {
		return nil, fmt.Errorf("crash: %w", err)
	}
	if err := r.servePhase(before); err != nil {
		return nil, err
	}
	r.res.EndToEnd["peak_rss_mb"] = metric{Value: peakRSSMiB(), Unit: "MiB", Samples: 1}
	if traced {
		if err := r.layerPhase(stateRoot); err != nil {
			return nil, err
		}
	}
	r.res.Attempted, r.res.Failed, r.res.Failures = r.o.attempted, r.o.failed, r.o.failures
	r.res.WallS = time.Since(start).Seconds()
	return r.res, nil
}

// setupPhase builds the pipeline from nothing w.setupCycles times; the
// set-up metric is the median build, and the last pipeline built is the
// one the run goes on to use. Every build starts as a new process would,
// with no memory to reuse: a build's largest cost is faulting in the
// write-ahead log's staging buffers, and whether the runtime happens to
// hand it pages it already owns would otherwise split the builds into a
// fast and a slow kind. Set-up is kernel work (page faults, files,
// sockets) that the yardstick does not follow, so it is reported as the
// clock read it.
func (r *run) setupPhase(stateRoot string) error {
	var secs []float64
	for i := 0; i < r.w.setupCycles; i++ {
		dir := filepath.Join(stateRoot, fmt.Sprintf("state-%d", i))
		last := i == r.w.setupCycles-1
		var tr *tracer
		if last {
			tr = r.tr
		}
		debug.FreeOSMemory()
		t0 := time.Now()
		p, err := setup(r.w, dir, tr)
		dt := time.Since(t0)
		if err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		secs = append(secs, dt.Seconds())
		if last {
			r.p, r.dir = p, dir
			break
		}
		if err := p.close(); err != nil {
			return fmt.Errorf("teardown: %w", err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	r.res.EndToEnd["setup_s"] = metric{Value: median(secs), Unit: "s", Samples: len(secs)}
	return nil
}

// round fires one prepared round and flushes it; it returns when the
// collector has acknowledged the batch, which for a synchronous
// collector means WAL-appended and queryable.
func (r *run) round(n int) (fire, busy time.Duration, err error) {
	tr := r.tr
	root := -1
	if tr != nil {
		root = tr.begin(spanRound, -1, uint64(n))
	}
	t0 := time.Now()
	idx := -1
	if tr != nil {
		idx = tr.begin(spanFire, root, uint64(n))
	}
	r.gen.fire(r.p.node.Probes)
	t1 := time.Now()
	if tr != nil {
		tr.end(idx, len(r.gen.ctxs))
		idx = tr.begin(spanFlush, root, uint64(n))
		tr.inflight.Store(int64(idx))
	}
	err = r.p.agent.Flush()
	t2 := time.Now()
	if tr != nil {
		tr.inflight.Store(-1)
		tr.end(idx, len(r.gen.ctxs))
		tr.end(root, len(r.gen.ctxs))
	}
	return t1.Sub(t0), t2.Sub(t0), err
}

func (r *run) ingestPhase() error {
	w, g, p := r.w, r.gen, r.p
	rounds := w.rounds()
	perRound := w.firingsPerRound()
	perSlice := rounds / ingestSlices

	checkpointAfter := make(map[int]bool)
	for _, pct := range w.checkpoints {
		checkpointAfter[rounds*pct/100] = true
	}

	// One warm-up round, outside every timed window: it pays the first
	// table creation, pool fills and connection warm-up. Its records are
	// real and stay in the store, so the oracle counts them.
	g.prepare(0)
	p.eng.Run(g.lastTimeNs)
	if _, _, err := r.round(0); err != nil {
		return fmt.Errorf("warm-up round: %w", err)
	}

	runtime.GC()
	r.yard.take()
	wire0 := p.ln.bytes.Load()
	mallocs0 := mallocs()
	gc0 := gcCPUSeconds()
	cpu0 := cpuTime()
	r.res.Slices = make([]slice, ingestSlices)
	var (
		cur       *slice
		sliceCPU0 time.Duration
		harness   time.Duration // this goroutine's own CPU inside the slice: generator, pacer spin
		sinceYard int
	)
	start := time.Now()
	for n := 1; n <= rounds; n++ {
		if (n-1)%perSlice == 0 {
			cur = &r.res.Slices[(n-1)/perSlice]
			if r.tr != nil {
				// Alternate traced and untraced slices, so the overhead
				// of tracing is a paired difference inside one run.
				cur.Traced = ((n-1)/perSlice)%2 == 0
				r.tr.on.Store(cur.Traced)
			}
			sliceCPU0, harness, sinceYard = cpuTime(), 0, 0
		}
		t0 := time.Now()
		g.prepare(n)
		p.eng.Run(g.lastTimeNs)
		harness += time.Since(t0)
		due := time.Now()
		if w.pacedRecPerS > 0 {
			// The idle time of an open loop goes to the yardstick: the
			// machine's speed is read several times per round, and the
			// CPU never sleeps, so every round starts from the same
			// state instead of whatever a wake-up finds.
			due = start.Add(time.Duration(dueNs(n-1, perRound, w.pacedRecPerS)))
			for time.Until(due) > pacerYardstickRoom {
				r.yard.sample()
			}
			harness += waitUntil(due)
			r.lateMs = append(r.lateMs, float64(time.Since(due))/1e6)
		}
		fire, busy, err := r.round(n)
		if err != nil {
			return fmt.Errorf("round %d: %w", n, err)
		}
		r.o.attempted++ // an acknowledged flush; nothing here may allocate inside the counted window
		// Lag runs from when the round's last packet was due — for a
		// closed loop, when it was fired — to the collector's ack.
		lag := busy - fire
		if w.pacedRecPerS > 0 {
			lag = time.Since(due)
		}
		cur.lagMs = append(cur.lagMs, float64(lag)/1e6)
		cur.Fire += fire
		cur.Busy += busy
		cur.Firings += perRound
		if checkpointAfter[n] {
			t0 := time.Now()
			err := p.dur.Checkpoint()
			r.checkpointMs = append(r.checkpointMs, float64(time.Since(t0))/1e6)
			r.o.check(err == nil, "checkpoint after round %d: %v", n, err)
		}
		if sinceYard++; w.pacedRecPerS == 0 && sinceYard == w.yardstickEvery {
			r.yard.sample()
			sinceYard = 0
		}
		if n%perSlice == 0 {
			if w.pacedRecPerS == 0 {
				r.yard.sample()
			}
			var spent time.Duration
			cur.Slow, spent = r.yard.take()
			cur.CPU = cpuTime() - sliceCPU0 - harness - spent
		}
	}
	wall := time.Since(start)
	allocs := mallocs() - mallocs0
	wire := p.ln.bytes.Load() - wire0
	if r.tr != nil {
		r.tr.on.Store(false)
	}
	if total := cpuTime() - cpu0; total > 0 {
		r.gcFrac = (gcCPUSeconds() - gc0) / total.Seconds()
	}

	timed := float64(rounds * perRound)
	perSliceMetric := func(unit string, raw func(s *slice) float64, nominal func(raw, slow float64) float64) metric {
		var vals, raws []float64
		for i := range r.res.Slices {
			s := &r.res.Slices[i]
			v := raw(s)
			raws = append(raws, v)
			vals = append(vals, nominal(v, s.Slow))
		}
		return metric{Value: median(vals), Raw: median(raws), Unit: unit, Samples: len(vals)}
	}
	slower := func(raw, slow float64) float64 { return raw / slow } // a duration at nominal speed
	faster := func(raw, slow float64) float64 { return raw * slow } // a rate at nominal speed

	e := r.res.EndToEnd
	if w.pacedRecPerS > 0 {
		// An open loop's rate is set by the pacer's clock, not by the
		// machine's speed: it reads the offered rate for as long as the
		// pipeline keeps up.
		e["ingest_rec_per_s"] = metric{Value: timed / wall.Seconds(), Unit: "rec/s", Samples: 1}
	} else {
		e["ingest_rec_per_s"] = perSliceMetric("rec/s", func(s *slice) float64 { return float64(s.Firings) / s.Busy.Seconds() }, faster)
	}
	e["probe_ns_per_pkt"] = perSliceMetric("ns", func(s *slice) float64 { return float64(s.Fire) / float64(s.Firings) }, slower)
	e["cpu_us_per_rec"] = perSliceMetric("us", func(s *slice) float64 { return float64(s.CPU) / 1e3 / float64(s.Firings) }, slower)
	lag := perSliceMetric("ms", func(s *slice) float64 { return median(s.lagMs) }, slower)
	var lags []float64
	var slow float64
	for i := range r.res.Slices {
		lags = append(lags, r.res.Slices[i].lagMs...)
		slow += r.res.Slices[i].Slow / ingestSlices
	}
	r.res.Slowness = slow
	lag.Samples = len(lags)
	lag.TailPct, lag.Tail = highPercentile(lags)
	lag.Tail /= slow
	e["lag_p50_ms"] = lag
	e["allocs_per_rec"] = metric{Value: float64(allocs) / timed, Unit: "count", Samples: 1}
	e["wire_bytes_per_rec"] = metric{Value: float64(wire) / timed, Unit: "B", Samples: 1}

	r.o.delivery(p, g)
	r.o.conservation(p.store, g)
	return nil
}

// sealPhase closes every head segment, checks the sealed store holds
// exactly what was fired, and takes the counts that describe the state
// the crash leaves behind.
func (r *run) sealPhase() {
	runtime.GC()
	r.p.db.SealAll()
	r.o.conservation(r.p.store, r.gen)
	r.o.digests(r.p.store, r.gen)

	ds := r.p.dur.Stats()
	batches, _, _ := r.p.col.Stats()
	r.res.Counts = counts{
		Firings:     r.gen.fired,
		Rounds:      r.w.rounds() + 1,
		Batches:     batches,
		AggFrames:   r.p.aggs.Totals().FramesMerged,
		Extents:     r.p.db.StorageTotals().Extents,
		Checkpoints: ds.Checkpoints,
		WALEntries:  ds.WALEntries,
	}
	r.walBytes, r.walSyncs = ds.WALBytes, ds.WALSyncs
	r.ringDrops = r.p.agent.RingStats().Drops
	r.spoolRetries = r.p.agent.SpoolStats().Retries
	r.dupBatches, _, r.missingBatches = r.p.col.DeliveryStats()
	for _, site := range r.w.sites {
		prog, _ := r.p.agent.Script(site.name)
		r.progs = append(r.progs, prog)
	}
}

func (r *run) snapshotAggregates() map[string]tracedb.ScriptAgg {
	out := make(map[string]tracedb.ScriptAgg)
	for _, name := range r.p.aggs.Scripts() {
		out[name], _ = r.p.aggs.Get(name)
	}
	return out
}

// servePhase is the run after the crash: serveCycles times over, it
// recovers the crashed state directory, seals what the replay left in
// head segments, and serves from the recovered store — the question set,
// then point questions — before closing it without a checkpoint. With no
// checkpoint cut in between, every cycle adopts the same extents, replays
// the same WAL tail and answers from the same state, so the cycles repeat
// one measurement of each of recovery, query and lookup, spread over the
// rest of the run instead of bunched into one moment of the machine's
// mood. The last cycle ends as a clean shutdown would, with a checkpoint,
// and measures what the state costs on disk.
func (r *run) servePhase(before map[string]tracedb.ScriptAgg) error {
	w := r.w
	var recoverS, recoverRaw, queryMs, queryRaw, lookUs, lookRaw []float64
	for c := 0; c < w.serveCycles; c++ {
		runtime.GC()
		t0 := time.Now()
		st, err := openStore(w.segmentBytes, r.dir)
		recovered := time.Since(t0).Seconds()
		if err != nil {
			return err
		}
		r.res.Counts.Replayed = st.rec.ReplayedEntries
		r.res.Counts.Adopted = st.rec.AdoptedExtents
		r.o.equal("corrupt extents", uint64(st.rec.CorruptExtents), 0)
		r.o.equal("torn WAL tails", uint64(st.rec.TornTails), 0)
		st.db.SealAll()
		r.o.conservation(st, r.gen)
		r.o.sameAggregates(before, st.aggs)

		var slows []float64 // every reading of the machine's slowness this cycle takes
		firstQuery := len(queryRaw)
		for done := 0; done < w.queryPasses; done += querySampleEvery {
			raw, slow := r.ask(st, min(querySampleEvery, w.queryPasses-done))
			slows = append(slows, slow)
			for _, ms := range raw {
				queryRaw = append(queryRaw, ms)
				queryMs = append(queryMs, ms/slow)
			}
		}

		firstLookup := len(lookRaw)
		raw, slow := r.lookupBlock(st, c*w.lookups, w.lookups)
		slows = append(slows, slow)
		for _, us := range raw {
			lookRaw = append(lookRaw, us)
			lookUs = append(lookUs, us/slow)
		}

		// A recovery is one long call with no place inside it to read the
		// yardstick, and readings on either side of it are too few to
		// trust. What moves it from run to run is the machine's mood over
		// minutes, not moments, so it is measured against all the
		// readings of the cycle it opens.
		cycleSlow := mean(slows)
		recoverRaw = append(recoverRaw, recovered)
		recoverS = append(recoverS, recovered/cycleSlow)
		r.res.Cycles = append(r.res.Cycles, cycle{
			RecoverS: recovered, QueryMs: median(queryRaw[firstQuery:]), LookupUs: median(lookRaw[firstLookup:]), Slow: cycleSlow,
		})

		last := c == w.serveCycles-1
		if last {
			err := st.dur.Checkpoint()
			r.o.check(err == nil, "final checkpoint: %v", err)
		}
		if err := st.dur.Close(); err != nil {
			return fmt.Errorf("close recovered store: %w", err)
		}
		if last {
			r.last = st
			n, err := dirBytes(r.dir)
			if err != nil {
				return err
			}
			r.res.EndToEnd["stored_bytes_per_rec"] = metric{Value: float64(n) / float64(r.gen.fired), Unit: "B", Samples: 1}
		}
	}
	e := r.res.EndToEnd
	e["recover_s"] = metric{Value: median(recoverS), Raw: median(recoverRaw), Unit: "s", Samples: len(recoverS)}
	e["query_ms"] = metric{Value: median(queryMs), Raw: median(queryRaw), Unit: "ms", Samples: len(queryMs)}
	look := metric{Value: median(lookUs), Raw: median(lookRaw), Unit: "us", Samples: len(lookUs)}
	look.TailPct, look.Tail = highPercentile(lookUs)
	e["lookup_us"] = look
	return nil
}

// stopwatch accumulates the time between start and stop calls.
type stopwatch struct {
	total time.Duration
	t0    time.Time
}

func (s *stopwatch) start() { s.t0 = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.t0) }

// ask puts the workload's question set to st passes times and returns
// each pass's time in milliseconds as the clock read it, and the
// machine's slowness while they ran. A pass that takes seconds is
// measured against yardstick readings taken inside its scans; passes
// that take microseconds share the readings on either side of them.
func (r *run) ask(st *store, passes int) (rawMs []float64, slow float64) {
	r.yard.take()
	r.yard.sample()
	for i := 0; i < passes; i++ {
		var sw stopwatch
		sw.start()
		if r.w.aggregates {
			r.askAggregates(st)
		} else {
			r.askRecords(st, &sw)
		}
		sw.stop()
		rawMs = append(rawMs, float64(sw.total)/1e6)
	}
	r.yard.sample()
	slow, _ = r.yard.take()
	return rawMs, slow
}

// askAggregates reads each site's merged aggregates and reduces them the
// way a dashboard would: the latency histogram's summary and the top
// flows.
func (r *run) askAggregates(st *store) {
	w, g := r.w, r.gen
	for _, site := range w.sites {
		sa, ok := st.aggs.Get(site.name)
		r.o.check(ok, "aggregates of %s missing", site.name)
		sum := metrics.HistSummarize(sa.Hist)
		r.o.equal(site.name+" histogram count", sum.Count, g.fired/uint64(len(w.sites)))
		top := metrics.NewTopKFlows(topFlows)
		for _, f := range sa.Flows {
			top.Add(metrics.FlowKey{SrcIP: f.SrcIP, DstIP: f.DstIP, SrcPort: f.SrcPort, DstPort: f.DstPort, Proto: f.Proto}, f.Packets, f.Bytes)
		}
		r.o.equal(site.name+" top flows", uint64(len(top.Top())), uint64(min(topFlows, w.flows)))
	}
}

// source adapts site s's table into a record source for the analyses.
// Every scanSampleEvery records it stops the watch, reads the yardstick
// and starts the watch again; and it digests what the scan saw, so each
// completed scan of a timed query is also the oracle's check that the
// table holds exactly the records fired.
func (r *run) source(st *store, s int, sw *stopwatch) metrics.SourceFunc {
	t, _ := st.db.Table(r.w.sites[s].tpid)
	return func(fn func(core.Record) bool) {
		var d tableDigest
		complete := true
		t.ScanAligned(func(rec core.Record) bool {
			d.add(rec.TraceID, rec.TimeNs)
			if d.Count%scanSampleEvery == 0 {
				sw.stop()
				r.yard.sample()
				sw.start()
			}
			if !fn(rec) {
				complete = false
			}
			return complete
		})
		if complete {
			r.o.digest(r.gen, s, d)
		}
	}
}

// askRecords joins the first tracepoint's table to the last one's for
// per-packet latency; a workload with fullQueries also decomposes the
// latency hop by hop and computes the receive side's throughput, overall
// and per flow.
func (r *run) askRecords(st *store, sw *stopwatch) {
	w, g := r.w, r.gen
	packets := g.fired / uint64(len(w.sites))
	n := len(w.sites)
	var endToEnd int64
	for _, v := range g.latencySum {
		endToEnd += v
	}
	r.checkJoin(metrics.LatenciesOf(r.source(st, 0, sw), r.source(st, n-1, sw)), packets, endToEnd)
	if !w.fullQueries {
		return
	}
	for s := 1; s < n; s++ {
		r.checkJoin(metrics.LatenciesOf(r.source(st, s-1, sw), r.source(st, s, sw)), packets, g.latencySum[s])
	}
	bps, err := metrics.ThroughputOf(r.source(st, n-1, sw))
	r.o.check(err == nil && bps > 0, "throughput: %v", err)
	flows := metrics.PerFlowThroughputOf(r.source(st, n-1, sw))
	r.o.equal("flows in per-flow throughput", uint64(len(flows)), uint64(w.flows))
}

func (r *run) checkJoin(samples []metrics.LatencySample, packets uint64, wantNs int64) {
	var got int64
	for _, s := range samples {
		got += s.Ns
	}
	r.o.equal("join samples", uint64(len(samples)), packets)
	r.o.check(got == wantNs, "join latency sum = %d, want %d", got, wantNs)
}

// lookupBlock asks n point questions of st, numbered from first, in
// batches of lookupBatch, and returns each batch's mean time per lookup in
// microseconds as the clock read it, and the machine's slowness while
// they ran.
func (r *run) lookupBlock(st *store, first, n int) (rawUs []float64, slow float64) {
	r.yard.take()
	for i := 0; i < n; i += lookupBatch {
		r.yard.sample()
		batch := min(lookupBatch, n-i)
		var dt time.Duration
		for k := 0; k < batch; k++ {
			dt += r.lookup(st, first+i+k)
		}
		rawUs = append(rawUs, float64(dt)/1e3/float64(batch))
	}
	slow, _ = r.yard.take()
	return rawUs, slow
}

// lookup asks one point question, chosen by the seed, and checks the
// answer is exactly the record fired.
func (r *run) lookup(st *store, i int) time.Duration {
	w, g := r.w, r.gen
	s := i % len(w.sites)
	if w.aggregates {
		t0 := time.Now()
		sa, ok := st.aggs.Get(w.sites[s].name)
		dt := time.Since(t0)
		r.o.check(ok && len(sa.Flows) == w.flows, "lookup of %s: %d flows", w.sites[s].name, len(sa.Flows))
		return dt
	}
	pkt := splitmix64(r.seed^uint64(i)<<12^0x100c) % (g.fired / uint64(len(w.sites)))
	t, _ := st.db.Table(w.sites[s].tpid)
	want := g.record(pkt, s)
	t0 := time.Now()
	got := t.ByTraceID(want.TraceID)
	dt := time.Since(t0)
	r.o.check(len(got) == 1 && got[0] == want, "lookup of packet %d at %s: got %v, want %v", pkt, w.sites[s].name, got, want)
	return dt
}
