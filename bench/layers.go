package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

// perLayerSpecs declares the per-layer metrics of a traced run, as
// BENCHMARK.json lists them: name, unit, better direction. They carry no
// bound. Each moves an end-to-end metric on some workload; README.md has
// the table.
var perLayerSpecs = []metricSpec{
	{name: "kernel.fire_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "ebpf.run_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "ebpf.run_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "core.emit_ns_per_rec", unit: "ns", better: "lower"},
	{name: "core.ring_drops", unit: "count", better: "lower"},
	{name: "script.compile_us", unit: "us", better: "lower"},
	{name: "core.drain_ns_per_rec", unit: "ns", better: "lower"},
	{name: "agent.flush_self_ns_per_rec", unit: "ns", better: "lower"},
	{name: "agent.flush_allocs_per_rec", unit: "count", better: "lower"},
	{name: "agent.spool_retries", unit: "count", better: "lower"},
	{name: "wire.encode_ns_per_rec", unit: "ns", better: "lower"},
	{name: "wire.decode_ns_per_rec", unit: "ns", better: "lower"},
	{name: "wire.decode_allocs_per_batch", unit: "count", better: "lower"},
	{name: "wire_agg.encode_us_per_frame", unit: "us", better: "lower"},
	{name: "wire_agg.decode_us_per_frame", unit: "us", better: "lower"},
	{name: "tcp.roundtrip_self_us_per_batch", unit: "us", better: "lower"},
	{name: "collector.handle_ns_per_rec", unit: "ns", better: "lower"},
	{name: "collector.handle_allocs_per_batch", unit: "count", better: "lower"},
	{name: "collector.dup_batches", unit: "count", better: "lower"},
	{name: "collector.missing_batches", unit: "count", better: "lower"},
	{name: "tracedb.admit_insert_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.wal_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.wal_bytes_per_rec", unit: "B", better: "lower"},
	{name: "tracedb.wal_syncs", unit: "count", better: "lower"},
	{name: "tracedb.seal_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.checkpoint_ms", unit: "ms", better: "lower"},
	{name: "aggstore.admit_us_per_frame", unit: "us", better: "lower"},
	{name: "tracedb.scan_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.scan_allocs_per_scan", unit: "count", better: "lower"},
	{name: "metrics.join_ns_per_rec", unit: "ns", better: "lower"},
	{name: "metrics.join_allocs_per_rec", unit: "count", better: "lower"},
	{name: "tracedb.lookup_sealed_us", unit: "us", better: "lower"},
	{name: "tracedb.recover_adopt_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.recover_replay_ns_per_rec", unit: "ns", better: "lower"},
	{name: "tracedb.recover_allocs_per_rec", unit: "count", better: "lower"},
	{name: "pipeline.lag_tail_ms", unit: "ms", better: "lower"},
	{name: "pipeline.gen_late_tail_ms", unit: "ms", better: "lower"},
	{name: "pipeline.gc_cpu_frac", unit: "ratio", better: "lower"},
	{name: "pipeline.machine_slowness", unit: "ratio", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.coverage", unit: "ratio", better: "higher"},
}

// bigSegment is the segment size of stage replay's stores: large enough
// that admission never seals, so sealing is timed as a stage of its own.
const bigSegment = 1 << 30

// stageRepeats is how many times stage replay times each layer; the
// layer's figure is the median.
const stageRepeats = 3

// discardEnv is the helper surface of a probe run on its own: time and
// CPU answer constants and emitted records go nowhere, so what is timed
// is the program and its maps.
type discardEnv struct{}

func (discardEnv) KtimeNs() uint64             { return 1 << 40 }
func (discardEnv) SMPProcessorID() uint32      { return 0 }
func (discardEnv) PrandomU32() uint32          { return 4 }
func (discardEnv) PerfEventOutput([]byte) bool { return true }
func (discardEnv) TracePrintk(string)          {}

// discardSink acknowledges every batch and keeps nothing.
type discardSink struct{}

func (discardSink) HandleBatch(control.RecordBatch) error { return nil }

// emitRaw emits a batch's records into the rings, spread over the CPUs.
func emitRaw(ring *core.PerCPURing, raw []byte) {
	for off := 0; off+core.RecordSize <= len(raw); off += core.RecordSize {
		ring.Emit(uint32(off/core.RecordSize)%simCPUs, raw[off:off+core.RecordSize])
	}
}

// stage times fn, which does units of work, stageRepeats times, each
// against a yardstick reading, and returns the median cost per unit at
// nominal machine speed and the heap allocations per unit. prep, when
// not nil, rebuilds fn's input before each repeat, outside the clock.
func (r *run) stage(units int, prep, fn func()) (nsPerUnit, allocsPerUnit float64) {
	return r.stageN(stageRepeats, units, prep, fn)
}

func (r *run) stageN(repeats, units int, prep, fn func()) (nsPerUnit, allocsPerUnit float64) {
	if units == 0 {
		return 0, 0
	}
	var ns, allocs []float64
	for i := 0; i < repeats; i++ {
		if prep != nil {
			prep()
		}
		r.yard.take()
		r.yard.sample()
		m0 := mallocs()
		t0 := time.Now()
		fn()
		dt := time.Since(t0)
		m1 := mallocs()
		r.yard.sample()
		slow, _ := r.yard.take()
		ns = append(ns, float64(dt)/slow/float64(units))
		allocs = append(allocs, float64(m1-m0)/float64(units))
	}
	return median(ns), median(allocs)
}

func (r *run) layer(name string, value float64, unit string) {
	r.res.PerLayer[name] = metric{Value: value, Unit: unit, Samples: 1}
}

// layerPhase fills in the per-layer metrics of a traced run: self times
// from the spans, counters from the product's own statistics, and stage
// replay of the captured batches through each layer's entry point alone.
func (r *run) layerPhase(stateRoot string) error {
	tr := r.tr
	if err := tr.writeJSONL(filepath.Join(filepath.Dir(stateRoot), "trace-"+r.w.name+".jsonl")); err != nil {
		return err
	}

	// Spans cover the traced slices only; the untraced slices between
	// them are the same work without the tracer, so their difference is
	// the tracing overhead, paired inside one run.
	var tracedFirings, tracedSlow float64
	var on, off []float64
	for i := range r.res.Slices {
		s := &r.res.Slices[i]
		perFiring := float64(s.Busy) / s.Slow / float64(s.Firings)
		if s.Traced {
			tracedFirings += float64(s.Firings)
			tracedSlow += s.Slow * float64(s.Firings)
			on = append(on, perFiring)
		} else {
			off = append(off, perFiring)
		}
	}
	tracedSlow /= tracedFirings
	totals := layerTotals(tr.spans)
	perFiring := func(name string) float64 {
		return float64(totals[name].SelfNs) / tracedSlow / tracedFirings
	}
	r.layer("kernel.fire_ns_per_pkt", perFiring(spanFire), "ns")
	r.layer("agent.flush_self_ns_per_rec", perFiring(spanFlush), "ns")
	r.layer("collector.handle_ns_per_rec", perFiring(spanHandle), "ns")
	tripUs := 0.0
	if n := totals[spanRoundtrip].Spans; n > 0 {
		tripUs = float64(totals[spanRoundtrip].SelfNs) / tracedSlow / float64(n) / 1e3
	}
	r.layer("tcp.roundtrip_self_us_per_batch", tripUs, "us")
	r.layer("trace.overhead_pct", (median(on)/median(off)-1)*100, "%")

	// Counters, from the product's own statistics.
	fired := float64(r.gen.fired)
	var lags []float64
	for i := range r.res.Slices {
		lags = append(lags, r.res.Slices[i].lagMs...)
	}
	r.layer("core.ring_drops", float64(r.ringDrops), "count")
	r.layer("agent.spool_retries", float64(r.spoolRetries), "count")
	r.layer("collector.dup_batches", float64(r.dupBatches), "count")
	r.layer("collector.missing_batches", float64(r.missingBatches), "count")
	r.layer("tracedb.wal_bytes_per_rec", float64(r.walBytes)/fired, "B")
	r.layer("tracedb.wal_syncs", float64(r.walSyncs), "count")
	r.layer("tracedb.checkpoint_ms", median(r.checkpointMs), "ms")
	_, lagTail := highPercentile(lags)
	r.layer("pipeline.lag_tail_ms", lagTail/r.res.Slowness, "ms")
	_, lateTail := highPercentile(r.lateMs)
	r.layer("pipeline.gen_late_tail_ms", lateTail, "ms")
	r.layer("pipeline.gc_cpu_frac", r.gcFrac, "ratio")
	r.layer("pipeline.machine_slowness", r.res.Slowness, "ratio")

	replay, err := r.stageReplay(stateRoot)
	if err != nil {
		return err
	}

	// Coverage: what the layers add up to — the probe and the transport
	// from their spans, the stages between them from replay, each measured
	// alone — against what a firing costs end to end, fire to ack. Far
	// from 1, time is unexplained.
	explained := perFiring(spanFire) + replay + perFiring(spanRoundtrip)
	r.layer("trace.coverage", explained/median(on), "ratio")
	return nil
}

// stageReplay pushes the captured batches through each layer alone and
// records its cost; it returns the per-firing sum of the stages that lie
// between the probe and the acknowledged, sealed record or merged frame
// (the part of the path the spans cannot split).
func (r *run) stageReplay(stateRoot string) (pathNs float64, err error) {
	w, tr := r.w, r.tr
	batches := tr.captured
	records := tr.capturedRec
	dir := filepath.Join(stateRoot, "replay")

	// eBPF program alone: every prepared context through its site's
	// program with a discard environment.
	progs := r.progs
	ctxs := make([][]byte, len(r.gen.ctxs))
	for i := range r.gen.ctxs {
		ctxs[i] = core.BuildCtx(nil, &r.gen.ctxs[i])
	}
	var runErr error
	ns, allocs := r.stage(len(ctxs)*8, nil, func() {
		for rep := 0; rep < 8; rep++ {
			for i, ctx := range ctxs {
				if _, _, err := progs[i%len(progs)].Prog.Run(ctx, discardEnv{}); err != nil {
					runErr = err
				}
			}
		}
	})
	if runErr != nil {
		return 0, fmt.Errorf("replay probe: %w", runErr)
	}
	r.layer("ebpf.run_ns_per_pkt", ns, "ns")
	r.layer("ebpf.run_allocs_per_pkt", allocs, "count")

	var compileUs []float64
	for i := 0; i < 20; i++ {
		for _, spec := range w.specs() {
			t0 := time.Now()
			if _, err := script.Compile(spec); err != nil {
				return 0, err
			}
			compileUs = append(compileUs, float64(time.Since(t0))/1e3)
		}
	}
	r.layer("script.compile_us", median(compileUs), "us")

	// Ring emit and drain: one round's records at a time, as the agent
	// sees them.
	ring, err := core.NewPerCPURing(simCPUs, ringBytes)
	if err != nil {
		return 0, err
	}
	var emitNs, drainNs time.Duration
	var ringRecs int
	buf := make([]byte, 0, 1<<20)
	for _, b := range batches {
		t0 := time.Now()
		emitRaw(ring, b.RawRecords)
		t1 := time.Now()
		buf = ring.DrainInto(buf[:0])
		recs, err := core.UnmarshalRecords(buf)
		t2 := time.Now()
		if err != nil || len(recs) != len(b.Records) {
			return 0, fmt.Errorf("replay ring: drained %d of %d records: %v", len(recs), len(b.Records), err)
		}
		emitNs += t1.Sub(t0)
		drainNs += t2.Sub(t1)
		ringRecs += len(recs)
	}
	emit, drain := 0.0, 0.0
	if ringRecs > 0 {
		slow := r.res.Slowness
		emit = float64(emitNs) / slow / float64(ringRecs)
		drain = float64(drainNs) / slow / float64(ringRecs)
	}
	r.layer("core.emit_ns_per_rec", emit, "ns")
	r.layer("core.drain_ns_per_rec", drain, "ns")

	// The agent's flush with nothing behind it: emit each captured batch
	// into a machine's rings and flush to a sink that discards, so the
	// allocations counted are the agent's own.
	flushAllocs := 0.0
	if records > 0 {
		machine, err := core.NewMachine(kernel.NewNode(sim.NewEngine(1), kernel.NodeConfig{Name: "replay", NumCPU: simCPUs}), ringBytes)
		if err != nil {
			return 0, err
		}
		agent := control.NewAgent("replay", machine, discardSink{})
		var flushErr error
		_, flushAllocs = r.stage(records, nil, func() {
			for _, b := range batches {
				emitRaw(machine.Ring, b.RawRecords)
				if err := agent.Flush(); err != nil {
					flushErr = err
				}
			}
		})
		if flushErr != nil {
			return 0, fmt.Errorf("replay agent flush: %w", flushErr)
		}
	}
	r.layer("agent.flush_allocs_per_rec", flushAllocs, "count")

	// Wire codec.
	frames := make([][]byte, len(batches))
	enc := make([]byte, 0, 1<<20)
	var codecErr error
	encNs, _ := r.stage(records, nil, func() {
		for i := range batches {
			enc, codecErr = control.AppendBatchFrame(enc[:0], &batches[i])
		}
	})
	for i := range batches {
		frames[i], codecErr = control.AppendBatchFrame(nil, &batches[i])
	}
	decNs, decAllocs := r.stage(records, nil, func() {
		for _, f := range frames {
			if _, err := control.DecodeBatchFrame(f); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return 0, fmt.Errorf("replay wire codec: %w", codecErr)
	}
	r.layer("wire.encode_ns_per_rec", encNs, "ns")
	r.layer("wire.decode_ns_per_rec", decNs, "ns")
	perBatch := 0.0
	if len(batches) > 0 {
		perBatch = decAllocs * float64(records) / float64(len(batches))
	}
	r.layer("wire.decode_allocs_per_batch", perBatch, "count")

	// Collector admission without and with the write-ahead log; the WAL's
	// cost is the difference. Each repeat starts from an empty store.
	var col *control.Collector
	var durable *store // the store behind col when it logs; nil when it does not
	var freshErr error
	var db *tracedb.DB
	n := 0
	fresh := func(withWAL bool) func() {
		return func() {
			if durable != nil {
				durable.dur.Close()
				durable = nil
			}
			n++
			sub := filepath.Join(dir, fmt.Sprint(n))
			if withWAL {
				if durable, freshErr = openStore(bigSegment, sub); freshErr != nil {
					return
				}
				db = durable.db
				col = control.NewCollectorWith(db, durable.aggs)
				col.SetDurability(durable.dur)
			} else {
				db = tracedb.NewWith(tracedb.Config{SegmentBytes: bigSegment, DataDir: filepath.Join(sub, "data")})
				col = control.NewCollectorWith(db, tracedb.NewAggStore())
			}
			runtime.GC()
		}
	}
	handle := func() {
		for i := range batches {
			col.HandleBatch(batches[i])
		}
	}
	admitNs, admitAllocs := r.stage(records, fresh(false), handle)
	r.layer("tracedb.admit_insert_ns_per_rec", admitNs, "ns")
	if len(batches) > 0 {
		perBatch = admitAllocs * float64(records) / float64(len(batches))
	}
	r.layer("collector.handle_allocs_per_batch", perBatch, "count")

	// Seal (compress and spill) what the last repeat inserted.
	sealNs := 0.0
	if records > 0 {
		t0 := time.Now()
		db.SealAll()
		sealNs = float64(time.Since(t0)) / r.res.Slowness / float64(records)
	}
	r.layer("tracedb.seal_ns_per_rec", sealNs, "ns")

	durableNs, _ := r.stage(records, fresh(true), handle)
	if freshErr != nil {
		return 0, fmt.Errorf("replay durable store: %w", freshErr)
	}
	walNs := durableNs - admitNs
	if walNs < 0 {
		walNs = 0
	}
	r.layer("tracedb.wal_ns_per_rec", walNs, "ns")

	// Recovery: the durable store just filled holds every record in its
	// WAL (replay); after a checkpoint it holds every record in adopted
	// extents.
	replayNs, adoptNs, recAllocs := 0.0, 0.0, 0.0
	if durable != nil && records > 0 {
		sub := filepath.Join(dir, fmt.Sprint(n))
		if err := durable.dur.Close(); err != nil {
			return 0, err
		}
		durable = nil
		reopen := func() (*store, time.Duration, uint64, error) {
			m0 := mallocs()
			t0 := time.Now()
			st, err := openStore(bigSegment, sub)
			return st, time.Since(t0), mallocs() - m0, err
		}
		st, dt, m, err := reopen()
		if err != nil {
			return 0, err
		}
		r.o.equal("replayed records in stage replay", st.rec.ReplayedRecords, uint64(records))
		replayNs = float64(dt) / r.res.Slowness / float64(records)
		recAllocs = float64(m) / float64(records)
		if err := st.dur.Checkpoint(); err != nil {
			return 0, err
		}
		if err := st.dur.Close(); err != nil {
			return 0, err
		}
		st, dt, _, err = reopen()
		if err != nil {
			return 0, err
		}
		r.o.equal("adopted records in stage replay", st.rec.AdoptedRecords, uint64(records))
		adoptNs = float64(dt) / r.res.Slowness / float64(records)
		st.dur.Close()
	}
	if durable != nil {
		durable.dur.Close()
		durable = nil
	}
	r.layer("tracedb.recover_replay_ns_per_rec", replayNs, "ns")
	r.layer("tracedb.recover_adopt_ns_per_rec", adoptNs, "ns")
	r.layer("tracedb.recover_allocs_per_rec", recAllocs, "count")

	// Aggregate frames: codec and admission.
	aggFrames := tr.capturedAgg
	bodies := make([][]byte, len(aggFrames))
	encUs, _ := r.stage(len(aggFrames), nil, func() {
		for i := range aggFrames {
			bodies[i], codecErr = control.AppendAggFrame(bodies[i][:0], &aggFrames[i])
		}
	})
	decUs, _ := r.stage(len(aggFrames), nil, func() {
		for _, b := range bodies {
			if _, err := control.DecodeAggFrame(b); err != nil {
				codecErr = err
			}
		}
	})
	if codecErr != nil {
		return 0, fmt.Errorf("replay aggregate codec: %w", codecErr)
	}
	aggUs, _ := r.stage(len(aggFrames), fresh(false), func() {
		for i := range aggFrames {
			col.HandleAgg(aggFrames[i])
		}
	})
	r.layer("wire_agg.encode_us_per_frame", encUs/1e3, "us")
	r.layer("wire_agg.decode_us_per_frame", decUs/1e3, "us")
	r.layer("aggstore.admit_us_per_frame", aggUs/1e3, "us")

	// Reads, over the store the last recovery left: a scan, a join and
	// sealed point lookups.
	scanNs, scanAllocs, joinNs, joinAllocs, lookUs := 0.0, 0.0, 0.0, 0.0, 0.0
	if !w.aggregates {
		first, _ := r.last.db.Table(w.sites[0].tpid)
		last, _ := r.last.db.Table(w.sites[len(w.sites)-1].tpid)
		var seen int
		scanNs, scanAllocs = r.stage(last.Len(), nil, func() {
			last.ScanAligned(func(core.Record) bool { seen++; return true })
		})
		scanAllocs *= float64(last.Len())
		joinNs, joinAllocs = r.stageN(1, first.Len()+last.Len(), nil, func() {
			metrics.LatenciesOf(metrics.SourceFunc(first.ScanAligned), metrics.SourceFunc(last.ScanAligned))
		})
		us, slow := r.lookupBlock(r.last, 0, 200)
		lookUs = median(us) / slow
	}
	r.layer("tracedb.scan_ns_per_rec", scanNs, "ns")
	r.layer("tracedb.scan_allocs_per_scan", scanAllocs, "count")
	r.layer("metrics.join_ns_per_rec", joinNs, "ns")
	r.layer("metrics.join_allocs_per_rec", joinAllocs, "count")
	r.layer("tracedb.lookup_sealed_us", lookUs, "us")

	if err := os.RemoveAll(dir); err != nil {
		return 0, err
	}
	perFiring := drain + admitNs + walNs + sealNs
	if len(aggFrames) > 0 {
		perFiring += aggUs / float64(w.firingsPerRound())
	}
	return perFiring, nil
}
