package main

import (
	"fmt"
	"reflect"

	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// oracle counts every operation whose outcome the harness verified
// against the generator's ground truth, and the ones that came out
// wrong. A run with any failure is not a result.
type oracle struct {
	attempted int
	failed    int
	failures  []string
}

const maxReportedFailures = 20

func (o *oracle) check(ok bool, format string, args ...any) {
	o.attempted++
	if ok {
		return
	}
	o.failed++
	if len(o.failures) < maxReportedFailures {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

func (o *oracle) equal(what string, got, want uint64) {
	o.check(got == want, "%s = %d, want %d", what, got, want)
}

// delivery checks that nothing was dropped, duplicated, retried, fenced
// or left behind anywhere between the probe and the store.
func (o *oracle) delivery(p *pipeline, g *generator) {
	ring := p.agent.RingStats()
	o.equal("ring drops", ring.Drops, 0)
	o.equal("ring bytes left", uint64(ring.UsedBytes), 0)
	spool := p.agent.SpoolStats()
	o.equal("spooled batches", uint64(spool.Batches), 0)
	o.equal("evicted batches", spool.EvictedBatches, 0)
	o.equal("spool retries", spool.Retries, 0)
	flushErrs, _ := p.agent.FlushErrors()
	o.equal("flush errors", flushErrs, 0)
	agg := p.agent.AggShipStats()
	o.equal("aggregate ship errors", agg.ShipErrs+agg.Rejected+agg.Evicted, 0)
	o.equal("aggregate frames spooled", uint64(agg.FramesSpooled), 0)

	_, records, ringDrops := p.col.Stats()
	dup, _, missing := p.col.DeliveryStats()
	fenced, _ := p.col.FencedStats()
	_, dropped := p.col.IngestStats()
	o.equal("collector ring drops", ringDrops, 0)
	o.equal("duplicate batches", dup, 0)
	o.equal("missing batches", missing, 0)
	o.equal("fenced batches", fenced, 0)
	o.equal("dropped batches", dropped, 0)
	if g.w.aggregates {
		o.equal("collector records", records, 0)
		totals := p.aggs.Totals()
		o.equal("aggregate frames merged", totals.FramesMerged, agg.FramesShipped)
		o.equal("aggregate frames dup+fenced", totals.FramesDup+totals.FramesFenced, 0)
	} else {
		o.equal("collector records", records, g.fired)
	}
	ds := p.dur.Stats()
	o.equal("WAL errors", ds.WALErrors+ds.CheckpointErrors, 0)
}

// conservation checks the store against the generator: every table holds
// exactly as many records as were fired at its site, or, for an
// aggregating workload, every merged counter, histogram and flow sum adds
// up to the firings. It reads no state but the store's, so it serves
// before a crash and after recovery.
func (o *oracle) conservation(st *store, g *generator) {
	if g.w.aggregates {
		o.aggregates(st.aggs, g)
		return
	}
	var total uint64
	for s, site := range g.w.sites {
		t, ok := st.db.Table(site.tpid)
		o.check(ok, "table %d missing", site.tpid)
		if !ok {
			continue
		}
		total += uint64(t.Len())
		o.equal(fmt.Sprintf("table %d records", site.tpid), uint64(t.Len()), g.tables[s].Count)
	}
	o.equal("records in tables", total, g.fired)
	o.equal("tables", uint64(len(st.db.Tables())), uint64(len(g.w.sites)))
	stats := st.db.StorageTotals()
	o.equal("extent read errors", stats.ReadErrors, 0)
	o.equal("spill errors", stats.SpillErrors, 0)
	o.equal("evicted records", stats.EvictedRecords, 0)
}

// digest checks what a full scan of site s's table saw against the
// generator's digest of what was fired there: the same records, by count,
// trace-ID XOR and ID-to-timestamp sum.
func (o *oracle) digest(g *generator, s int, got tableDigest) {
	o.check(got == g.tables[s], "table %d digest = %+v, want %+v", g.w.sites[s].tpid, got, g.tables[s])
}

// digests scans every table of st and checks its digest.
func (o *oracle) digests(st *store, g *generator) {
	for s, site := range g.w.sites {
		t, ok := st.db.Table(site.tpid)
		if !ok {
			continue // conservation reports the missing table
		}
		var d tableDigest
		t.Scan(func(r core.Record) bool {
			d.add(r.TraceID, r.TimeNs)
			return true
		})
		o.digest(g, s, d)
	}
}

func (o *oracle) aggregates(aggs *tracedb.AggStore, g *generator) {
	perSite := g.fired / uint64(len(g.w.sites))
	bytesPerSite := g.bytes / uint64(len(g.w.sites))
	for _, site := range g.w.sites {
		sa, ok := aggs.Get(site.name)
		o.check(ok, "aggregates of %s missing", site.name)
		if !ok {
			continue
		}
		o.check(len(sa.Counters) == 2, "%s: %d counters", site.name, len(sa.Counters))
		if len(sa.Counters) == 2 {
			o.equal(site.name+" packets", sa.Counters[0], perSite)
			o.equal(site.name+" bytes", sa.Counters[1], bytesPerSite)
		}
		o.equal(site.name+" cpu hits", sum(sa.CPUHits), perSite)
		o.equal(site.name+" histogram mass", sum(sa.Hist), perSite)
		var pkts, bytes uint64
		for _, f := range sa.Flows {
			pkts += f.Packets
			bytes += f.Bytes
		}
		o.equal(site.name+" flows", uint64(len(sa.Flows)), uint64(g.w.flows))
		o.equal(site.name+" flow packets", pkts, perSite)
		o.equal(site.name+" flow bytes", bytes, bytesPerSite)
	}
}

// sameAggregates checks that recovery rebuilt the merged aggregates
// exactly as they stood before the crash.
func (o *oracle) sameAggregates(before map[string]tracedb.ScriptAgg, aggs *tracedb.AggStore) {
	for name, want := range before {
		got, ok := aggs.Get(name)
		o.check(ok && reflect.DeepEqual(got, want), "aggregates of %s differ after recovery", name)
	}
}

func sum(vs []uint64) uint64 {
	var t uint64
	for _, v := range vs {
		t += v
	}
	return t
}
