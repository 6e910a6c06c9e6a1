package main

// The cluster subcommand queries a scaled-out collector tier: one
// record dump (and optionally one aggregate dump) per collector, loaded
// into per-collector partitions and queried through the merge layer —
// k-way merged scans, cross-collector trace-ID joins, and mergeable
// sketches.

import (
	"flag"
	"fmt"
	"os"

	"vnettracer"
	"vnettracer/internal/metrics"
)

// stringList is a repeatable flag: -in a.jsonl -in b.jsonl.
type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }
func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

func runClusterCmd(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ExitOnError)
	var ins, aggIns stringList
	fs.Var(&ins, "in", "records.jsonl from one collector (repeat per collector)")
	fs.Var(&aggIns, "agg-in", "agg.jsonl from one collector (repeat per collector)")
	tp := fs.Uint("tp", 0, "tracepoint for merged throughput")
	topK := fs.Int("top", 0, "with -tp: merge per-collector top-K flow sketches at this K")
	from := fs.Uint("from", 0, "latency source tracepoint")
	to := fs.Uint("to", 0, "latency destination tracepoint")
	skew := fs.Int64("skew", 0, "clock skew (ns) of the destination's node, subtracted from its timestamps")
	script := fs.String("script", "", "print this script's cluster-merged in-probe aggregates")
	if err := fs.Parse(args); err != nil {
		os.Exit(2)
	}
	if len(ins) == 0 && len(aggIns) == 0 {
		fs.Usage()
		os.Exit(2)
	}

	q := vnettracer.NewClusterQuery()
	for _, path := range ins {
		batches, err := addDump(q, path, uint32(*to), *skew)
		if err != nil {
			return err
		}
		fmt.Printf("collector %s: %d batches\n", path, batches)
	}
	for _, path := range aggIns {
		st, frames, err := loadAggDump(path)
		if err != nil {
			return err
		}
		fmt.Printf("collector %s: %d aggregate frames\n", path, frames)
		q.AddAggStore(st)
	}

	switch {
	case *script != "":
		return printClusterAgg(q, *script, len(aggIns))
	case *from != 0 && *to != 0:
		return printPair(q, uint32(*from), uint32(*to), "cluster ", fmt.Sprintf(" (%d partitions)", q.Partitions()))
	case *tp != 0:
		bps, err := q.Throughput(uint32(*tp))
		if err != nil {
			return err
		}
		m, _ := q.Table(uint32(*tp))
		fmt.Printf("tracepoint %d: %d records across %d partitions, throughput %.3f Mbps\n",
			*tp, m.Len(), m.Parts(), bps/1e6)
		if *topK > 0 {
			sketch, err := q.TopFlows(uint32(*tp), *topK)
			if err != nil {
				return err
			}
			for _, fc := range sketch.Top() {
				fmt.Printf("  %-40s %8d pkts %12d bytes\n", fc.Flow, fc.Packets, fc.Bytes)
			}
			if pkts, bytes, evictions := sketch.Overflow(); evictions > 0 {
				fmt.Printf("  overflow: %d pkts %d bytes outside the top %d (%d evictions)\n",
					pkts, bytes, *topK, evictions)
			}
		}
	default:
		for _, id := range q.Tables() {
			m, _ := q.Table(id)
			fmt.Printf("  tracepoint %d (%s): %d records in %d partitions, %d distinct packet IDs\n",
				id, m.Name(), m.Len(), m.Parts(), m.NumTraceIDs())
		}
	}
	return nil
}

// printClusterAgg prints one script's aggregates merged across every
// collector's store: histogram buckets and counters add, flows merge by
// key.
func printClusterAgg(q *vnettracer.ClusterQuery, script string, stores int) error {
	agg, ok := q.Aggregate(script)
	if !ok {
		return fmt.Errorf("no aggregates for script %q in any collector", script)
	}
	fmt.Printf("script %s (merged from %d aggregate stores):\n", script, stores)
	if len(agg.Counters) > 0 {
		fmt.Printf("  counters: %v\n", agg.Counters)
	}
	if hs := metrics.HistSummarize(agg.Hist); hs.Count > 0 {
		fmt.Printf("  latency histogram over %d samples: mean~%.1fus p50<=%.1fus p99<=%.1fus max<=%.1fus\n",
			hs.Count, hs.MeanNs/1e3, float64(hs.P50Ns)/1e3, float64(hs.P99Ns)/1e3, float64(hs.MaxNs)/1e3)
	}
	for _, fl := range agg.Flows {
		key := metrics.FlowKey{SrcIP: fl.SrcIP, DstIP: fl.DstIP, SrcPort: fl.SrcPort, DstPort: fl.DstPort, Proto: fl.Proto}
		fmt.Printf("  %-40s %8d pkts %12d bytes\n", key, fl.Packets, fl.Bytes)
	}
	return nil
}
