package vnettracer

// Scale-out benchmark for the partitioned collector tier: the same batch
// stream sharded over 1, 2, and 4 collectors by the dispatcher's consistent
// hash. The harness is single-machine, so wall-clock alone would show
// the *sum* of collector work, not the tier's throughput; instead each
// batch's synchronous ingest cost is attributed to its home collector
// and the critical path (the busiest collector's total) stands in for
// the tier's makespan — what a deployment with one machine per
// collector would observe. Near-linear scaling means the critical path
// shrinks ~Nx with N collectors.

import (
	"fmt"
	"testing"
	"time"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

// clusterBatch builds one agent's flush: recordsPerBatch records into
// the agent's own tracepoint table.
func clusterBatch(agent string, tpid uint32, n int) control.RecordBatch {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			TraceID: uint32(i + 1), TPID: tpid,
			TimeNs: uint64(1000 * i), Len: 100, CPU: uint32(i % 4),
			Seq: uint64(i), SrcIP: 0x0a000001, DstIP: 0x0a000002,
			SrcPort: 40000, DstPort: 9000, Proto: 17, Dir: 1,
		}
	}
	return control.RecordBatch{Agent: agent, AgentTimeNs: 123456789, Records: recs}
}

// clusterTenant is one benchmark agent: the dispatcher retargets it at
// its home collector's sink, and the loop ships its batch there.
type clusterTenant struct {
	home  int
	sink  control.RecordSink
	epoch uint64
	seq   uint64
	batch control.RecordBatch
}

func (tn *clusterTenant) Apply(control.ControlPackage) error { return nil }

func (tn *clusterTenant) Retarget(sink control.RecordSink, epoch uint64) {
	tn.sink, tn.epoch = sink, epoch
}

func BenchmarkClusterIngest(b *testing.B) {
	const (
		numAgents       = 128
		recordsPerBatch = 128
	)
	for _, numCols := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("collectors=%d", numCols), func(b *testing.B) {
			disp := control.NewDispatcher()
			cols := make([]*control.Collector, numCols)
			names := make(map[string]int, numCols)
			for c := 0; c < numCols; c++ {
				name := fmt.Sprintf("col-%d", c)
				cols[c] = control.NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
				if err := disp.AddCollector(name, cols[c], nil); err != nil {
					b.Fatal(err)
				}
				names[name] = c
			}
			tenants := make([]*clusterTenant, numAgents)
			for i := range tenants {
				agent := fmt.Sprintf("agent-%02d", i)
				tn := &clusterTenant{batch: clusterBatch(agent, uint32(i+1), recordsPerBatch)}
				if err := disp.Register(agent, tn); err != nil {
					b.Fatal(err)
				}
				home, _ := disp.Home(agent)
				tn.home = names[home]
				tenants[i] = tn
			}

			perCol := make([]time.Duration, numCols)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tn := tenants[i%numAgents]
				tn.seq++
				tn.batch.Epoch = tn.epoch
				tn.batch.Seq = tn.seq
				start := time.Now()
				if err := tn.sink.HandleBatch(tn.batch); err != nil {
					b.Fatal(err)
				}
				perCol[tn.home] += time.Since(start)
			}
			b.StopTimer()

			var makespan, serial time.Duration
			for _, d := range perCol {
				serial += d
				if d > makespan {
					makespan = d
				}
			}
			b.ReportMetric(float64(makespan.Nanoseconds())/float64(b.N), "critical-ns/op")
			if makespan > 0 {
				b.ReportMetric(float64(serial)/float64(makespan), "speedup")
			}
			b.ReportMetric(float64(recordsPerBatch)*float64(b.N)/makespan.Seconds()/1e6, "Mrec/s")
		})
	}
}
