package control

import (
	"sync"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

// TestAgentPerRingDropAccountingConcurrent emits records into a machine's
// per-CPU rings from one goroutine per CPU while the agent concurrently
// drains and ships to an in-process collector, then checks that drop
// totals stay exact end-to-end: the per-ring drop counters sum to the
// agent-reported RingDrops aggregated by the collector, every committed
// record reaches the database exactly once, and the exactly-once ledger
// sees no duplicates or gaps. Run under -race (`make race`) this is the
// contended-emit proof for the per-CPU buffer design.
func TestAgentPerRingDropAccountingConcurrent(t *testing.T) {
	const (
		ncpu      = 4
		perRing   = core.MinBufferBytes + 6*core.RecordSize // tiny: forces drops
		perCPUMsg = 3000
	)
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n0", NumCPU: ncpu})
	machine, err := core.NewMachine(node, perRing)
	if err != nil {
		t.Fatal(err)
	}
	if machine.Ring.NumRings() != ncpu {
		t.Fatalf("machine has %d rings, want one per CPU (%d)", machine.Ring.NumRings(), ncpu)
	}
	db := tracedb.New()
	collector := NewCollectorWith(db, tracedb.NewAggStore())
	agent := NewAgent("agent-0", machine, collector)

	var wg sync.WaitGroup
	for cpu := 0; cpu < ncpu; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			ring := machine.Ring.Ring(uint32(cpu))
			rec := core.Record{TPID: 1, CPU: uint32(cpu)}
			for seq := uint64(1); seq <= perCPUMsg; seq++ {
				rec.Seq = seq
				dst := ring.Reserve(core.RecordSize)
				if dst == nil {
					continue // ring full: counted as a drop
				}
				rec.MarshalTo(dst)
				ring.Commit()
			}
		}(cpu)
	}

	// Concurrent flusher: drain-and-ship races the emitters.
	flusherDone := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(flusherDone)
		for {
			select {
			case <-stop:
				return
			default:
				if err := agent.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()

	wg.Wait()
	close(stop)
	<-flusherDone
	if t.Failed() {
		return
	}
	// Final flush picks up whatever the last concurrent pass missed.
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}

	rs := agent.RingStats()
	if len(rs.PerRingDrops) != ncpu {
		t.Fatalf("per-ring drops = %v", rs.PerRingDrops)
	}
	var perRingSum uint64
	for _, d := range rs.PerRingDrops {
		perRingSum += d
	}
	if perRingSum != rs.Drops {
		t.Fatalf("RingStats sum %d != Drops %d", perRingSum, rs.Drops)
	}
	if perRingSum == 0 {
		t.Fatal("no drops: the test never stressed the rings")
	}

	_, records, ringDrops := collector.Stats()
	if ringDrops != perRingSum {
		t.Fatalf("collector RingDrops %d != per-ring drop sum %d", ringDrops, perRingSum)
	}
	if records+ringDrops != ncpu*perCPUMsg {
		t.Fatalf("records %d + drops %d = %d, want %d emit attempts",
			records, ringDrops, records+ringDrops, ncpu*perCPUMsg)
	}
	if records != rs.Writes {
		t.Fatalf("collector ingested %d records, ring committed %d", records, rs.Writes)
	}
	tbl, ok := db.Table(1)
	if !ok || uint64(tbl.Len()) != records {
		t.Fatalf("table holds %d records, collector counted %d", tbl.Len(), records)
	}
	dup, _, missing := collector.DeliveryStats()
	if dup != 0 || missing != 0 {
		t.Fatalf("dup=%d missing=%d on a lossless transport", dup, missing)
	}
	st := agent.SpoolStats()
	if st.Batches != 0 || st.EvictedRecords != 0 {
		t.Fatalf("spool not empty after final flush: %+v", st)
	}
}
