package metrics

import (
	"testing"

	"vnettracer/internal/core"
)

func flowRec(sip, dip uint32, sp, dp uint16, proto uint8, length uint32, t uint64) core.Record {
	return core.Record{
		SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp, Proto: proto,
		Len: length, TimeNs: t, TraceID: uint32(t),
	}
}

func TestPerFlowThroughputSeparatesFlows(t *testing.T) {
	var recs []core.Record
	// Flow A: 10 packets of 1004 bytes over 1ms -> 80 Mbps.
	for i := 0; i < 10; i++ {
		recs = append(recs, flowRec(1, 2, 1000, 2000, 17, 1004, uint64(i)*111_111))
	}
	recs[9].TimeNs = 1_000_000
	// Flow B: 5 packets of 104 bytes over 1ms -> 4 Mbps.
	for i := 0; i < 5; i++ {
		recs = append(recs, flowRec(3, 4, 5000, 6000, 6, 104, uint64(i)*250_000))
	}
	recs[14].TimeNs = 1_000_000

	stats := PerFlowThroughputOf(Records(recs))
	if len(stats) != 2 {
		t.Fatalf("flows = %d", len(stats))
	}
	// Sorted by bytes descending: flow A first.
	a, b := stats[0], stats[1]
	if a.Flow.SrcIP != 1 || b.Flow.SrcIP != 3 {
		t.Fatalf("order: %v %v", a.Flow, b.Flow)
	}
	if a.Packets != 10 || b.Packets != 5 {
		t.Fatalf("packets: %d %d", a.Packets, b.Packets)
	}
	if a.ThroughputBps < 79e6 || a.ThroughputBps > 81e6 {
		t.Fatalf("flow A throughput = %.0f", a.ThroughputBps)
	}
	if b.ThroughputBps < 3.9e6 || b.ThroughputBps > 4.1e6 {
		t.Fatalf("flow B throughput = %.0f", b.ThroughputBps)
	}
}

func TestPerFlowThroughputSubtractsTraceID(t *testing.T) {
	recs := []core.Record{
		flowRec(1, 2, 1, 2, 17, 104, 0),
		flowRec(1, 2, 1, 2, 17, 104, 1_000_000),
	}
	stats := PerFlowThroughputOf(Records(recs))
	// 2 x (104-4) bytes over 1ms = 1.6 Mbps.
	if got := stats[0].ThroughputBps; got != 1.6e6 {
		t.Fatalf("throughput = %.0f, want 1.6e6", got)
	}
}

func TestPerFlowThroughputSinglePacket(t *testing.T) {
	stats := PerFlowThroughputOf(Records([]core.Record{flowRec(1, 2, 1, 2, 17, 100, 5)}))
	if len(stats) != 1 || stats[0].ThroughputBps != 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{SrcIP: 0x0a000001, DstIP: 0xc0a80102, SrcPort: 40000, DstPort: 9000, Proto: 17}
	want := "udp 10.0.0.1:40000->192.168.1.2:9000"
	if got := k.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	k.Proto = 6
	if got := k.String(); got[:3] != "tcp" {
		t.Fatalf("tcp String() = %q", got)
	}
}

func TestInterArrivals(t *testing.T) {
	recs := []core.Record{
		{TimeNs: 300}, {TimeNs: 100}, {TimeNs: 600}, // unsorted
	}
	got := InterArrivalsOf(Records(recs))
	if len(got) != 2 || got[0] != 200 || got[1] != 300 {
		t.Fatalf("inter-arrivals = %v", got)
	}
	if InterArrivalsOf(Records(recs[:1])) != nil {
		t.Fatal("single record should yield nil")
	}
}

func TestPerFlowDeterministicOrder(t *testing.T) {
	recs := []core.Record{
		flowRec(1, 2, 1, 2, 17, 100, 0),
		flowRec(3, 4, 1, 2, 17, 100, 0),
		flowRec(5, 6, 1, 2, 17, 100, 0),
	}
	first := PerFlowThroughputOf(Records(recs))
	for i := 0; i < 10; i++ {
		again := PerFlowThroughputOf(Records(recs))
		for j := range first {
			if first[j].Flow != again[j].Flow {
				t.Fatal("order not deterministic")
			}
		}
	}
}
