package script

import (
	"runtime"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

func testRig(t *testing.T) (*sim.Engine, *core.Machine) {
	t.Helper()
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n0", NumCPU: 4})
	m, err := core.NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func udpPkt(src, dst vnet.IPv4, sport, dport uint16, traceID uint32, payload int) *vnet.Packet {
	return &vnet.Packet{
		IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: src, Dst: dst, TTL: 64},
		UDP:     &vnet.UDPHeader{SrcPort: sport, DstPort: dport},
		TraceID: traceID,
		Payload: make([]byte, payload),
	}
}

func fireAt(m *core.Machine, site string, p *vnet.Packet) {
	m.Node.Probes.Fire(&kernel.ProbeCtx{
		Site: site, Pkt: p, TimeNs: m.Node.Clock.NowNs(),
	})
}

func TestCompileRejectsEmptyActions(t *testing.T) {
	if _, err := Compile(Spec{Name: "empty"}); err == nil {
		t.Fatal("empty action list accepted")
	}
}

func TestCompiledProgramPassesVerifier(t *testing.T) {
	c, err := Compile(Spec{
		Name:    "full",
		TPID:    3,
		Filter:  Spec{}.Filter, // zero filter
		Actions: []Action{ActionRecord, ActionCount, ActionCPUHist},
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Prog.Len() == 0 || c.Prog.Len() > ebpf.MaxInsns {
		t.Fatalf("program length %d", c.Prog.Len())
	}
	if c.Counters == nil || c.CPUHist == nil {
		t.Fatal("maps not created")
	}
}

func TestRecordActionEmitsParsableRecords(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name:    "rec",
		TPID:    9,
		Actions: []Action{ActionRecord},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	p := udpPkt(vnet.MustParseIPv4("10.0.0.1"), vnet.MustParseIPv4("10.0.0.2"), 4000, 9000, 0xfeed, 56)
	p.Seq = 7
	fireAt(m, kernel.SiteUDPRecvmsg, p)

	recs, err := core.UnmarshalRecords(m.Ring.Drain())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("records = %d", len(recs))
	}
	r := recs[0]
	if r.TraceID != 0xfeed || r.TPID != 9 || r.Seq != 7 {
		t.Fatalf("record = %+v", r)
	}
	if r.SrcIP != 0x0a000001 || r.DstIP != 0x0a000002 || r.SrcPort != 4000 || r.DstPort != 9000 {
		t.Fatalf("flow in record = %+v", r)
	}
	if r.Proto != vnet.ProtoUDP {
		t.Fatalf("proto = %d", r.Proto)
	}
	if r.Len != uint32(p.WireLen()) {
		t.Fatalf("len = %d want %d", r.Len, p.WireLen())
	}
}

// A kprobe firing of the compiled record script — registry dispatch,
// context build, program, ring emit — allocates nothing.
func TestRecordScriptFiringDoesNotAllocate(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name:    "rec",
		TPID:    9,
		Filter:  Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []Action{ActionRecord},
	})
	if err != nil {
		t.Fatal(err)
	}
	h, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	pc := &kernel.ProbeCtx{
		Site: kernel.SiteUDPRecvmsg,
		Pkt:  udpPkt(vnet.MustParseIPv4("10.0.0.1"), vnet.MustParseIPv4("10.0.0.2"), 4000, 9000, 0xfeed, 56),
	}
	const firings = 500
	allocs := testing.AllocsPerRun(firings, func() { m.Node.Probes.Fire(pc) })
	if allocs != 0 {
		t.Fatalf("firing the record script: %v allocs/op, want 0", allocs)
	}
	// AllocsPerRun fires once more to warm up.
	if st := h.Stats(); st.Invocations != firings+1 || st.Errors != 0 || m.Ring.Drops() != 0 {
		t.Fatalf("after %d firings: %+v, %d ring drops", firings+1, st, m.Ring.Drops())
	}
	if got := m.Ring.Used(); got != (firings+1)*core.RecordSize {
		t.Fatalf("ring holds %d bytes, want %d records", got, firings+1)
	}
}

// mallocs counts the heap allocations f makes, on one P so that no other
// goroutine's allocations are counted.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// Once every flow has been seen, an aggregation interval — 256 flows
// fired through the aggregation script, then one drain into the
// previous interval's tracedb.ScriptAgg — allocates nothing: not on the
// probe side (drained flow entries are revived in place), and not in
// DrainAggregates, which reuses the destination's arrays.
func TestAggregateScriptFiringDoesNotAllocate(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name:    "agg",
		TPID:    9,
		Filter:  Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
		Actions: []Action{ActionCount, ActionCPUHist, ActionHist, ActionFlowCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	const flows = 256
	pcs := make([]*kernel.ProbeCtx, flows)
	for i := range pcs {
		pcs[i] = &kernel.ProbeCtx{
			Site: kernel.SiteUDPRecvmsg,
			Pkt:  udpPkt(vnet.MustParseIPv4("10.0.0.1"), vnet.MustParseIPv4("10.0.0.2"), uint16(4000+i), 9000, 0, 56),
		}
	}
	fire := func() {
		for _, pc := range pcs {
			m.Node.Probes.Fire(pc)
		}
	}
	var snap tracedb.ScriptAgg
	for interval := 1; interval <= 2; interval++ {
		probe := mallocs(fire)
		drain := mallocs(func() { c.DrainAggregates(&snap) })
		if len(snap.Flows) != flows || snap.Counters[SlotPackets] != flows {
			t.Fatalf("interval %d drained %d flows, %d packets; want %d of each",
				interval, len(snap.Flows), snap.Counters[SlotPackets], flows)
		}
		if interval == 1 {
			continue // the first interval creates the flow entries
		}
		if probe != 0 {
			t.Errorf("interval %d: firing %d seen flows made %d allocations, want 0", interval, flows, probe)
		}
		if drain != 0 {
			t.Errorf("interval %d: DrainAggregates of %d flows into reused arrays made %d allocations, want 0", interval, flows, drain)
		}
	}
}

func TestFilterMatchesOnlyTargetFlow(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name: "filtered",
		TPID: 1,
		Filter: Filter{
			DstIP:   vnet.MustParseIPv4("10.0.0.2"),
			DstPort: 9000,
			Proto:   vnet.ProtoUDP,
		},
		Actions: []Action{ActionCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	match := udpPkt(1, vnet.MustParseIPv4("10.0.0.2"), 4000, 9000, 0, 10)
	wrongPort := udpPkt(1, vnet.MustParseIPv4("10.0.0.2"), 4000, 9001, 0, 10)
	wrongIP := udpPkt(1, vnet.MustParseIPv4("10.0.0.3"), 4000, 9000, 0, 10)
	tcp := &vnet.Packet{
		IP:  vnet.IPv4Header{Protocol: vnet.ProtoTCP, Dst: vnet.MustParseIPv4("10.0.0.2")},
		TCP: &vnet.TCPHeader{DstPort: 9000},
	}
	for _, p := range []*vnet.Packet{match, wrongPort, wrongIP, tcp, match} {
		fireAt(m, kernel.SiteUDPRecvmsg, p)
	}
	pkts, ok := c.ReadCounter(SlotPackets)
	if !ok || pkts != 2 {
		t.Fatalf("packets = %d ok=%v, want 2", pkts, ok)
	}
}

func TestFilterHighBitIP(t *testing.T) {
	// 192.168.1.1 has the sign bit set in int32; JMP32 must still match.
	_, m := testRig(t)
	ip := vnet.MustParseIPv4("192.168.1.1")
	c, err := Compile(Spec{
		Name:    "highbit",
		TPID:    1,
		Filter:  Filter{DstIP: ip},
		Actions: []Action{ActionCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, ip, 1, 2, 0, 0))
	pkts, _ := c.ReadCounter(SlotPackets)
	if pkts != 1 {
		t.Fatalf("high-bit IP filter matched %d packets, want 1", pkts)
	}
}

func TestTracedOnlyFilter(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name:    "traced",
		TPID:    1,
		Filter:  Filter{TracedOnly: true},
		Actions: []Action{ActionCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, 2, 3, 4, 0, 0))    // untraced
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, 2, 3, 4, 0xaa, 0)) // traced
	pkts, _ := c.ReadCounter(SlotPackets)
	if pkts != 1 {
		t.Fatalf("packets = %d, want 1", pkts)
	}
}

func TestCountActionCountsBytes(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{Name: "bytes", TPID: 1, Actions: []Action{ActionCount}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	p1 := udpPkt(1, 2, 3, 4, 0, 100)
	p2 := udpPkt(1, 2, 3, 4, 0, 200)
	fireAt(m, kernel.SiteUDPRecvmsg, p1)
	fireAt(m, kernel.SiteUDPRecvmsg, p2)
	bytes, _ := c.ReadCounter(SlotBytes)
	want := uint64(p1.WireLen() + p2.WireLen())
	if bytes != want {
		t.Fatalf("bytes = %d, want %d", bytes, want)
	}
}

func TestCPUHistTracksPerCPU(t *testing.T) {
	eng, m := testRig(t)
	c, err := Compile(Spec{Name: "cpuhist", TPID: 1, Actions: []Action{ActionCPUHist}, NumCPU: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteNetRxAction}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	// Fire through the real softirq path so CPUs are assigned by steering
	// (no RPS: everything lands on CPU 0).
	for i := 0; i < 6; i++ {
		m.Node.SoftirqNetRX(udpPkt(1, 2, 3, 4, 0, 0), nil, func(*vnet.Packet) {})
	}
	eng.RunUntilIdle()
	hist := c.ReadCPUHist()
	if hist[0] != 6 {
		t.Fatalf("cpu0 = %d, want 6 (hist=%v)", hist[0], hist)
	}
	for i := 1; i < 4; i++ {
		if hist[i] != 0 {
			t.Fatalf("cpu%d = %d, want 0", i, hist[i])
		}
	}
}

func TestMultipleActionsCompose(t *testing.T) {
	_, m := testRig(t)
	c, err := Compile(Spec{
		Name:    "multi",
		TPID:    2,
		Filter:  Filter{DstPort: 9000},
		Actions: []Action{ActionRecord, ActionCount},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, 2, 3, 9000, 0x11, 0))
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, 2, 3, 8000, 0x22, 0)) // filtered out
	recs, err := core.UnmarshalRecords(m.Ring.Drain())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].TraceID != 0x11 {
		t.Fatalf("records = %+v", recs)
	}
	pkts, _ := c.ReadCounter(SlotPackets)
	if pkts != 1 {
		t.Fatalf("packets = %d", pkts)
	}
}

func TestRecordTimestampUsesNodeClock(t *testing.T) {
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "skewed", NumCPU: 1, ClockOffsetNs: 5_000_000})
	m, err := core.NewMachine(node, 4096)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Compile(Spec{Name: "ts", TPID: 1, Actions: []Action{ActionRecord}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		t.Fatal(err)
	}
	fireAt(m, kernel.SiteUDPRecvmsg, udpPkt(1, 2, 3, 4, 1, 0))
	recs, _ := core.UnmarshalRecords(m.Ring.Drain())
	if len(recs) != 1 || recs[0].TimeNs < 5_000_000 {
		t.Fatalf("record timestamp %d must come from the node's skewed clock", recs[0].TimeNs)
	}
}
