package vnettracer

// End-to-end integration tests exercising the full pipeline through the
// public API: workload -> devices -> eBPF scripts -> ring buffer -> agent
// -> collector -> trace DB -> metrics, including the paper's packet-loss
// metric and data-cleaning step validated against device ground truth.

import (
	"testing"
)

// TestTracedLossMatchesGroundTruth builds a path with a lossy middle
// device, measures loss from trace records alone (N_i - N_j over packet
// IDs), and cross-checks both the count and the identities of the lost
// packets against the device's drop counter.
func TestTracedLossMatchesGroundTruth(t *testing.T) {
	eng := NewEngine(77)
	node := NewNode(eng, NodeConfig{Name: "m0", NumCPU: 2, TraceIDs: true})
	machine, err := NewMachine(node, 128*1024-16)
	if err != nil {
		t.Fatal(err)
	}

	// ingress -> lossy (slow, tiny queue) -> local delivery.
	lossy := NewNetDev(eng, NetDevConfig{
		Name:     "lossy0",
		Ifindex:  3,
		ProcNs:   func(*Packet) int64 { return 200 * Microsecond },
		QueueCap: 4,
		Out:      node.DeliverLocal,
	})
	ingress := NewNetDev(eng, NetDevConfig{
		Name:    "in0",
		Ifindex: 2,
		ProcNs:  func(*Packet) int64 { return 1000 },
		Out:     lossy.Receive,
	})
	for _, d := range []*NetDev{ingress, lossy} {
		if err := machine.RegisterDevice(d); err != nil {
			t.Fatal(err)
		}
	}
	node.Egress = ingress.Receive

	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	filter := Filter{Proto: ProtoUDP, DstPort: 9000}
	if _, err := s.InstallRecord("m0", "before",
		AttachPoint{Kind: AttachDevice, Device: "in0", Dir: Ingress}, filter); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallRecord("m0", "after",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, filter); err != nil {
		t.Fatal(err)
	}

	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Send in bursts so the tiny queue overflows.
	const total = 200
	for i := 0; i < total; i++ {
		at := int64(i/10) * 5 * Millisecond // bursts of 10
		eng.Schedule(at, func() {
			if _, err := cli.Send(srvAddr, 64); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	eng.RunUntilIdle()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	before, err := s.Table("before")
	if err != nil {
		t.Fatal(err)
	}
	after, err := s.Table("after")
	if err != nil {
		t.Fatal(err)
	}
	if before.Len() != total {
		t.Fatalf("before = %d records", before.Len())
	}

	lost, rate := Loss(before, after)
	truth := int64(lossy.Stats().DroppedQueue)
	if truth == 0 {
		t.Fatal("test inert: the lossy device never dropped")
	}
	if lost != truth {
		t.Fatalf("traced loss %d != device drops %d", lost, truth)
	}
	if rate <= 0 || rate >= 1 {
		t.Fatalf("loss rate = %f", rate)
	}

	// Data cleaning (paper Section III-C): the incomplete packet IDs are
	// exactly the dropped ones.
	missing := before.Incomplete(after)
	if int64(len(missing)) != truth {
		t.Fatalf("incomplete IDs = %d, want %d", len(missing), truth)
	}
	for _, id := range missing {
		if len(after.ByTraceID(id)) != 0 {
			t.Fatalf("id %#x flagged incomplete but present downstream", id)
		}
	}
}

// TestPerFlowIsolation verifies the paper's per-flow programmability: two
// flows share a path; a filtered script traces only one, and its metrics
// are unaffected by the other flow's records not existing.
func TestPerFlowIsolation(t *testing.T) {
	eng := NewEngine(78)
	node := NewNode(eng, NodeConfig{Name: "m0", NumCPU: 2, TraceIDs: true})
	machine, err := NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewNetDev(eng, NetDevConfig{
		Name: "lo0", Ifindex: 1,
		ProcNs: func(*Packet) int64 { return 500 },
		Out:    node.DeliverLocal,
	})
	if err := machine.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	node.Egress = dev.Receive

	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallRecord("m0", "flowA",
		AttachPoint{Kind: AttachDevice, Device: "lo0", Dir: Ingress},
		Filter{Proto: ProtoUDP, DstPort: 9000}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Install("m0", TraceSpec{
		Name:    "flowB-count",
		Attach:  AttachPoint{Kind: AttachDevice, Device: "lo0", Dir: Ingress},
		Filter:  Filter{Proto: ProtoUDP, DstPort: 9001},
		Actions: []Action{ActionCount},
	}); err != nil {
		t.Fatal(err)
	}

	ip := MustParseIP("10.0.0.1")
	for _, port := range []uint16{9000, 9001} {
		if _, err := node.Open(ProtoUDP, SockAddr{IP: ip, Port: port}, func(*Packet) {}); err != nil {
			t.Fatal(err)
		}
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: ip, Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		port := uint16(9000)
		if i%3 == 0 {
			port = 9001 // 10 packets to flow B
		}
		dst := SockAddr{IP: ip, Port: port}
		eng.Schedule(int64(i)*Millisecond, func() { cli.Send(dst, 64) })
	}
	eng.RunUntilIdle()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	a, err := s.Table("flowA")
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != 20 {
		t.Fatalf("flowA records = %d, want 20", a.Len())
	}
	compiled, ok := s.Script("m0", "flowB-count")
	if !ok {
		t.Fatal("flowB script missing")
	}
	pkts, _ := compiled.ReadCounter(0)
	if pkts != 10 {
		t.Fatalf("flowB count = %d, want 10", pkts)
	}
}

// TestUprobeThroughSession traces an application-level symbol through the
// full pipeline.
func TestUprobeThroughSession(t *testing.T) {
	eng := NewEngine(79)
	node := NewNode(eng, NodeConfig{Name: "m0", NumCPU: 1, TraceIDs: true})
	machine, err := NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	site := UprobeSite("myapp", "on_request")
	if _, err := s.Install("m0", TraceSpec{
		Name:    "app-count",
		Attach:  AttachPoint{Kind: AttachUprobe, Site: site},
		Actions: []Action{ActionCount},
	}); err != nil {
		t.Fatal(err)
	}
	// The "application" fires its probe site on each request it handles.
	for i := 0; i < 9; i++ {
		node.Probes.Fire(&ProbeCtx{Site: site, TimeNs: node.Clock.NowNs()})
	}
	compiled, _ := s.Script("m0", "app-count")
	pkts, _ := compiled.ReadCounter(0)
	if pkts != 9 {
		t.Fatalf("uprobe count = %d, want 9", pkts)
	}
}
