package kernel

import (
	"testing"

	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

func newTestNode(t *testing.T, cfg NodeConfig) (*sim.Engine, *Node) {
	t.Helper()
	eng := sim.NewEngine(1)
	if cfg.Name == "" {
		cfg.Name = "node0"
	}
	return eng, NewNode(eng, cfg)
}

func TestCPUSerializesWork(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCPU(eng, 0)
	var done []int64
	c.Exec(100, func() { done = append(done, eng.Now()) })
	c.Exec(100, func() { done = append(done, eng.Now()) })
	eng.RunUntilIdle()
	if len(done) != 2 || done[0] != 100 || done[1] != 200 {
		t.Fatalf("completions = %v, want [100 200]", done)
	}
	if c.BusyNs() != 200 {
		t.Fatalf("BusyNs = %d", c.BusyNs())
	}
}

func TestCPUIdleDetection(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewCPU(eng, 0)
	if !c.Idle() {
		t.Fatal("fresh CPU should be idle")
	}
	c.Exec(100, func() {})
	if c.Idle() {
		t.Fatal("CPU with queued work should be busy")
	}
	eng.RunUntilIdle()
	if !c.Idle() {
		t.Fatal("CPU should be idle after work drains")
	}
}

func TestProbeRegistryAttachFireDetach(t *testing.T) {
	r := NewProbeRegistry()
	var fired int
	detach := r.Attach(SiteNetRxAction, func(ctx *ProbeCtx) int64 {
		fired++
		return 10
	})
	if got := r.Fire(&ProbeCtx{Site: SiteNetRxAction}); got != 10 {
		t.Fatalf("Fire cost = %d, want 10", got)
	}
	if got := r.Fire(&ProbeCtx{Site: SiteTCPRecvmsg}); got != 0 {
		t.Fatalf("unattached site cost = %d", got)
	}
	detach()
	if got := r.Fire(&ProbeCtx{Site: SiteNetRxAction}); got != 0 {
		t.Fatalf("after detach cost = %d", got)
	}
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestProbeRegistryMultipleHandlersSumCost(t *testing.T) {
	r := NewProbeRegistry()
	r.Attach(SiteUDPRecvmsg, func(*ProbeCtx) int64 { return 5 })
	r.Attach(SiteUDPRecvmsg, func(*ProbeCtx) int64 { return 7 })
	if got := r.Fire(&ProbeCtx{Site: SiteUDPRecvmsg}); got != 12 {
		t.Fatalf("summed cost = %d, want 12", got)
	}
	if r.Attached(SiteUDPRecvmsg) != 2 {
		t.Fatalf("Attached = %d", r.Attached(SiteUDPRecvmsg))
	}
}

func TestSocketSendReceiveLoopback(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 2})
	// Loopback: egress feeds straight back to local delivery.
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }

	var got *vnet.Packet
	var at int64
	_, err := n.Open(vnet.ProtoUDP, SockAddr{IP: vnet.MustParseIPv4("10.0.0.1"), Port: 9000},
		func(p *vnet.Packet) { got, at = p, eng.Now() })
	if err != nil {
		t.Fatal(err)
	}
	cli, err := n.Open(vnet.ProtoUDP, SockAddr{IP: vnet.MustParseIPv4("10.0.0.1"), Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Send(SockAddr{IP: vnet.MustParseIPv4("10.0.0.1"), Port: 9000}, 56); err != nil {
		t.Fatal(err)
	}
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if len(got.Payload) != 56 {
		t.Fatalf("payload = %d bytes (trace IDs disabled, nothing to trim)", len(got.Payload))
	}
	want := DefaultCosts().UDPSend + DefaultCosts().UDPRecv
	if at != want {
		t.Fatalf("delivery at %d, want %d", at, want)
	}
}

func TestSocketTraceIDTransparency(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 1, TraceIDs: true})
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }

	var got *vnet.Packet
	if _, err := n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, func(p *vnet.Packet) { got = p }); err != nil {
		t.Fatal(err)
	}
	cli, err := n.Open(vnet.ProtoUDP, SockAddr{IP: 1, Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sent, err := cli.Send(SockAddr{IP: 2, Port: 9000}, 56)
	if err != nil {
		t.Fatal(err)
	}
	if sent.TraceID == 0 {
		t.Fatal("trace ID not inserted")
	}
	if len(sent.Payload) != 60 {
		t.Fatalf("in-flight payload = %d, want 60 (56 + 4-byte ID)", len(sent.Payload))
	}
	eng.RunUntilIdle()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if len(got.Payload) != 56 {
		t.Fatalf("application saw %d bytes, want 56 (ID must be stripped)", len(got.Payload))
	}
}

// A send allocates its payload once: the UDP trace ID lands in the spare
// capacity behind the caller's bytes, the caller's slice stays unaliased,
// a clone shares no bytes with the packet, and stripping the ID at the
// receiver only shortens the slice.
func TestSocketSendPayloadAllocatedOnce(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 1, TraceIDs: true})
	var got *vnet.Packet
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }
	if _, err := n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, func(p *vnet.Packet) { got = p }); err != nil {
		t.Fatal(err)
	}
	cli, err := n.Open(vnet.ProtoUDP, SockAddr{IP: 1, Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	sent, err := cli.SendBytes(SockAddr{IP: 2, Port: 9000}, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent.Payload) != len(payload)+4 || cap(sent.Payload) != len(sent.Payload) {
		t.Fatalf("payload len %d cap %d, want the 4-byte ID in the spare capacity (len = cap = %d)",
			len(sent.Payload), cap(sent.Payload), len(payload)+4)
	}
	base := &sent.Payload[0]
	payload[0] = 99
	if sent.Payload[0] != 1 {
		t.Fatal("the packet aliases the caller's payload")
	}
	clone := sent.Clone()
	clone.Payload[1] = 99
	if sent.Payload[1] != 2 {
		t.Fatal("Clone shares payload bytes with the packet")
	}
	eng.RunUntilIdle()
	if got != sent {
		t.Fatal("the sent packet was not delivered")
	}
	if len(got.Payload) != len(payload) || &got.Payload[0] != base {
		t.Fatalf("received %d bytes at a moved payload, want the sent packet trimmed to %d in place",
			len(got.Payload), len(payload))
	}

	sent, err = cli.Send(SockAddr{IP: 2, Port: 9000}, 56)
	if err != nil {
		t.Fatal(err)
	}
	if len(sent.Payload) != 60 || cap(sent.Payload) != 60 {
		t.Fatalf("Send: payload len %d cap %d, want 60 and 60", len(sent.Payload), cap(sent.Payload))
	}
}

func TestSocketTCPTraceIDInOptions(t *testing.T) {
	_, n := newTestNode(t, NodeConfig{NumCPU: 1, TraceIDs: true})
	var captured *vnet.Packet
	n.Egress = func(p *vnet.Packet) { captured = p }
	cli, err := n.Open(vnet.ProtoTCP, SockAddr{IP: 1, Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Send(SockAddr{IP: 2, Port: 80}, 100); err != nil {
		t.Fatal(err)
	}
	n.Engine().RunUntilIdle()
	if captured == nil {
		t.Fatal("no egress")
	}
	opt, ok := captured.TCP.FindOption(vnet.TCPOptionTraceID)
	if !ok || len(opt.Data) != 4 {
		t.Fatalf("trace option missing: %+v", captured.TCP.Options)
	}
	if len(captured.Payload) != 100 {
		t.Fatalf("TCP payload must be untouched, got %d", len(captured.Payload))
	}
}

func TestDuplicateBindRejected(t *testing.T) {
	_, n := newTestNode(t, NodeConfig{})
	if _, err := n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, nil); err == nil {
		t.Fatal("duplicate bind accepted")
	}
	// Different proto is fine.
	if _, err := n.Open(vnet.ProtoTCP, SockAddr{Port: 9000}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloseUnbinds(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{})
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }
	s, err := n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, func(*vnet.Packet) {})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	cli, _ := n.Open(vnet.ProtoUDP, SockAddr{IP: 1, Port: 40001}, nil)
	cli.Send(SockAddr{IP: 2, Port: 9000}, 10)
	eng.RunUntilIdle()
	if n.DropNoSocket != 1 {
		t.Fatalf("DropNoSocket = %d, want 1", n.DropNoSocket)
	}
	if _, err := s.Send(SockAddr{}, 1); err == nil {
		t.Fatal("send on closed socket accepted")
	}
}

func TestWildcardBindReceives(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{})
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }
	var got int
	if _, err := n.Open(vnet.ProtoUDP, SockAddr{IP: 0, Port: 9000}, func(*vnet.Packet) { got++ }); err != nil {
		t.Fatal(err)
	}
	cli, _ := n.Open(vnet.ProtoUDP, SockAddr{IP: 1, Port: 40000}, nil)
	cli.Send(SockAddr{IP: vnet.MustParseIPv4("172.17.0.5"), Port: 9000}, 10)
	eng.RunUntilIdle()
	if got != 1 {
		t.Fatalf("wildcard socket received %d", got)
	}
}

func TestSoftirqSteeringWithoutRPS(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 4})
	// All softirqs land on CPU 0 regardless of flow.
	for i := 0; i < 20; i++ {
		p := &vnet.Packet{
			IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: vnet.IPv4(i), Dst: 99},
			UDP: &vnet.UDPHeader{SrcPort: uint16(1000 + i), DstPort: 53},
		}
		n.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	}
	eng.RunUntilIdle()
	if n.CPUs()[0].SoftirqCount != 20 {
		t.Fatalf("cpu0 softirqs = %d, want 20", n.CPUs()[0].SoftirqCount)
	}
	for i := 1; i < 4; i++ {
		if n.CPUs()[i].SoftirqCount != 0 {
			t.Fatalf("cpu%d got softirqs without RPS", i)
		}
	}
}

func TestSoftirqSteeringWithRPSSpreadsFlows(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 4, RPS: true})
	for i := 0; i < 64; i++ {
		p := &vnet.Packet{
			IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: vnet.IPv4(i), Dst: 99},
			UDP: &vnet.UDPHeader{SrcPort: uint16(1000 + i), DstPort: 53},
		}
		n.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	}
	eng.RunUntilIdle()
	busy := 0
	for _, c := range n.CPUs() {
		if c.SoftirqCount > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("RPS spread flows across %d CPUs, want >= 2", busy)
	}
}

func TestSoftirqRPSSameFlowSameCPU(t *testing.T) {
	// The paper's key observation: one connection hashes to one CPU, so
	// RPS cannot help a single containerized flow.
	eng, n := newTestNode(t, NodeConfig{NumCPU: 8, RPS: true})
	for i := 0; i < 50; i++ {
		p := &vnet.Packet{
			IP:  vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 1, Dst: 2},
			TCP: &vnet.TCPHeader{SrcPort: 5555, DstPort: 80},
		}
		n.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	}
	eng.RunUntilIdle()
	busy := 0
	for _, c := range n.CPUs() {
		if c.SoftirqCount > 0 {
			busy++
		}
	}
	if busy != 1 {
		t.Fatalf("single flow spread over %d CPUs, want exactly 1", busy)
	}
}

func TestSoftirqWakePenaltyOnIdleCPU(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 1})
	costs := n.Costs()
	var first, second int64
	p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}}
	n.SoftirqNetRX(p, nil, func(*vnet.Packet) { first = eng.Now() })
	n.SoftirqNetRX(p, nil, func(*vnet.Packet) { second = eng.Now() })
	eng.RunUntilIdle()
	// First softirq pays the wakeup; the second runs back to back.
	if first != costs.SoftirqBase+costs.KsoftirqdWake {
		t.Fatalf("first = %d, want %d", first, costs.SoftirqBase+costs.KsoftirqdWake)
	}
	if second != first+costs.SoftirqBase {
		t.Fatalf("second = %d, want %d (no wake penalty)", second, first+costs.SoftirqBase)
	}
}

func TestProbeCostChargedToPacketPath(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 1})
	const traceCost = 700
	n.Probes.Attach(SiteNetRxAction, func(*ProbeCtx) int64 { return traceCost })
	var at int64
	p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}}
	n.SoftirqNetRX(p, nil, func(*vnet.Packet) { at = eng.Now() })
	eng.RunUntilIdle()
	costs := n.Costs()
	want := costs.SoftirqBase + costs.KsoftirqdWake + traceCost
	if at != want {
		t.Fatalf("completion = %d, want %d (tracing cost must be physical)", at, want)
	}
}

func TestGetRPSCPUProbeFires(t *testing.T) {
	eng, n := newTestNode(t, NodeConfig{NumCPU: 2, RPS: true})
	var cpus []int
	n.Probes.Attach(SiteGetRPSCPU, func(ctx *ProbeCtx) int64 {
		cpus = append(cpus, ctx.CPU)
		return 0
	})
	p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1}, UDP: &vnet.UDPHeader{SrcPort: 9}}
	n.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	eng.RunUntilIdle()
	if len(cpus) != 1 {
		t.Fatalf("get_rps_cpu fired %d times", len(cpus))
	}
	if cpus[0] < 0 || cpus[0] >= 2 {
		t.Fatalf("steered to CPU %d", cpus[0])
	}
}

func TestClockSkewVisibleInProbeTimestamps(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewNode(eng, NodeConfig{Name: "skewed", NumCPU: 1, ClockOffsetNs: 1000000})
	var ts int64
	n.Probes.Attach(SiteUDPRecvmsg, func(ctx *ProbeCtx) int64 {
		ts = ctx.TimeNs
		return 0
	})
	n.Egress = func(p *vnet.Packet) { n.DeliverLocal(p) }
	n.Open(vnet.ProtoUDP, SockAddr{Port: 9000}, func(*vnet.Packet) {})
	cli, _ := n.Open(vnet.ProtoUDP, SockAddr{IP: 1, Port: 40000}, nil)
	cli.Send(SockAddr{IP: 2, Port: 9000}, 10)
	eng.RunUntilIdle()
	if ts < 1000000 {
		t.Fatalf("probe timestamp %d ignores clock offset", ts)
	}
}
