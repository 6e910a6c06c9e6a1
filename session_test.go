package vnettracer

import (
	"testing"
)

// buildLoopbackMachine wires a one-node loopback topology through a traced
// device, exercising the full public API surface.
func buildLoopbackMachine(t *testing.T, eng *Engine) (*Machine, *NetDev) {
	t.Helper()
	node := NewNode(eng, NodeConfig{Name: "m0", NumCPU: 2, TraceIDs: true})
	machine, err := NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	dev := NewNetDev(eng, NetDevConfig{
		Name:    "lo0",
		Ifindex: 1,
		ProcNs:  func(*Packet) int64 { return 1000 },
		Out:     node.DeliverLocal,
	})
	if err := machine.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	node.Egress = dev.Receive
	return machine, dev
}

func TestSessionEndToEnd(t *testing.T) {
	eng := NewEngine(1)
	machine, _ := buildLoopbackMachine(t, eng)
	node := machine.Node

	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.AddMachine(machine); err == nil {
		t.Fatal("duplicate machine accepted")
	}
	if _, ok := s.Agent("m0"); !ok {
		t.Fatal("agent not registered")
	}
	if _, ok := s.Agent("ghost"); ok {
		t.Fatal("phantom agent")
	}

	filter := Filter{Proto: ProtoUDP, DstPort: 9000}
	tpid, err := s.InstallRecord("m0", "dev-rx",
		AttachPoint{Kind: AttachDevice, Device: "lo0", Dir: Ingress}, filter)
	if err != nil {
		t.Fatal(err)
	}
	if tpid == 0 {
		t.Fatal("no TPID allocated")
	}
	if _, err := s.InstallRecord("ghost", "p2",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, filter); err == nil {
		t.Fatal("install to unknown machine accepted")
	}
	if _, err := s.Table("ghost"); err == nil {
		t.Fatal("phantom table")
	}
	if _, err := s.InstallRecord("m0", "sock-rx",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, filter); err != nil {
		t.Fatal(err)
	}

	// Workload: 100 UDP packets through the loopback device.
	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	received := 0
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) { received++ }); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		eng.Schedule(int64(i)*Millisecond, func() {
			if _, err := cli.Send(srvAddr, 100); err != nil {
				t.Errorf("send: %v", err)
			}
		})
	}
	eng.RunUntilIdle()
	if received != 100 {
		t.Fatalf("received %d", received)
	}

	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	devT, err := s.Table("dev-rx")
	if err != nil {
		t.Fatal(err)
	}
	sockT, err := s.Table("sock-rx")
	if err != nil {
		t.Fatal(err)
	}
	if devT.Len() != 100 || sockT.Len() != 100 {
		t.Fatalf("tables: dev=%d sock=%d", devT.Len(), sockT.Len())
	}

	// Latency dev -> socket is positive for every packet.
	lats := Latencies(devT, sockT)
	if len(lats) != 100 {
		t.Fatalf("joined %d", len(lats))
	}
	for _, l := range lats {
		if l.Ns <= 0 {
			t.Fatalf("non-positive latency %d", l.Ns)
		}
	}
	sum := Summarize(Values(lats))
	if sum.Count != 100 || sum.MeanNs <= 0 {
		t.Fatalf("summary = %+v", sum)
	}
	if j := Jitter(lats); len(j) != 99 {
		t.Fatalf("jitter count = %d", len(j))
	}
	if lost, rate := Loss(devT, sockT); lost != 0 || rate != 0 {
		t.Fatalf("loss = %d (%f)", lost, rate)
	}
	if tput, err := ThroughputOf(devT); err != nil || tput <= 0 {
		t.Fatalf("throughput = %f err=%v", tput, err)
	}
}

func TestSessionRuntimeReconfiguration(t *testing.T) {
	eng := NewEngine(2)
	machine, _ := buildLoopbackMachine(t, eng)
	node := machine.Node
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallRecord("m0", "rx",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, Filter{}); err != nil {
		t.Fatal(err)
	}
	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40001}, nil)
	if err != nil {
		t.Fatal(err)
	}

	send := func() {
		if _, err := cli.Send(srvAddr, 50); err != nil {
			t.Fatal(err)
		}
		eng.RunUntilIdle()
	}
	send()
	// Reconfigure at runtime: remove the script, traffic continues untraced.
	if err := s.Uninstall("m0", "rx"); err != nil {
		t.Fatal(err)
	}
	send()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	tbl, err := s.Table("rx")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Len() != 1 {
		t.Fatalf("records = %d, want 1 (uninstall must stop tracing)", tbl.Len())
	}
}

func TestSessionCounterScripts(t *testing.T) {
	eng := NewEngine(3)
	machine, _ := buildLoopbackMachine(t, eng)
	node := machine.Node
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Install("m0", TraceSpec{
		Name:    "counters",
		Attach:  AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg},
		Actions: []Action{ActionCount, ActionCPUHist},
		NumCPU:  2,
	}); err != nil {
		t.Fatal(err)
	}
	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		cli.Send(srvAddr, 64)
	}
	eng.RunUntilIdle()

	compiled, ok := s.Script("m0", "counters")
	if !ok {
		t.Fatal("script not found")
	}
	pkts, ok := compiled.ReadCounter(0)
	if !ok || pkts != 7 {
		t.Fatalf("packets = %d ok=%v", pkts, ok)
	}
	hist := compiled.ReadCPUHist()
	var total uint64
	for _, h := range hist {
		total += h
	}
	if total != 7 {
		t.Fatalf("cpu hist total = %d", total)
	}
}

func TestSessionSkewAlignment(t *testing.T) {
	eng := NewEngine(4)
	machine, _ := buildLoopbackMachine(t, eng)
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallRecord("m0", "rx",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, Filter{}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSkew("rx", 500); err != nil {
		t.Fatal(err)
	}
	if err := s.SetSkew("nope", 1); err == nil {
		t.Fatal("SetSkew on unknown label accepted")
	}
}

func TestSessionDecompose(t *testing.T) {
	eng := NewEngine(5)
	machine, _ := buildLoopbackMachine(t, eng)
	node := machine.Node
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	at1 := AttachPoint{Kind: AttachDevice, Device: "lo0", Dir: Ingress}
	at2 := AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}
	at3 := AttachPoint{Kind: AttachKretprobe, Site: SiteUDPRecvmsg}
	for label, at := range map[string]AttachPoint{"dev": at1, "recv": at2, "recv-ret": at3} {
		if _, err := s.InstallRecord("m0", label, at, Filter{Proto: ProtoUDP, DstPort: 9000}); err != nil {
			t.Fatal(err)
		}
	}
	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40000}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		eng.Schedule(int64(i)*Millisecond, func() { cli.Send(srvAddr, 64) })
	}
	eng.RunUntilIdle()
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := s.Decompose("dev", "recv", "recv-ret")
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d", len(segs))
	}
	for _, seg := range segs {
		if len(seg.PerPacket) != 20 {
			t.Fatalf("segment %s->%s joined %d packets", seg.From, seg.To, len(seg.PerPacket))
		}
		if seg.MeanNs() <= 0 {
			t.Fatalf("segment %s->%s mean %.1f", seg.From, seg.To, seg.MeanNs())
		}
	}
	if _, err := s.Decompose("dev"); err == nil {
		t.Fatal("single-stage decomposition accepted")
	}
	if _, err := s.Decompose("dev", "ghost"); err == nil {
		t.Fatal("unknown label accepted")
	}
}

// TestSessionRestartAgent: a restarted agent comes back under the next
// epoch lease with the session's periodic flush, the supervision pass
// re-attaches its scripts, and what the previous incarnation still ships
// is fenced and counted.
func TestSessionRestartAgent(t *testing.T) {
	eng := NewEngine(6)
	machine, _ := buildLoopbackMachine(t, eng)
	node := machine.Node
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	if _, err := s.InstallRecord("m0", "rx",
		AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}, Filter{}); err != nil {
		t.Fatal(err)
	}
	s.StartFlushing(10 * Millisecond)
	srvAddr := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
	if _, err := node.Open(ProtoUDP, srvAddr, func(*Packet) {}); err != nil {
		t.Fatal(err)
	}
	cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: 40001}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// burst sends n packets and runs the engine just long enough to
	// deliver them — well short of a flush interval.
	burst := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := cli.Send(srvAddr, 50); err != nil {
				t.Fatal(err)
			}
		}
		eng.Run(eng.Now() + 100*Microsecond)
	}
	tbl, err := s.Table("rx")
	if err != nil {
		t.Fatal(err)
	}

	burst(10)
	eng.Run(eng.Now() + 15*Millisecond)
	if tbl.Len() != 10 {
		t.Fatalf("before the restart: %d records, want 10", tbl.Len())
	}

	if _, _, err := s.RestartAgent("ghost"); err == nil {
		t.Fatal("restart of an unknown machine accepted")
	}
	fresh, zombie, err := s.RestartAgent("m0")
	if err != nil {
		t.Fatal(err)
	}
	if cur, _ := s.Agent("m0"); cur != fresh || fresh.Epoch() != 2 || zombie.Epoch() != 1 {
		t.Fatalf("epochs after restart: fresh %d, zombie %d", fresh.Epoch(), zombie.Epoch())
	}
	if got := fresh.Installed(); len(got) != 0 {
		t.Fatalf("fresh agent starts with %v installed", got)
	}
	s.Supervise(eng.Now())
	if got := fresh.Installed(); len(got) != 1 || got[0] != "rx" {
		t.Fatalf("after supervision the fresh agent has %v installed, want [rx]", got)
	}

	// Once the fresh agent's first flush has announced its lease, what the
	// zombie drains from the machine's ring ships under a stale one.
	eng.Run(eng.Now() + 10*Millisecond)
	burst(3)
	zombie.Flush()
	if batches, records := s.Collector().FencedStats(); batches != 1 || records != 3 {
		t.Fatalf("fenced %d batches / %d records, want 1 / 3", batches, records)
	}
	if tbl.Len() != 10 {
		t.Fatalf("the zombie's batch reached the table: %d records", tbl.Len())
	}

	// The fresh agent flushes on the session's interval, unprompted.
	burst(10)
	eng.Run(eng.Now() + 15*Millisecond)
	if tbl.Len() != 20 {
		t.Fatalf("after the restart: %d records, want 20 (one per packet, flushed by the fresh agent's own timer)", tbl.Len())
	}
}

// TestSessionInstallUnknownMachine: an Install aimed at a machine the
// session does not have fails before allocating anything — no label, no
// table, no desired state for supervision to re-push — so retries leak
// nothing and the next good Install gets the first TPID.
func TestSessionInstallUnknownMachine(t *testing.T) {
	eng := NewEngine(7)
	machine, _ := buildLoopbackMachine(t, eng)
	s := NewSession()
	if _, err := s.AddMachine(machine); err != nil {
		t.Fatal(err)
	}
	at := AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg}
	for try := 0; try < 2; try++ {
		if _, err := s.InstallRecord("nope", "rx", at, Filter{}); err == nil {
			t.Fatal("install on an unknown machine accepted")
		}
	}
	if _, err := s.Table("rx"); err == nil {
		t.Fatal("a failed install bound its label")
	}
	if got := s.DB().Tables(); len(got) != 0 {
		t.Fatalf("failed installs left tables %v", got)
	}
	if pkg, ok := s.Supervisor().Desired("nope"); ok {
		t.Fatalf("a failed install left desired state %+v for supervision to re-push", pkg)
	}
	tpid, err := s.InstallRecord("m0", "rx", at, Filter{})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.DB().Tables(); tpid != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("after the good install: TPID %d, tables %v; want 1, [1]", tpid, got)
	}
}
