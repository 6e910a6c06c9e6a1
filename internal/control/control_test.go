package control

import (
	"errors"
	"net"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// rig is a single-machine tracing pipeline for tests.
type rig struct {
	eng       *sim.Engine
	machine   *core.Machine
	agent     *Agent
	collector *Collector
	db        *tracedb.DB
}

func newRig(t *testing.T) *rig {
	t.Helper()
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n0", NumCPU: 2, TraceIDs: true})
	machine, err := core.NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	db := tracedb.New()
	collector := NewCollectorWith(db, tracedb.NewAggStore())
	agent := NewAgent("agent-0", machine, collector)
	return &rig{eng: eng, machine: machine, agent: agent, collector: collector, db: db}
}

// dispatcherWith returns a dispatcher whose collector tier is col alone
// (a fresh collector when nil), so agents can register.
func dispatcherWith(t *testing.T, col *Collector) *Dispatcher {
	t.Helper()
	if col == nil {
		col = NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
	}
	d := NewDispatcher()
	if err := d.AddCollector("col-0", col, nil); err != nil {
		t.Fatal(err)
	}
	return d
}

// remoteAgent is an agent driven over the TCP control channel; its
// delivery sink is wired on its own side of the wire, so a retarget has
// nothing to change here.
type remoteAgent struct{ *TCPControlClient }

func (remoteAgent) Retarget(RecordSink, uint64) {}

func recordSpec(name string, tpid uint32, site string) script.Spec {
	return script.Spec{
		Name:    name,
		TPID:    tpid,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: site},
		Actions: []script.Action{script.ActionRecord},
	}
}

func firePacket(r *rig, site string, traceID uint32) {
	p := &vnet.Packet{
		IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
		UDP:     &vnet.UDPHeader{SrcPort: 10, DstPort: 20},
		TraceID: traceID,
	}
	r.machine.Node.Probes.Fire(&kernel.ProbeCtx{Site: site, Pkt: p, TimeNs: r.machine.Node.Clock.NowNs()})
}

func TestAgentInstallTraceFlushCollect(t *testing.T) {
	r := newRig(t)
	pkg := ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 0xaa)
	firePacket(r, kernel.SiteUDPRecvmsg, 0xbb)
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	tbl, ok := r.db.Table(1)
	if !ok || tbl.Len() != 2 {
		t.Fatalf("table missing or wrong size")
	}
	if len(tbl.ByTraceID(0xaa)) != 1 {
		t.Fatal("record for 0xaa missing")
	}
	// Flush is also the heartbeat.
	if agents := r.db.Agents(); len(agents) != 1 || agents[0] != "agent-0" {
		t.Fatalf("agents = %v", agents)
	}
	batches, records, drops := r.collector.Stats()
	if batches != 1 || records != 2 || drops != 0 {
		t.Fatalf("collector stats = %d %d %d", batches, records, drops)
	}
}

func TestAgentUninstallStopsTracing(t *testing.T) {
	r := newRig(t)
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	if err := r.agent.Apply(ControlPackage{Uninstall: []string{"s1"}}); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 2)
	r.agent.Flush()
	tbl, _ := r.db.Table(1)
	if tbl.Len() != 1 {
		t.Fatalf("records after uninstall = %d, want 1", tbl.Len())
	}
	if got := r.agent.Installed(); len(got) != 0 {
		t.Fatalf("installed = %v", got)
	}
}

func TestAgentRejectsDuplicateAndUnknown(t *testing.T) {
	r := newRig(t)
	spec := recordSpec("s1", 1, kernel.SiteUDPRecvmsg)
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{spec}}); err != nil {
		t.Fatal(err)
	}
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{spec}}); err == nil {
		t.Fatal("duplicate install accepted")
	}
	if err := r.agent.Apply(ControlPackage{Uninstall: []string{"nope"}}); err == nil {
		t.Fatal("unknown uninstall accepted")
	}
}

func TestAgentRejectsBadSpec(t *testing.T) {
	r := newRig(t)
	bad := script.Spec{Name: "bad", Attach: core.AttachPoint{Kind: core.AttachKProbe, Site: "x"}}
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{bad}}); err == nil {
		t.Fatal("spec without actions accepted")
	}
	// Unknown device fails at attach.
	badDev := script.Spec{
		Name:    "baddev",
		Attach:  core.AttachPoint{Kind: core.AttachDevice, Device: "ghost0"},
		Actions: []script.Action{script.ActionCount},
	}
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{badDev}}); err == nil {
		t.Fatal("attach to ghost device accepted")
	}
}

func TestAgentPeriodicFlush(t *testing.T) {
	r := newRig(t)
	if err := r.agent.Apply(ControlPackage{
		Install:         []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)},
		FlushIntervalNs: int64(sim.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		at := int64(i) * int64(sim.Millisecond) / 2
		id := uint32(i + 1)
		r.eng.Schedule(at, func() { firePacket(r, kernel.SiteUDPRecvmsg, id) })
	}
	r.eng.Run(10 * int64(sim.Millisecond))
	tbl, ok := r.db.Table(1)
	if !ok || tbl.Len() != 5 {
		t.Fatalf("periodic flush collected %d records, want 5", tbl.Len())
	}
	r.agent.StopFlushing()
	firePacket(r, kernel.SiteUDPRecvmsg, 99)
	r.eng.Run(r.eng.Now() + 10*int64(sim.Millisecond))
	tbl, _ = r.db.Table(1)
	if tbl.Len() != 5 {
		t.Fatal("flush kept running after StopFlushing")
	}
}

func TestAgentReportsRingDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n0", NumCPU: 1})
	machine, err := core.NewMachine(node, core.MinBufferBytes) // 32 bytes: no record fits twice
	if err != nil {
		t.Fatal(err)
	}
	db := tracedb.New()
	collector := NewCollectorWith(db, tracedb.NewAggStore())
	agent := NewAgent("a", machine, collector)
	if err := agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	r := &rig{eng: eng, machine: machine, agent: agent, collector: collector, db: db}
	firePacket(r, kernel.SiteUDPRecvmsg, 1) // 48 bytes > 32: dropped
	agent.Flush()
	_, _, drops := collector.Stats()
	if drops != 1 {
		t.Fatalf("drops = %d, want 1", drops)
	}
}

func TestDispatcherRegisterPush(t *testing.T) {
	r := newRig(t)
	d := dispatcherWith(t, r.collector)
	if err := d.Register("agent-0", r.agent); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("agent-0", r.agent); err == nil {
		t.Fatal("duplicate register accepted")
	}
	tp := d.AllocTPID()
	if err := d.Desire("agent-0", ControlPackage{Install: []script.Spec{recordSpec("s1", tp, kernel.SiteUDPRecvmsg)}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.Installed(); len(got) != 1 || got[0] != "s1" {
		t.Fatalf("installed %v, want [s1]", got)
	}
	if err := d.Desire("ghost", ControlPackage{}, 0); err == nil {
		t.Fatal("push to unknown agent accepted")
	}
	if err := d.Desire("agent-0", ControlPackage{Uninstall: []string{"s1"}}, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.Installed(); len(got) != 0 {
		t.Fatalf("installed %v after uninstall, want none", got)
	}
}

func TestDispatcherTPIDsUnique(t *testing.T) {
	d := NewDispatcher()
	seen := make(map[uint32]bool)
	for i := 0; i < 100; i++ {
		id := d.AllocTPID()
		if seen[id] {
			t.Fatalf("TPID %d allocated twice", id)
		}
		seen[id] = true
	}
}

func TestTCPControlAndBatchRoundTrip(t *testing.T) {
	r := newRig(t)

	// Agent-side server.
	agentLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	agentSrv := Serve(agentLn, r.agent, nil)
	defer agentSrv.Close()

	// Collector-side server backed by a separate DB.
	db2 := tracedb.New()
	col2 := NewCollectorWith(db2, tracedb.NewAggStore())
	colLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	colSrv := Serve(colLn, nil, col2)
	defer colSrv.Close()

	// Dispatcher pushes over TCP.
	ctl := NewTCPControlClient(agentSrv.Addr().String())
	defer ctl.Close()
	d := dispatcherWith(t, col2)
	if err := d.Register("agent-0", remoteAgent{ctl}); err != nil {
		t.Fatal(err)
	}
	if err := d.Desire("agent-0", ControlPackage{Install: []script.Spec{recordSpec("s1", 7, kernel.SiteUDPRecvmsg)}}, 0); err != nil {
		t.Fatal(err)
	}

	// Trace a packet, then flush through a TCP sink.
	firePacket(r, kernel.SiteUDPRecvmsg, 0xabc)
	sink := NewTCPSink(colSrv.Addr().String())
	defer sink.Close()
	tcpAgent := NewAgent("agent-0", r.machine, sink)
	if err := tcpAgent.Flush(); err != nil {
		t.Fatal(err)
	}
	tbl, ok := db2.Table(7)
	if !ok || tbl.Len() != 1 {
		t.Fatal("record did not cross TCP")
	}
	if recs := tbl.ByTraceID(0xabc); len(recs) != 1 {
		t.Fatal("trace id lost in transit")
	}
}

func TestTCPRemoteErrorPropagates(t *testing.T) {
	r := newRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, r.agent, nil)
	defer srv.Close()
	ctl := NewTCPControlClient(srv.Addr().String())
	defer ctl.Close()

	bad := script.Spec{Name: "bad"} // no actions: compile error on the agent
	err = ctl.Apply(ControlPackage{Install: []script.Spec{bad}})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
}

func TestTCPWrongEndpointRejected(t *testing.T) {
	// A batch sent to an agent-only endpoint must be rejected.
	r := newRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, r.agent, nil)
	defer srv.Close()
	sink := NewTCPSink(srv.Addr().String())
	defer sink.Close()
	err = sink.HandleBatch(RecordBatch{Agent: "x"})
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
}

func TestTCPSinkReconnects(t *testing.T) {
	db := tracedb.New()
	col := NewCollectorWith(db, tracedb.NewAggStore())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, col)
	sink := NewTCPSink(srv.Addr().String())
	defer sink.Close()
	if err := sink.HandleBatch(RecordBatch{Agent: "a", AgentTimeNs: 1}); err != nil {
		t.Fatal(err)
	}
	// Force the server side to drop the connection by closing our end.
	sink.client.mu.Lock()
	sink.client.conn.Close()
	sink.client.mu.Unlock()
	if err := sink.HandleBatch(RecordBatch{Agent: "a", AgentTimeNs: 2}); err != nil {
		t.Fatalf("reconnect failed: %v", err)
	}
	batches, _, _ := col.Stats()
	if batches != 2 {
		t.Fatalf("batches = %d", batches)
	}
	srv.Close()
}
