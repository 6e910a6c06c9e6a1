package systemtap

import (
	"testing"

	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

func fire(n *kernel.Node, site string) int64 {
	return n.Probes.Fire(&kernel.ProbeCtx{
		Site:   site,
		Pkt:    &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}},
		TimeNs: n.Clock.NowNs(),
	})
}

func TestProbeChargesPerEventCost(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	cfg := Config{PerEventNs: 4000, CompileNs: 0, NoOverload: true}
	p, err := Attach(n, kernel.SiteTCPRecvmsg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fire(n, kernel.SiteTCPRecvmsg); got != 4000 {
		t.Fatalf("cost = %d, want 4000", got)
	}
	if p.Events != 1 || p.CostNs != 4000 {
		t.Fatalf("stats = %+v", p)
	}
}

func TestProbeInactiveDuringCompilation(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	cfg := Config{PerEventNs: 4000, CompileNs: int64(sim.Second), NoOverload: true}
	p, err := Attach(n, kernel.SiteTCPRecvmsg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fire(n, kernel.SiteTCPRecvmsg); got != 0 {
		t.Fatalf("cost during compile = %d", got)
	}
	eng.Run(2 * int64(sim.Second))
	if got := fire(n, kernel.SiteTCPRecvmsg); got != 4000 {
		t.Fatalf("cost after compile = %d", got)
	}
	if p.Events != 1 {
		t.Fatalf("events = %d", p.Events)
	}
}

func TestOverloadGuardKillsProbe(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	cfg := Config{PerEventNs: 10 * int64(sim.Millisecond), CompileNs: 0, OverloadFrac: 0.5}
	p, err := Attach(n, kernel.SiteTCPRecvmsg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 51 events x 10ms = 510ms of overhead within one second: guard trips.
	for i := 0; i < 60; i++ {
		fire(n, kernel.SiteTCPRecvmsg)
	}
	if !p.Overloaded {
		t.Fatal("overload guard never tripped")
	}
	if p.Events >= 60 {
		t.Fatalf("probe kept running after overload: %d events", p.Events)
	}
	// Detached: further fires cost nothing.
	if got := fire(n, kernel.SiteTCPRecvmsg); got != 0 {
		t.Fatalf("killed probe charged %d", got)
	}
}

func TestNoOverloadKeepsProbeAlive(t *testing.T) {
	eng := sim.NewEngine(1)
	_ = eng
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	cfg := Config{PerEventNs: 10 * int64(sim.Millisecond), CompileNs: 0, NoOverload: true}
	p, err := Attach(n, kernel.SiteTCPRecvmsg, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		fire(n, kernel.SiteTCPRecvmsg)
	}
	if p.Overloaded {
		t.Fatal("STP_NO_OVERLOAD probe was killed")
	}
	if p.Events != 200 {
		t.Fatalf("events = %d", p.Events)
	}
}

func TestAttachValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	if _, err := Attach(n, "", DefaultConfig()); err == nil {
		t.Fatal("empty site accepted")
	}
}

func TestDetachIdempotent(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	p, err := Attach(n, kernel.SiteTCPRecvmsg, Config{PerEventNs: 100, NoOverload: true})
	if err != nil {
		t.Fatal(err)
	}
	p.Detach()
	p.Detach()
	if got := fire(n, kernel.SiteTCPRecvmsg); got != 0 {
		t.Fatalf("detached probe charged %d", got)
	}
}
