package testbed

import (
	"fmt"

	"vnettracer"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/ovs"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/systemtap"
	"vnettracer/internal/vnet"
	"vnettracer/internal/workload"
)

// OverheadLatencyResult is Figure 7(a): sockperf latency with and without
// vNetTracer.
type OverheadLatencyResult struct {
	Baseline LatencyStats
	Traced   LatencyStats
	// MeanOverheadPct is the relative increase in mean latency.
	MeanOverheadPct float64
	// P999OverheadPct is the relative increase in 99.9th percentile.
	P999OverheadPct float64
	// BaselineLoss / TracedLoss are sockperf loss rates (the paper reports
	// vNetTracer adds no packet loss).
	BaselineLoss float64
	TracedLoss   float64
	// TraceRecords is the number of records the pipeline collected in the
	// traced run.
	TraceRecords int
}

// twoHostKVM is the Fig 7(a) topology: a KVM VM on each of two hosts,
// connected VM1 -> ovs-br1(A) -> wire -> ovs-br1(B) -> VM2 and back.
type twoHostKVM struct {
	eng *sim.Engine
	vm  [2]*kernel.Node
	vmM [2]*core.Machine
	// hostM are the hypervisor-side machines (OVS ports live here).
	hostM [2]*core.Machine
	vmIP  [2]vnet.IPv4
}

func newTwoHostKVM(seed int64, linkBps int64) *twoHostKVM {
	eng := sim.NewEngine(seed)
	tb := &twoHostKVM{eng: eng}
	tb.vmIP = [2]vnet.IPv4{vnet.MustParseIPv4("10.0.0.1"), vnet.MustParseIPv4("10.0.0.2")}

	var links [2]*vnet.Link // links[i] transmits from host i to host 1-i
	bridges := [2]*ovs.Bridge{}

	for i := 0; i < 2; i++ {
		i := i
		vm := kernel.NewNode(eng, kernel.NodeConfig{
			Name: fmt.Sprintf("vm%d", i+1), NumCPU: 4, TraceIDs: true, Seed: int64(i + 1),
			ClockOffsetNs: int64(i) * 7 * MS, // skew between hosts
		})
		host := kernel.NewNode(eng, kernel.NodeConfig{
			Name: fmt.Sprintf("host%d", i+1), NumCPU: 20, Seed: int64(100 + i),
			ClockOffsetNs: int64(i) * 7 * MS,
		})
		tb.vm[i] = vm
		tb.vmM[i] = newMachine(vm)
		tb.hostM[i] = newMachine(host)

		br := ovs.New(eng, ovs.DefaultConfig(fmt.Sprintf("br%d", i)))
		bridges[i] = br
		vmPort, err := br.AddPort("ovs-br1", 10, nil, nil)
		if err != nil {
			panic(err)
		}
		if _, err := br.AddPort("uplink", 11, nil, nil); err != nil {
			panic(err)
		}
		if err := tb.hostM[i].RegisterDevice(vmPort.In); err != nil {
			panic(err)
		}

		// VM NIC: used by both directions so attached scripts observe
		// every crossing, as on a real interface.
		ens3 := stackDev(eng, "ens3", 3, 800, nil)
		if err := tb.vmM[i].RegisterDevice(ens3); err != nil {
			panic(err)
		}
		ens3.SetOut(func(p *vnet.Packet) {
			if p.IP.Dst == tb.vmIP[i] {
				vm.SoftirqNetRX(p, ens3, vm.DeliverLocal)
			} else {
				vmPort.In.Receive(p)
			}
		})
		vm.Egress = ens3.Receive

		// Bridge routing: local VM via ovs-br1, everything else uplink.
		if err := br.AddRoute(tb.vmIP[i], "ovs-br1"); err != nil {
			panic(err)
		}
		if err := br.AddRoute(tb.vmIP[1-i], "uplink"); err != nil {
			panic(err)
		}
		vmPort.SetOut(ens3.Receive)
	}

	for i := 0; i < 2; i++ {
		i := i
		links[i] = vnet.NewLink(eng, linkBps, 30*US, func(p *vnet.Packet) {
			up, _ := bridges[1-i].Port("uplink")
			up.In.Receive(p)
		})
		up, _ := bridges[i].Port("uplink")
		up.SetOut(links[i].Send)
	}
	return tb
}

// RunOverheadLatency runs Figure 7(a): sockperf UDP ping-pong between two
// KVM VMs, baseline versus four attached trace scripts (ovs-br1 and ens3
// on both hosts).
func RunOverheadLatency(pings int) (OverheadLatencyResult, error) {
	run := func(traced bool) (LatencyStats, float64, int, error) {
		tb := newTwoHostKVM(42, Gbps)
		tr := vnettracer.NewSession()
		records := 0
		if traced {
			for i := 0; i < 2; i++ {
				if _, err := tr.AddMachine(tb.vmM[i]); err != nil {
					return LatencyStats{}, 0, 0, err
				}
				if _, err := tr.AddMachine(tb.hostM[i]); err != nil {
					return LatencyStats{}, 0, 0, err
				}
			}
			filter := script.Filter{Proto: vnet.ProtoUDP, DstPort: 11111}
			for i := 0; i < 2; i++ {
				vmName := tb.vm[i].Name
				hostName := tb.hostM[i].Node.Name
				if _, err := tr.InstallRecord(vmName, fmt.Sprintf("ens3@%s", vmName),
					core.AttachPoint{Kind: core.AttachDevice, Device: "ens3", Dir: vnet.Ingress}, filter); err != nil {
					return LatencyStats{}, 0, 0, err
				}
				if _, err := tr.InstallRecord(hostName, fmt.Sprintf("ovs-br1@%s", hostName),
					core.AttachPoint{Kind: core.AttachDevice, Device: "ovs-br1", Dir: vnet.Ingress}, filter); err != nil {
					return LatencyStats{}, 0, 0, err
				}
			}
		}
		srv, err := workload.StartSockperfServer(tb.vm[1], kernel.SockAddr{IP: tb.vmIP[1], Port: 11111})
		if err != nil {
			return LatencyStats{}, 0, 0, err
		}
		_ = srv
		cli, err := workload.NewSockperfClient(tb.vm[0],
			kernel.SockAddr{IP: tb.vmIP[0], Port: 40000},
			kernel.SockAddr{IP: tb.vmIP[1], Port: 11111},
			56, 100*US)
		if err != nil {
			return LatencyStats{}, 0, 0, err
		}
		cli.Run(pings)
		tb.eng.Run(int64(pings+100) * 100 * US)
		if traced {
			if err := tr.Flush(); err != nil {
				return LatencyStats{}, 0, 0, err
			}
			records = int(tr.StorageStats().Records())
		}
		return NewLatencyStats(cli.Latencies()), cli.LossRate(), records, nil
	}

	base, baseLoss, _, err := run(false)
	if err != nil {
		return OverheadLatencyResult{}, err
	}
	traced, tracedLoss, records, err := run(true)
	if err != nil {
		return OverheadLatencyResult{}, err
	}
	res := OverheadLatencyResult{
		Baseline:     base,
		Traced:       traced,
		BaselineLoss: baseLoss,
		TracedLoss:   tracedLoss,
		TraceRecords: records,
	}
	if base.MeanUs > 0 {
		res.MeanOverheadPct = (traced.MeanUs - base.MeanUs) / base.MeanUs * 100
	}
	if base.P999Us > 0 {
		res.P999OverheadPct = (traced.P999Us - base.P999Us) / base.P999Us * 100
	}
	return res, nil
}

// OverheadThroughputResult is Figure 7(b): Netperf throughput under no
// tracing, vNetTracer, and SystemTap, at one link speed.
type OverheadThroughputResult struct {
	LinkBps      int64
	BaselineBps  float64
	VNetBps      float64
	SystemTapBps float64
	// Loss percentages relative to baseline.
	VNetLossPct      float64
	SystemTapLossPct float64
}

// netperfRig is the Fig 7(b) topology: a netperf client host streaming TCP
// into a 1-vCPU Xen VM whose receive path is CPU-bound.
type netperfRig struct {
	eng    *sim.Engine
	client *kernel.Node
	server *kernel.Node
	srvM   *core.Machine
}

func newNetperfRig(seed, linkBps int64) *netperfRig {
	eng := sim.NewEngine(seed)
	client := kernel.NewNode(eng, kernel.NodeConfig{Name: "client", NumCPU: 20, TraceIDs: true, Seed: 1})
	serverCosts := kernel.DefaultCosts()
	// Xen PV receive on one vCPU: ~10.5us of CPU per segment, just inside
	// the 11.6us per-packet budget of a 1 Gbps 1448-byte stream. Tracing
	// cost added on top of this either fits (eBPF, ~100ns) or blows the
	// budget (SystemTap, ~3.4us), which is exactly the paper's contrast.
	serverCosts.TCPRecv = 9000
	serverCosts.SoftirqBase = 1500
	server := kernel.NewNode(eng, kernel.NodeConfig{
		Name: "xenvm", NumCPU: 1, TraceIDs: true, RecvOnCPU: true,
		Costs: serverCosts, Seed: 2,
	})
	r := &netperfRig{eng: eng, client: client, server: server, srvM: newMachine(server)}

	eth1 := stackDev(eng, "eth1", 4, 500, nil)
	if err := r.srvM.RegisterDevice(eth1); err != nil {
		panic(err)
	}
	toServer := vnet.NewLink(eng, linkBps, 10*US, eth1.Receive)
	eth1.SetOut(func(p *vnet.Packet) { server.SoftirqNetRX(p, eth1, server.DeliverLocal) })
	toClient := vnet.NewLink(eng, linkBps, 10*US, client.DeliverLocal)
	client.Egress = toServer.Send
	server.Egress = toClient.Send
	return r
}

// TracerMode selects the Figure 7(b) configuration under test.
type TracerMode int

// Tracer modes.
const (
	ModeBaseline TracerMode = iota
	ModeVNetTracer
	ModeSystemTap
)

func (m TracerMode) String() string {
	switch m {
	case ModeBaseline:
		return "baseline"
	case ModeVNetTracer:
		return "vnettracer"
	case ModeSystemTap:
		return "systemtap"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// netperfThroughput runs one Fig 7(b) configuration and returns achieved
// throughput in bits per second.
func netperfThroughput(linkBps int64, mode TracerMode, segments, window int) (float64, error) {
	r := newNetperfRig(7, linkBps)

	switch mode {
	case ModeVNetTracer:
		tr := vnettracer.NewSession()
		if _, err := tr.AddMachine(r.srvM); err != nil {
			return 0, err
		}
		if _, err := tr.InstallRecord("xenvm", "tcp_recvmsg@xenvm",
			core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteTCPRecvmsg},
			script.Filter{Proto: vnet.ProtoTCP}); err != nil {
			return 0, err
		}
	case ModeSystemTap:
		cfg := systemtap.DefaultConfig()
		cfg.PerEventNs = 3400 // per-event handler + kernel/user copies
		cfg.CompileNs = 0     // measurement starts after stap is up
		cfg.NoOverload = true // the paper runs with STP_NO_OVERLOAD
		if _, err := systemtap.Attach(r.server, kernel.SiteTCPRecvmsg, cfg); err != nil {
			return 0, err
		}
	}

	srv, err := workload.StartNetperfServer(r.server, kernel.SockAddr{IP: 2, Port: 12865})
	if err != nil {
		return 0, err
	}
	cli, err := workload.NewNetperfClient(r.client,
		kernel.SockAddr{IP: 1, Port: 40000}, kernel.SockAddr{IP: 2, Port: 12865},
		1448, window)
	if err != nil {
		return 0, err
	}
	cli.Run(segments)
	r.eng.Run(60 * SEC)
	return srv.ThroughputBps(), nil
}

// RunOverheadThroughput runs Figure 7(b) at the given link speed. The
// netperf socket window follows the link's bandwidth-delay product, as
// netperf's autotuning does.
func RunOverheadThroughput(linkBps int64, segments int) (OverheadThroughputResult, error) {
	window := 16
	if linkBps > 2*Gbps {
		window = 64
	}
	res := OverheadThroughputResult{LinkBps: linkBps}
	var err error
	if res.BaselineBps, err = netperfThroughput(linkBps, ModeBaseline, segments, window); err != nil {
		return res, err
	}
	if res.VNetBps, err = netperfThroughput(linkBps, ModeVNetTracer, segments, window); err != nil {
		return res, err
	}
	if res.SystemTapBps, err = netperfThroughput(linkBps, ModeSystemTap, segments, window); err != nil {
		return res, err
	}
	if res.BaselineBps > 0 {
		res.VNetLossPct = (res.BaselineBps - res.VNetBps) / res.BaselineBps * 100
		res.SystemTapLossPct = (res.BaselineBps - res.SystemTapBps) / res.BaselineBps * 100
	}
	return res, nil
}
