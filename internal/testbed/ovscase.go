package testbed

import (
	"fmt"

	"vnettracer"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/ovs"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
	"vnettracer/internal/workload"
)

// OVSCaseConfig selects one of the paper's Case I / II / II+ / III / III+
// scenarios (Figs. 8-9): a latency-sensitive sockperf flow sharing an OVS
// with varying numbers of throughput-intensive iperf flows.
type OVSCaseConfig struct {
	// IperfVM0 is the number of iperf clients on VM0 (sockperf's VM):
	// 0 = Case I, 1 = Case II, >1 = Case II+.
	IperfVM0 int
	// ExtraVMs adds VMs each running one iperf client through its own OVS
	// ingress port: 1 = Case III, >1 = Case III+.
	ExtraVMs int
	// Police applies the paper's mitigation: ingress policing at 1e5 kbps
	// rate and 1e4 kb burst on the client-facing ports (Fig. 9b).
	Police bool
	// HTB applies the paper's alternative mitigation: an HTB QoS class
	// shaping the bulk flows at the client-facing virtual ports ("we also
	// tried setting QoS policy with Hierarchy Token Bucket ... the effect
	// was similar"). The latency-sensitive sockperf flow is classified
	// into the unshaped default.
	HTB bool
	// Pings is the number of sockperf pings (default 5000).
	Pings int
	// Seed makes runs reproducible.
	Seed int64
}

// SegmentStats is one hop of the Fig. 9(a) latency decomposition.
type SegmentStats struct {
	Name   string
	MeanUs float64
	Count  int
}

// OVSCaseResult reports one scenario.
type OVSCaseResult struct {
	Label    string
	Sockperf LatencyStats
	LossRate float64
	// Decomposition: sender stack, OVS, receiver stack (traced).
	Segments []SegmentStats
	// PolicerDrops counts ingress-police drops across client ports.
	PolicerDrops uint64
	// ShaperDrops counts HTB qdisc-bound drops across client ports.
	ShaperDrops uint64
}

// sockperf flow parameters shared with the decomposition filter.
const (
	ovsSockperfPort = 11111
	ovsIperfPort    = 5001
)

// RunOVSCase builds the single-host 3+ VM OVS topology, runs the scenario,
// and decomposes the sockperf latency through the tracing pipeline.
func RunOVSCase(cfg OVSCaseConfig) (OVSCaseResult, error) {
	if cfg.Pings <= 0 {
		cfg.Pings = 5000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 11
	}
	eng := sim.NewEngine(cfg.Seed)

	numVMs := 3 + cfg.ExtraVMs // vm0 (clients), vm1.. (extra iperf), last = vm2 (servers)
	serverIdx := numVMs - 1

	// Build the bridge with a fabric that saturates under the iperf load.
	brCfg := ovs.DefaultConfig("ovs-br1")
	brCfg.FabricBaseNs = 2500 // ~400 kpps switching capacity
	brCfg.PortSwitchNs = 2500 // per extra contending ingress port
	brCfg.FlowMissNs = 30000
	brCfg.FabricQueueCap = 256 // OVS buffering before drop
	br := ovs.New(eng, brCfg)

	vms := make([]*kernel.Node, numVMs)
	machines := make([]*core.Machine, numVMs)
	ips := make([]vnet.IPv4, numVMs)
	for i := 0; i < numVMs; i++ {
		ips[i] = vnet.MustParseIPv4(fmt.Sprintf("10.0.0.%d", i+1))
	}

	policerFor := func(i int) *vnet.TokenBucket {
		if !cfg.Police || i == serverIdx {
			return nil
		}
		// Paper: ingress policing rate 1e5 kbps, burst 1e4 kb.
		return vnet.NewTokenBucket(100_000, 10_000)
	}
	shaperFor := func(i int) func(*vnet.Packet) *vnet.HTBClass {
		if !cfg.HTB || i == serverIdx {
			return nil
		}
		htb := vnet.NewHTB(100_000) // aggregate 1e5 kbps per port
		bulk := htb.NewClass(100_000, 100_000)
		return func(p *vnet.Packet) *vnet.HTBClass {
			if f := p.Flow(); f.Proto == vnet.ProtoUDP && f.DstPort == ovsSockperfPort {
				return nil // latency class: unshaped
			}
			return bulk
		}
	}

	ports := make([]*ovs.Port, numVMs)
	for i := 0; i < numVMs; i++ {
		i := i
		vm := kernel.NewNode(eng, kernel.NodeConfig{
			Name: fmt.Sprintf("vm%d", i), NumCPU: 4, TraceIDs: true, Seed: int64(i + 1),
		})
		vms[i] = vm
		machines[i] = newMachine(vm)

		port, err := br.AddPort(fmt.Sprintf("vnet%d", i), 10+i, policerFor(i), shaperFor(i))
		if err != nil {
			return OVSCaseResult{}, err
		}
		ports[i] = port
		if err := machines[i].RegisterDevice(port.In); err != nil {
			return OVSCaseResult{}, err
		}

		// em is the VM's interface in both directions: egress toward the
		// OVS port, ingress (packets switched to this VM) into the stack.
		em := stackDev(eng, "em", 3, 300, nil)
		if err := machines[i].RegisterDevice(em); err != nil {
			return OVSCaseResult{}, err
		}
		em.SetOut(func(p *vnet.Packet) {
			if p.IP.Dst == ips[i] {
				vm.SoftirqNetRX(p, em, vm.DeliverLocal)
			} else {
				port.In.Receive(p)
			}
		})
		vm.Egress = em.Receive
		if err := br.AddRoute(ips[i], fmt.Sprintf("vnet%d", i)); err != nil {
			return OVSCaseResult{}, err
		}
		port.SetOut(em.Receive)
	}

	// Tracing: decompose the sockperf flow c->s into sender stack, OVS,
	// receiver stack. The OVS segment is entered at the vnet0 ingress port
	// and exited at the server VM's em device.
	tr := vnettracer.NewSession()
	for i := range machines {
		if _, err := tr.AddMachine(machines[i]); err != nil {
			return OVSCaseResult{}, err
		}
	}
	filter := script.Filter{Proto: vnet.ProtoUDP, DstPort: ovsSockperfPort, DstIP: ips[serverIdx]}
	type tp struct {
		machine string
		label   string
		at      core.AttachPoint
	}
	tps := []tp{
		{"vm0", "udp_send@vm0", core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPSendSkb}},
		{"vm0", "vnet0-ingress", core.AttachPoint{Kind: core.AttachDevice, Device: "vnet0", Dir: vnet.Ingress}},
		{fmt.Sprintf("vm%d", serverIdx), "server-em", core.AttachPoint{Kind: core.AttachDevice, Device: "em", Dir: vnet.Ingress}},
		{fmt.Sprintf("vm%d", serverIdx), "udp_recv@server", core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}},
	}
	for _, p := range tps {
		if _, err := tr.InstallRecord(p.machine, p.label, p.at, filter); err != nil {
			return OVSCaseResult{}, err
		}
	}
	tr.StartFlushing(10 * MS)

	// Workloads.
	if _, err := workload.StartSockperfServer(vms[serverIdx], kernel.SockAddr{IP: ips[serverIdx], Port: ovsSockperfPort}); err != nil {
		return OVSCaseResult{}, err
	}
	spCli, err := workload.NewSockperfClient(vms[0],
		kernel.SockAddr{IP: ips[0], Port: 40000},
		kernel.SockAddr{IP: ips[serverIdx], Port: ovsSockperfPort},
		56, 100*US)
	if err != nil {
		return OVSCaseResult{}, err
	}

	duration := int64(cfg.Pings) * 100 * US
	iperfPort := uint16(ovsIperfPort)
	addIperf := func(vmIdx int, clientPort uint16) error {
		if _, err := workload.StartIPerfServer(vms[serverIdx], kernel.SockAddr{IP: ips[serverIdx], Port: iperfPort}); err != nil {
			return err
		}
		cli, err := workload.NewIPerfClient(vms[vmIdx],
			kernel.SockAddr{IP: ips[vmIdx], Port: clientPort},
			kernel.SockAddr{IP: ips[serverIdx], Port: iperfPort}, 1000)
		if err != nil {
			return err
		}
		// 3.1 Gbps of 1000-byte datagrams ~ 388 kpps: near the fabric's
		// ~400 kpps capacity, so the OVS queue runs near-critical (the
		// paper: "the delivery speed of OVS falls far behind the packet
		// incoming speed") while most packets still get through.
		cli.RunRate(31*Gbps/10, duration)
		iperfPort++
		return nil
	}
	for k := 0; k < cfg.IperfVM0; k++ {
		if err := addIperf(0, uint16(41000+k)); err != nil {
			return OVSCaseResult{}, err
		}
	}
	for v := 0; v < cfg.ExtraVMs; v++ {
		if err := addIperf(1+v, 42000); err != nil {
			return OVSCaseResult{}, err
		}
	}

	spCli.Run(cfg.Pings)
	eng.Run(duration + 200*MS)
	if err := tr.Flush(); err != nil {
		return OVSCaseResult{}, err
	}

	res := OVSCaseResult{
		Label:    caseLabel(cfg),
		Sockperf: NewLatencyStats(spCli.Latencies()),
		LossRate: spCli.LossRate(),
	}
	for i := 0; i < numVMs; i++ {
		if i == serverIdx {
			continue
		}
		res.PolicerDrops += ports[i].In.Stats().DroppedPolice
		res.ShaperDrops += ports[i].In.Stats().DroppedShaper
	}

	stages := []string{"udp_send@vm0", "vnet0-ingress", "server-em", "udp_recv@server"}
	names := []string{"sender-stack", "ovs", "receiver-stack"}
	segs, err := tr.Decompose(stages...)
	if err != nil {
		return OVSCaseResult{}, err
	}
	for i, seg := range segs {
		res.Segments = append(res.Segments, SegmentStats{
			Name:   names[i],
			MeanUs: seg.MeanNs() / 1e3,
			Count:  len(seg.PerPacket),
		})
	}
	return res, nil
}

func caseLabel(cfg OVSCaseConfig) string {
	switch {
	case cfg.IperfVM0 == 0 && cfg.ExtraVMs == 0:
		return "Case I"
	case cfg.ExtraVMs == 0 && cfg.IperfVM0 == 1:
		return "Case II"
	case cfg.ExtraVMs == 0:
		return "Case II+"
	case cfg.IperfVM0 == 1 && cfg.ExtraVMs == 1:
		return "Case III"
	default:
		return "Case III+"
	}
}
