package testbed

import (
	"fmt"
	"sort"

	"vnettracer"
	"vnettracer/internal/clocksync"
	"vnettracer/internal/core"
	"vnettracer/internal/hyper"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
	"vnettracer/internal/workload"
)

// XenWorkload selects the guest application for the Fig. 10 experiments.
type XenWorkload int

// Workloads.
const (
	XenSockperf XenWorkload = iota + 1
	XenMemcached
)

// XenConfig parameterizes the case-study II experiment: a 1-vCPU I/O VM
// (sockperf/memcached server inside a container) optionally sharing its
// physical core with a CPU-bound VM under the Xen credit2 scheduler.
type XenConfig struct {
	// Consolidated pins a CPU-bound VM to the same physical core.
	Consolidated bool
	// RatelimitUs is the scheduler's context-switch rate limit; Xen's
	// default is 1000, the paper's fix is 0.
	RatelimitUs int64
	// Policy selects credit2 (default), credit1, or pinned.
	Policy hyper.Policy
	// Workload selects sockperf (Fig. 10a/11) or memcached (Fig. 10b).
	Workload XenWorkload
	// Requests is the number of pings / memcached requests.
	Requests int
	Seed     int64
}

// PacketDecomp is one packet's Fig. 11 decomposition, in nanoseconds.
type PacketDecomp struct {
	Seq      uint64
	Segments [4]int64 // eth0->xenbr0, xenbr0->vif1.0, vif1.0->eth1, eth1->veth
}

// XenResult reports one configuration.
type XenResult struct {
	Label      string
	AppLatency LatencyStats
	// SkewEstimateNs is the Cristian estimate of the host-vs-client clock
	// offset; SkewTruthNs is the configured ground truth.
	SkewEstimateNs int64
	SkewTruthNs    int64
	// SegmentMeans averages the four decomposition segments (traced,
	// skew-corrected), in microseconds.
	SegmentMeans [4]float64
	SegmentNames [4]string
	// PerPacket is the per-packet decomposition series (Fig. 11).
	PerPacket []PacketDecomp
	// JitterLoUs/JitterHiUs is the one-way latency jitter range, the form
	// the paper reports.
	JitterLoUs float64
	JitterHiUs float64
	// WakeDelays is the I/O vCPU ground-truth mean wake delay, for
	// validating the traced diagnosis.
	MeanWakeDelayUs float64
}

const (
	xenHostSkewNs    = 3 * int64(sim.Millisecond)
	xenSockperfPort  = 11111
	xenMemcachedPort = 11211
	xenProbePort     = 7
)

// RunXenCase builds the topology and runs one configuration.
func RunXenCase(cfg XenConfig) (XenResult, error) {
	if cfg.Requests <= 0 {
		cfg.Requests = 2000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 23
	}
	if cfg.Policy == 0 {
		cfg.Policy = hyper.Credit2
	}
	if cfg.Workload == 0 {
		cfg.Workload = XenSockperf
	}
	eng := sim.NewEngine(cfg.Seed)

	clientIP := vnet.MustParseIPv4("192.168.0.10")
	dom0IP := vnet.MustParseIPv4("192.168.0.1")
	vmIP := vnet.MustParseIPv4("192.168.0.2")

	client := kernel.NewNode(eng, kernel.NodeConfig{Name: "client", NumCPU: 20, TraceIDs: true, Seed: 1})
	dom0 := kernel.NewNode(eng, kernel.NodeConfig{
		Name: "dom0", NumCPU: 20, TraceIDs: true, Seed: 2, ClockOffsetNs: xenHostSkewNs,
	})
	vm1 := kernel.NewNode(eng, kernel.NodeConfig{
		Name: "vm1", NumCPU: 1, TraceIDs: true, Seed: 3, ClockOffsetNs: xenHostSkewNs,
	})
	clientM := newMachine(client)
	dom0M := newMachine(dom0)
	vm1M := newMachine(vm1)

	// Scheduler.
	schedCfg := hyper.Config{
		Policy:       cfg.Policy,
		RatelimitNs:  cfg.RatelimitUs * US,
		CreditInitNs: 10 * MS,
	}
	pcpu := hyper.NewPCPU(eng, schedCfg)
	ioVCPU := pcpu.AddVCPU("vm1-vcpu0", 256, false)
	if cfg.Consolidated {
		pcpu.AddVCPU("vm2-vcpu0", 256, true)
	}

	// Guest-side per-packet processing cost, charged while the vCPU holds
	// the core. Memcached does real work per request; sockperf echoes.
	guestCost := int64(5 * US)
	if cfg.Workload == XenMemcached {
		guestCost = 50 * US
	}

	// Devices and wiring.
	var toHost, toClient *vnet.Link
	eth0 := stackDev(eng, "eth0", 2, 500, nil)
	xenbr0 := stackDev(eng, "xenbr0", 3, 1000, nil)
	vif := stackDev(eng, "vif1.0", 4, 1000, nil)
	eth1 := stackDev(eng, "eth1", 5, 500, nil)
	veth := stackDev(eng, "veth684a1d9", 6, 300, nil)
	for _, reg := range []struct {
		m *core.Machine
		d *vnet.NetDev
	}{{clientM, eth0}, {dom0M, xenbr0}, {dom0M, vif}, {vm1M, eth1}, {vm1M, veth}} {
		if err := reg.m.RegisterDevice(reg.d); err != nil {
			return XenResult{}, err
		}
	}

	toHost = vnet.NewLink(eng, Gbps, 10*US, xenbr0.Receive)
	toClient = vnet.NewLink(eng, Gbps, 10*US, eth0.Receive)

	eth0.SetOut(func(p *vnet.Packet) {
		if p.IP.Dst == clientIP {
			client.SoftirqNetRX(p, eth0, client.DeliverLocal)
		} else {
			toHost.Send(p)
		}
	})
	xenbr0.SetOut(func(p *vnet.Packet) {
		switch p.IP.Dst {
		case dom0IP:
			dom0.SoftirqNetRX(p, xenbr0, dom0.DeliverLocal)
		case vmIP:
			vif.Receive(p)
		default:
			toClient.Send(p)
		}
	})
	vif.SetOut(func(p *vnet.Packet) {
		// Backend handoff: the frontend runs only when the guest vCPU is
		// scheduled — the delay vNetTracer exposes between vif1.0 and eth1.
		ioVCPU.Submit(guestCost, func() { eth1.Receive(p) })
	})
	eth1.SetOut(func(p *vnet.Packet) {
		if p.IP.Dst == vmIP {
			veth.Receive(p)
		} else {
			xenbr0.Receive(p) // guest egress back through the bridge
		}
	})
	veth.SetOut(func(p *vnet.Packet) { vm1.SoftirqNetRX(p, veth, vm1.DeliverLocal) })

	client.Egress = eth0.Receive
	dom0.Egress = xenbr0.Receive
	vm1.Egress = eth1.Receive

	// Tracing deployment.
	tr := vnettracer.NewSession()
	for _, m := range []*core.Machine{clientM, dom0M, vm1M} {
		if _, err := tr.AddMachine(m); err != nil {
			return XenResult{}, err
		}
	}

	var appPort uint16 = xenSockperfPort
	if cfg.Workload == XenMemcached {
		appPort = xenMemcachedPort
	}
	fwd := script.Filter{Proto: vnet.ProtoUDP, DstPort: appPort, DstIP: vmIP}
	decompTPs := []struct {
		machine, label, device string
	}{
		{"client", "eth0", "eth0"},
		{"dom0", "xenbr0", "xenbr0"},
		{"dom0", "vif1.0", "vif1.0"},
		{"vm1", "eth1", "eth1"},
		{"vm1", "veth684a1d9", "veth684a1d9"},
	}
	for _, tp := range decompTPs {
		if _, err := tr.InstallRecord(tp.machine, tp.label,
			core.AttachPoint{Kind: core.AttachDevice, Device: tp.device, Dir: vnet.Ingress}, fwd); err != nil {
			return XenResult{}, err
		}
	}
	// Clock-skew probe tracepoints (Cristian, Fig. 4): both directions at
	// the client NIC and the host bridge.
	probeFwd := script.Filter{Proto: vnet.ProtoUDP, DstPort: xenProbePort}
	probeRev := script.Filter{Proto: vnet.ProtoUDP, DstPort: 40099}
	skewTPs := []struct {
		machine, label, device string
		f                      script.Filter
	}{
		{"client", "probe-t1", "eth0", probeFwd},
		{"dom0", "probe-t2", "xenbr0", probeFwd},
		{"dom0", "probe-t3", "xenbr0", probeRev},
		{"client", "probe-t4", "eth0", probeRev},
	}
	for _, tp := range skewTPs {
		if _, err := tr.InstallRecord(tp.machine, tp.label,
			core.AttachPoint{Kind: core.AttachDevice, Device: tp.device, Dir: vnet.Ingress}, tp.f); err != nil {
			return XenResult{}, err
		}
	}
	tr.StartFlushing(10 * MS)

	// Phase 1: clock synchronization probes (100 samples), before load.
	if _, err := workload.StartSockperfServer(dom0, kernel.SockAddr{IP: dom0IP, Port: xenProbePort}); err != nil {
		return XenResult{}, err
	}
	probe, err := workload.NewSockperfClient(client,
		kernel.SockAddr{IP: clientIP, Port: 40099},
		kernel.SockAddr{IP: dom0IP, Port: xenProbePort}, 16, 500*US)
	if err != nil {
		return XenResult{}, err
	}
	probe.Run(clocksync.DefaultSamples)
	eng.Run(int64(clocksync.DefaultSamples+20) * 500 * US)

	// Phase 2: the measured workload.
	var appLat []int64
	interval := 300 * US
	switch cfg.Workload {
	case XenSockperf:
		if _, err := workload.StartSockperfServer(vm1, kernel.SockAddr{IP: vmIP, Port: xenSockperfPort}); err != nil {
			return XenResult{}, err
		}
		cli, err := workload.NewSockperfClient(client,
			kernel.SockAddr{IP: clientIP, Port: 40000},
			kernel.SockAddr{IP: vmIP, Port: xenSockperfPort}, 56, interval)
		if err != nil {
			return XenResult{}, err
		}
		cli.Run(cfg.Requests)
		eng.Run(eng.Now() + int64(cfg.Requests)*interval + 100*MS)
		appLat = cli.Latencies()
	case XenMemcached:
		if _, err := workload.StartMemcachedServer(vm1, kernel.SockAddr{IP: vmIP, Port: xenMemcachedPort}, 1024); err != nil {
			return XenResult{}, err
		}
		cli, err := workload.NewMemcachedClient(client, clientIP, 42000, 80,
			kernel.SockAddr{IP: vmIP, Port: xenMemcachedPort}, 4)
		if err != nil {
			return XenResult{}, err
		}
		dur := int64(cfg.Requests) * SEC / 5000
		cli.Run(5000, dur)
		eng.Run(eng.Now() + dur + 100*MS)
		appLat = cli.Latencies
	}
	if err := tr.Flush(); err != nil {
		return XenResult{}, err
	}

	// Offline analysis: estimate skew, align, decompose.
	res := XenResult{
		Label:           xenLabel(cfg),
		AppLatency:      NewLatencyStats(appLat),
		SkewTruthNs:     xenHostSkewNs,
		MeanWakeDelayUs: float64(ioVCPU.MeanWakeDelayNs()) / 1e3,
		SegmentNames: [4]string{
			"eth0 to xenbr0", "xenbr0 to vif1.0", "vif1.0 to eth1", "eth1 to veth684a1d9",
		},
	}

	est, err := estimateSkew(tr, [4]string{"probe-t1", "probe-t2", "probe-t3", "probe-t4"})
	if err != nil {
		return XenResult{}, fmt.Errorf("testbed: xen skew estimation: %w", err)
	}
	res.SkewEstimateNs = est.SkewNs
	// Align every host-side table to the client timeline.
	for _, label := range []string{"xenbr0", "vif1.0", "eth1", "veth684a1d9"} {
		if err := tr.SetSkew(label, est.SkewNs); err != nil {
			return XenResult{}, err
		}
	}

	segs, err := tr.Decompose("eth0", "xenbr0", "vif1.0", "eth1", "veth684a1d9")
	if err != nil {
		return XenResult{}, err
	}
	perPacket := make(map[uint64]*PacketDecomp)
	for seg := range segs {
		lats := segs[seg].PerPacket
		var sum float64
		for _, s := range lats {
			sum += float64(s.Ns)
			pd, ok := perPacket[s.Seq]
			if !ok {
				pd = &PacketDecomp{Seq: s.Seq}
				perPacket[s.Seq] = pd
			}
			pd.Segments[seg] = s.Ns
		}
		if len(lats) > 0 {
			res.SegmentMeans[seg] = sum / float64(len(lats)) / 1e3
		}
	}
	for _, pd := range perPacket {
		res.PerPacket = append(res.PerPacket, *pd)
	}
	sort.Slice(res.PerPacket, func(i, j int) bool { return res.PerPacket[i].Seq < res.PerPacket[j].Seq })

	// Jitter of the traced one-way latency eth0 -> veth.
	oneWay, err := tr.Decompose("eth0", "veth684a1d9")
	if err != nil {
		return XenResult{}, err
	}
	lo, hi := metrics.JitterRange(oneWay[0].PerPacket)
	res.JitterLoUs = float64(lo) / 1e3
	res.JitterHiUs = float64(hi) / 1e3
	return res, nil
}

// estimateSkew joins the four probe tracepoints on packet sequence to
// build Cristian samples.
func estimateSkew(tr *vnettracer.Session, probes [4]string) (clocksync.Estimate, error) {
	var bySeq [4]map[uint64]int64
	for i, label := range probes {
		t, err := tr.Table(label)
		if err != nil {
			return clocksync.Estimate{}, err
		}
		first := make(map[uint64]int64)
		t.Scan(func(r core.Record) bool {
			if _, dup := first[r.Seq]; !dup {
				first[r.Seq] = int64(r.TimeNs)
			}
			return true
		})
		bySeq[i] = first
	}
	var samples []clocksync.Sample
	for seq, ts1 := range bySeq[0] {
		ts2, ok2 := bySeq[1][seq]
		ts3, ok3 := bySeq[2][seq]
		ts4, ok4 := bySeq[3][seq]
		if ok2 && ok3 && ok4 {
			samples = append(samples, clocksync.Sample{T1: ts1, T2: ts2, T3: ts3, T4: ts4})
		}
	}
	return clocksync.EstimateSkew(samples)
}

func xenLabel(cfg XenConfig) string {
	switch {
	case !cfg.Consolidated:
		return "baseline (I/O VM alone)"
	case cfg.RatelimitUs == 0:
		return "consolidated, ratelimit=0"
	default:
		return fmt.Sprintf("consolidated, ratelimit=%dus", cfg.RatelimitUs)
	}
}
