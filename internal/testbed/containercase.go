package testbed

import (
	"fmt"
	"sort"

	"vnettracer"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/overlay"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
	"vnettracer/internal/workload"
)

// Container-case addressing.
var (
	contVMIP  = [2]vnet.IPv4{vnet.MustParseIPv4("10.1.0.1"), vnet.MustParseIPv4("10.1.0.2")}
	contCtrIP = [2]vnet.IPv4{vnet.MustParseIPv4("172.17.0.2"), vnet.MustParseIPv4("172.17.0.3")}
)

const (
	contVNI        = 42
	napiBudget     = 7
	overlayHopCost = 2500 // extra CPU per virtual-hop softirq
)

// containerHost is the Figure 12(a) topology: two 4-vCPU KVM VMs on one
// host, containers joined by a Docker-style VXLAN overlay with an
// etcd-backed membership store.
type containerHost struct {
	eng      *sim.Engine
	vm       [2]*kernel.Node
	machines [2]*core.Machine
	store    *overlay.Store
}

func newContainerHost(seed int64) *containerHost {
	eng := sim.NewEngine(seed)
	h := &containerHost{eng: eng, store: overlay.NewStore()}

	type side struct {
		eth0, vxlan, docker0, veth *vnet.NetDev
		vtep                       *overlay.VTEP
		link                       *vnet.Link
	}
	var sides [2]*side

	for i := 0; i < 2; i++ {
		i := i
		vm := kernel.NewNode(eng, kernel.NodeConfig{
			Name: fmt.Sprintf("vm%d", i+1), NumCPU: 4, RPS: true,
			TraceIDs: true, RecvOnCPU: true, Seed: int64(i + 1),
		})
		h.vm[i] = vm
		h.machines[i] = newMachine(vm)
		s := &side{}
		sides[i] = s
		s.vtep = overlay.NewVTEP(h.store, contVNI, contVMIP[i])
		s.vtep.Register(contCtrIP[i])

		s.eth0 = stackDev(eng, "eth0", 2, 300, nil)
		s.vxlan = stackDev(eng, "vxlan0", 3, 500, nil)
		s.docker0 = stackDev(eng, "docker0", 4, 400, nil)
		s.veth = stackDev(eng, "veth684a1d9", 5, 300, nil)
		for _, d := range []*vnet.NetDev{s.eth0, s.vxlan, s.docker0, s.veth} {
			if err := h.machines[i].RegisterDevice(d); err != nil {
				panic(err)
			}
		}

		// eth0: wire-facing in both directions.
		s.eth0.SetOut(func(p *vnet.Packet) {
			dst := p.Flow().Dst
			if dst != contVMIP[i] {
				s.link.Send(p)
				return
			}
			if p.VXLAN != nil {
				// Tunnel traffic: NAPI-batched NIC softirq, then the
				// VXLAN device.
				vm.SoftirqNetRXNAPI(p, s.eth0, napiBudget, s.vxlan.Receive)
				return
			}
			vm.SoftirqNetRXNAPI(p, s.eth0, napiBudget, vm.DeliverLocal)
		})

		// vxlan0: encap on the way out, decap on the way in.
		s.vxlan.SetTransform(func(p *vnet.Packet) *vnet.Packet {
			if p.VXLAN != nil {
				return s.vtep.Decap(p)
			}
			return s.vtep.Encap(p)
		})
		s.vxlan.SetOut(func(p *vnet.Packet) {
			if p.VXLAN != nil {
				s.eth0.Receive(p) // freshly encapsulated: toward the wire
				return
			}
			// Freshly decapsulated: per-packet softirq into docker0.
			vm.SoftirqNetRXExtra(p, s.vxlan, overlayHopCost, s.docker0.Receive)
		})

		s.docker0.SetOut(func(p *vnet.Packet) {
			if p.IP.Dst == contCtrIP[i] {
				vm.SoftirqNetRXExtra(p, s.docker0, overlayHopCost, s.veth.Receive)
				return
			}
			s.vxlan.Receive(p) // container egress toward the tunnel
		})

		s.veth.SetOut(func(p *vnet.Packet) {
			if p.IP.Dst == contCtrIP[i] {
				vm.SoftirqNetRXExtra(p, s.veth, overlayHopCost, vm.DeliverLocal)
				return
			}
			s.docker0.Receive(p) // container egress
		})

		vm.Egress = func(p *vnet.Packet) {
			if p.IP.Src == contCtrIP[i] {
				s.veth.Receive(p) // container app: the deep path
				return
			}
			s.eth0.Receive(p) // VM app: straight to the NIC
		}
	}

	for i := 0; i < 2; i++ {
		peer := sides[1-i]
		sides[i].link = vnet.NewLink(eng, 10*Gbps, 3*US, peer.eth0.Receive)
	}
	return h
}

// ContainerThroughputResult is Figure 12(b).
type ContainerThroughputResult struct {
	VMTCPBps    float64
	ContTCPBps  float64
	VMUDPBps    float64
	ContUDPBps  float64
	TCPRatioPct float64 // container TCP as % of VM TCP (paper: 16.8%)
	UDPRatioPct float64 // container UDP as % of VM UDP (paper: 22.9%)
}

// RunContainerThroughput runs the four Fig. 12(b) measurements.
func RunContainerThroughput(segments int) (ContainerThroughputResult, error) {
	var res ContainerThroughputResult
	var err error
	if res.VMTCPBps, err = contTCP(false, segments); err != nil {
		return res, err
	}
	if res.ContTCPBps, err = contTCP(true, segments); err != nil {
		return res, err
	}
	if res.VMUDPBps, _, _, err = contUDP(false, nil); err != nil {
		return res, err
	}
	if res.ContUDPBps, _, _, err = contUDP(true, nil); err != nil {
		return res, err
	}
	if res.VMTCPBps > 0 {
		res.TCPRatioPct = res.ContTCPBps / res.VMTCPBps * 100
	}
	if res.VMUDPBps > 0 {
		res.UDPRatioPct = res.ContUDPBps / res.VMUDPBps * 100
	}
	return res, nil
}

func contEndpoints(container bool) (src, dst kernel.SockAddr) {
	if container {
		return kernel.SockAddr{IP: contCtrIP[0], Port: 40000}, kernel.SockAddr{IP: contCtrIP[1], Port: 12865}
	}
	return kernel.SockAddr{IP: contVMIP[0], Port: 40000}, kernel.SockAddr{IP: contVMIP[1], Port: 12865}
}

func contTCP(container bool, segments int) (float64, error) {
	h := newContainerHost(31)
	src, dst := contEndpoints(container)
	srv, err := workload.StartNetperfServer(h.vm[1], dst)
	if err != nil {
		return 0, err
	}
	cli, err := workload.NewNetperfClient(h.vm[0], src, dst, 1448, 64)
	if err != nil {
		return 0, err
	}
	cli.Run(segments)
	h.eng.Run(120 * SEC)
	return srv.ThroughputBps(), nil
}

// contUDP runs an open-loop UDP stream; when spec is non-nil it is
// installed on the receiving VM before the run and the per-CPU softirq
// histogram is returned alongside.
func contUDP(container bool, spec *script.Spec) (bps float64, hist []uint64, invocations uint64, err error) {
	h := newContainerHost(37)
	var compiled *script.Compiled
	if spec != nil {
		tr := vnettracer.NewSession()
		if _, err := tr.AddMachine(h.machines[1]); err != nil {
			return 0, nil, 0, err
		}
		if _, err := tr.Install("vm2", *spec); err != nil {
			return 0, nil, 0, err
		}
		agent, _ := tr.Agent("vm2")
		compiled, _ = agent.Script(spec.Name)
	}
	src, dst := contEndpoints(container)
	srv, err := workload.StartIPerfServer(h.vm[1], dst)
	if err != nil {
		return 0, nil, 0, err
	}
	cli, err := workload.NewIPerfClient(h.vm[0], src, dst, 1448)
	if err != nil {
		return 0, nil, 0, err
	}
	const dur = 1 * int64(sim.Second)
	cli.RunRate(6*Gbps, dur)
	h.eng.Run(dur + 500*MS)
	bps = srv.ThroughputBps()
	if compiled != nil {
		hist = compiled.ReadCPUHist()
		invocations, _ = compiled.ReadCounter(script.SlotPackets)
	}
	return bps, hist, invocations, nil
}

// SoftirqResult is Figure 13(a): net_rx_action execution rate and its
// distribution across CPUs, measured through eBPF kprobes with per-CPU
// maps.
type SoftirqResult struct {
	VMRatePerSec   float64
	ContRatePerSec float64
	RateRatio      float64 // paper: 4.54x
	VMShare        []float64
	ContShare      []float64
	VMTopShare     float64 // paper: 99.7% on CPU 0
	ContTopShare   float64 // paper: 62.9%
	VMBps          float64
	ContBps        float64
}

// RunSoftirqDistribution runs Figure 13(a).
func RunSoftirqDistribution() (SoftirqResult, error) {
	mkSpec := func() *script.Spec {
		return &script.Spec{
			Name:    "netrx-hist",
			Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteNetRxAction},
			Actions: []script.Action{script.ActionCount, script.ActionCPUHist},
			NumCPU:  4,
		}
	}
	var res SoftirqResult
	vmBps, vmHist, vmCount, err := contUDP(false, mkSpec())
	if err != nil {
		return res, err
	}
	contBps, contHist, contCount, err := contUDP(true, mkSpec())
	if err != nil {
		return res, err
	}
	res.VMBps, res.ContBps = vmBps, contBps
	res.VMRatePerSec = float64(vmCount) / 1.5
	res.ContRatePerSec = float64(contCount) / 1.5
	if res.VMRatePerSec > 0 {
		res.RateRatio = res.ContRatePerSec / res.VMRatePerSec
	}
	res.VMShare, res.VMTopShare = shares(vmHist)
	res.ContShare, res.ContTopShare = shares(contHist)
	return res, nil
}

func shares(hist []uint64) ([]float64, float64) {
	var total uint64
	for _, v := range hist {
		total += v
	}
	out := make([]float64, len(hist))
	var top float64
	if total == 0 {
		return out, 0
	}
	for i, v := range hist {
		out[i] = float64(v) / float64(total)
		if out[i] > top {
			top = out[i]
		}
	}
	return out, top
}

// PathTraceResult is Figure 13(b): the ordered device crossings of one
// packet in the VM network versus the container overlay.
type PathTraceResult struct {
	VMPath        []string
	ContainerPath []string
}

// RunPathTrace runs Figure 13(b): record scripts on every device, one
// probe flow, reconstruct the per-packet data path from the trace DB.
func RunPathTrace() (PathTraceResult, error) {
	trace := func(container bool) ([]string, error) {
		h := newContainerHost(41)
		tr := vnettracer.NewSession()
		for i := 0; i < 2; i++ {
			if _, err := tr.AddMachine(h.machines[i]); err != nil {
				return nil, err
			}
		}
		filter := script.Filter{Proto: vnet.ProtoUDP, DstPort: 9999}
		labels := make([]string, 0, 8)
		for i := 0; i < 2; i++ {
			for _, dev := range []string{"eth0", "vxlan0", "docker0", "veth684a1d9"} {
				label := fmt.Sprintf("%s@vm%d", dev, i+1)
				if _, err := tr.InstallRecord(fmt.Sprintf("vm%d", i+1), label,
					core.AttachPoint{Kind: core.AttachDevice, Device: dev, Dir: vnet.Ingress}, filter); err != nil {
					return nil, err
				}
				labels = append(labels, label)
			}
		}

		src, dst := contEndpoints(container)
		src.Port, dst.Port = 40010, 9999
		var got bool
		if _, err := h.vm[1].Open(vnet.ProtoUDP, dst, func(*vnet.Packet) { got = true }); err != nil {
			return nil, err
		}
		sock, err := h.vm[0].Open(vnet.ProtoUDP, src, nil)
		if err != nil {
			return nil, err
		}
		sent, err := sock.Send(dst, 100)
		if err != nil {
			return nil, err
		}
		h.eng.Run(100 * MS)
		if !got {
			return nil, fmt.Errorf("testbed: path-trace probe not delivered (container=%v)", container)
		}
		if err := tr.Flush(); err != nil {
			return nil, err
		}

		// Collect every crossing of the probe packet, ordered by time.
		type crossing struct {
			at    uint64
			label string
		}
		var crossings []crossing
		for _, label := range labels {
			t, err := tr.Table(label)
			if err != nil {
				return nil, err
			}
			for _, r := range t.ByTraceID(sent.TraceID) {
				crossings = append(crossings, crossing{at: r.TimeNs, label: label})
			}
		}
		sort.Slice(crossings, func(i, j int) bool { return crossings[i].at < crossings[j].at })
		out := make([]string, len(crossings))
		for i, c := range crossings {
			out[i] = c.label
		}
		return out, nil
	}

	var res PathTraceResult
	var err error
	if res.VMPath, err = trace(false); err != nil {
		return res, err
	}
	if res.ContainerPath, err = trace(true); err != nil {
		return res, err
	}
	return res, nil
}
