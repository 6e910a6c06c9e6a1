package kernel

import (
	"hash/fnv"
	"math/rand"

	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// Costs are the per-operation CPU costs of the simulated kernel, in
// nanoseconds. Defaults approximate a modern Xeon; experiments may tune
// them, but relative magnitudes (trace-ID insertion in the tens of
// nanoseconds, softirq work in the microseconds) follow the paper.
type Costs struct {
	UDPSend int64
	UDPRecv int64
	TCPSend int64
	TCPRecv int64
	// SoftirqBase is the cost of one net_rx_action invocation.
	SoftirqBase int64
	// KsoftirqdWake is the extra cost of waking ksoftirqd on an idle CPU
	// (the sleep/wakeup overhead case study III highlights).
	KsoftirqdWake int64
	// SoftirqPerPacket is the marginal cost of one packet inside an
	// already-running NAPI poll (SoftirqNetRXNAPI).
	SoftirqPerPacket int64
	// TraceIDInsert / TraceIDTrim are the paper's "tens of nanoseconds"
	// packet-ID operations.
	TraceIDInsert int64
	TraceIDTrim   int64
}

// DefaultCosts returns the baseline cost model.
func DefaultCosts() Costs {
	return Costs{
		UDPSend:          2000,
		UDPRecv:          2000,
		TCPSend:          2500,
		TCPRecv:          2500,
		SoftirqBase:      1500,
		KsoftirqdWake:    3000,
		SoftirqPerPacket: 300,
		TraceIDInsert:    40,
		TraceIDTrim:      30,
	}
}

// NodeConfig configures a simulated machine (physical host, VM, or Dom0).
type NodeConfig struct {
	Name   string
	NumCPU int
	Costs  Costs
	// ClockOffsetNs and ClockDriftPPB set the node's CLOCK_MONOTONIC skew
	// relative to engine truth (paper Section III-B, Cristian's algorithm).
	ClockOffsetNs int64
	ClockDriftPPB int64
	// RPS enables Receive Packet Steering; otherwise every NET_RX softirq
	// lands on IRQCPU (default 0), modelling single-queue IRQ affinity.
	RPS    bool
	IRQCPU int
	// TraceIDs enables the kernel modification that embeds 32-bit trace
	// IDs into outgoing packets.
	TraceIDs bool
	// MaxBacklog bounds the per-CPU softirq input queue; packets arriving
	// at a CPU whose backlog is full are dropped, as with the kernel's
	// netdev_max_backlog. Defaults to 1000.
	MaxBacklog int
	// RecvOnCPU serializes the socket receive path (and any tracing cost
	// charged there) on the flow's steered CPU instead of treating it as
	// pure pipeline latency. Use it for nodes whose receive throughput is
	// CPU-bound (e.g. the 1-vCPU Xen VM of the paper's Figure 7(b)).
	RecvOnCPU bool
	// Seed differentiates the node's private random stream.
	Seed int64
}

// Node is one simulated machine: CPUs, a probe registry, a socket table,
// and an egress path.
type Node struct {
	Name   string
	Probes *ProbeRegistry
	Clock  *sim.Clock

	eng  *sim.Engine
	cfg  NodeConfig
	cpus []*CPU
	rng  *rand.Rand

	sockets map[sockKey]*Socket
	// napi tracks per-device NAPI poll batches for SoftirqNetRXNAPI.
	napi map[string]*napiState
	// Egress transmits a locally generated packet into the device graph;
	// topology builders assign it.
	Egress func(p *vnet.Packet)

	// Ground-truth counters (validation only; traced figures come from
	// eBPF maps).
	SoftirqTotal uint64
	DropNoSocket uint64
	BacklogDrops uint64
}

type sockKey struct {
	ip    vnet.IPv4
	port  uint16
	proto uint8
}

// NewNode creates a node bound to the engine.
func NewNode(eng *sim.Engine, cfg NodeConfig) *Node {
	if cfg.NumCPU <= 0 {
		cfg.NumCPU = 1
	}
	if cfg.MaxBacklog <= 0 {
		cfg.MaxBacklog = 1000
	}
	if cfg.Costs == (Costs{}) {
		cfg.Costs = DefaultCosts()
	}
	n := &Node{
		Name:    cfg.Name,
		Probes:  NewProbeRegistry(),
		Clock:   sim.NewClock(eng, cfg.ClockOffsetNs, cfg.ClockDriftPPB),
		eng:     eng,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed ^ 0x5eed)),
		sockets: make(map[sockKey]*Socket),
		napi:    make(map[string]*napiState),
	}
	for i := 0; i < cfg.NumCPU; i++ {
		n.cpus = append(n.cpus, NewCPU(eng, i))
	}
	return n
}

// Engine returns the simulation engine the node runs on.
func (n *Node) Engine() *sim.Engine { return n.eng }

// NumCPU returns the processor count.
func (n *Node) NumCPU() int { return len(n.cpus) }

// CPUs returns the node's processors (shared, not copied: callers inspect
// counters).
func (n *Node) CPUs() []*CPU { return n.cpus }

// Costs returns the node's cost model.
func (n *Node) Costs() Costs { return n.cfg.Costs }

// Rand returns the node's private random stream.
func (n *Node) Rand() *rand.Rand { return n.rng }

// steerCPU picks the CPU that will run the NET_RX softirq for p and fires
// the get_rps_cpu probe site, exactly the function case study III attaches
// to.
func (n *Node) steerCPU(p *vnet.Packet) int {
	cpu := n.steerQuiet(p)
	n.Probes.Fire(&ProbeCtx{
		Site:   SiteGetRPSCPU,
		Pkt:    p,
		CPU:    cpu,
		TimeNs: n.Clock.NowNs(),
	})
	return cpu
}

// SoftirqNetRX schedules one NET_RX softirq to process p: the packet is
// steered to a CPU, charged the softirq cost (plus a ksoftirqd wakeup on an
// idle CPU, plus any attached tracing cost), and then continues through fn.
// Every device hop in a receive path runs through here, so a deep overlay
// path raises proportionally many softirqs — the mechanism behind the
// paper's case study III.
func (n *Node) SoftirqNetRX(p *vnet.Packet, dev *vnet.NetDev, fn func(*vnet.Packet)) {
	n.SoftirqNetRXExtra(p, dev, 0, fn)
}

// SoftirqNetRXExtra is SoftirqNetRX with extraNs of additional per-packet
// CPU work charged inside the softirq — the header rewriting, security
// checks, and forwarding work that deep overlay hops perform (paper case
// study III: "additional efforts ... are needed for the packets").
func (n *Node) SoftirqNetRXExtra(p *vnet.Packet, dev *vnet.NetDev, extraNs int64, fn func(*vnet.Packet)) {
	cpuID := n.steerCPU(p)
	cpu := n.cpus[cpuID]
	if cpu.Pending() >= n.cfg.MaxBacklog {
		n.BacklogDrops++
		return
	}
	cost := n.cfg.Costs.SoftirqBase + extraNs
	if cpu.Idle() {
		cost += n.cfg.Costs.KsoftirqdWake
	}
	ctx := &ProbeCtx{
		Site:   SiteNetRxAction,
		Pkt:    p,
		CPU:    cpuID,
		TimeNs: n.Clock.NowNs(),
	}
	if dev != nil {
		ctx.DevIfindex = dev.Ifindex()
		ctx.DevName = dev.Name()
	}
	cost += n.Probes.Fire(ctx)
	cpu.SoftirqCount++
	n.SoftirqTotal++
	cpu.Exec(cost, func() { fn(p) })
}

type napiState struct {
	batch int
}

// SoftirqNetRXNAPI is SoftirqNetRX with NAPI polling semantics for NIC
// receive: a packet arriving while the steered CPU is still draining a
// previous batch for the same device joins that batch (up to budget
// packets) and pays only the per-packet poll cost — no new softirq, no
// ksoftirqd wakeup, no net_rx_action probe firing. This is the batching
// that virtual devices (veth, bridges, VXLAN) largely miss out on, which
// is why container overlay paths execute net_rx_action so much more often
// per delivered byte (paper case study III).
func (n *Node) SoftirqNetRXNAPI(p *vnet.Packet, dev *vnet.NetDev, budget int, fn func(*vnet.Packet)) {
	if budget <= 1 || dev == nil {
		n.SoftirqNetRX(p, dev, fn)
		return
	}
	cpuID := n.steerCPU(p)
	cpu := n.cpus[cpuID]
	if cpu.Pending() >= n.cfg.MaxBacklog {
		n.BacklogDrops++
		return
	}
	st, ok := n.napi[dev.Name()]
	if !ok {
		st = &napiState{}
		n.napi[dev.Name()] = st
	}
	if !cpu.Idle() && st.batch > 0 && st.batch < budget {
		// Coalesce into the running poll.
		st.batch++
		cpu.Exec(n.cfg.Costs.SoftirqPerPacket, func() { fn(p) })
		return
	}
	// Start a new poll/softirq.
	st.batch = 1
	cost := n.cfg.Costs.SoftirqBase + n.cfg.Costs.SoftirqPerPacket
	if cpu.Idle() {
		cost += n.cfg.Costs.KsoftirqdWake
	}
	ctx := &ProbeCtx{
		Site:       SiteNetRxAction,
		Pkt:        p,
		CPU:        cpuID,
		DevIfindex: dev.Ifindex(),
		DevName:    dev.Name(),
		TimeNs:     n.Clock.NowNs(),
	}
	cost += n.Probes.Fire(ctx)
	cpu.SoftirqCount++
	n.SoftirqTotal++
	cpu.Exec(cost, func() { fn(p) })
}

// DeliverLocal terminates a packet at this node's socket table. Packets
// without a matching socket are counted and dropped.
func (n *Node) DeliverLocal(p *vnet.Packet) {
	flow := p.Flow()
	s := n.lookupSocket(flow.Dst, flow.DstPort, flow.Proto)
	if s == nil {
		n.DropNoSocket++
		return
	}
	cost := n.cfg.Costs.UDPRecv
	site, retSite := SiteUDPRecvmsg, retUDPRecvmsg
	if flow.Proto == vnet.ProtoTCP {
		cost = n.cfg.Costs.TCPRecv
		site, retSite = SiteTCPRecvmsg, retTCPRecvmsg
	}

	// Strip the UDP trace ID before the payload reaches the application
	// (pskb_trim_rcsum, paper Section III-B), preserving transparency.
	if flow.Proto == vnet.ProtoUDP && p.TraceID != 0 {
		if _, err := p.TrimUDPTraceID(); err == nil {
			cost += n.cfg.Costs.TraceIDTrim
			cost += n.Probes.Fire(&ProbeCtx{
				Site: SitePskbTrimRcsum, Pkt: p, TimeNs: n.Clock.NowNs(),
			})
		}
	}

	cost += n.Probes.Fire(&ProbeCtx{Site: site, Pkt: p, TimeNs: n.Clock.NowNs()})
	deliver := func() {
		// kretprobe: the receive function returns here, after its cost.
		retCost := n.Probes.Fire(&ProbeCtx{Site: retSite, Pkt: p, TimeNs: n.Clock.NowNs()})
		run := func() {
			if s.onRecv != nil {
				s.onRecv(p)
			}
		}
		if retCost > 0 {
			n.eng.Schedule(retCost, run)
			return
		}
		run()
	}
	if n.cfg.RecvOnCPU {
		n.cpus[n.steerQuiet(p)].Exec(cost, deliver)
		return
	}
	n.eng.Schedule(cost, deliver)
}

// steerQuiet picks the flow's CPU without firing the get_rps_cpu probe
// (used for process-context work that follows the softirq on the same
// core). RPS hashes the tuple the kernel sees at this layer: the outer
// VXLAN tuple before decapsulation — which is why steering cannot spread a
// single container connection (paper case study III).
func (n *Node) steerQuiet(p *vnet.Packet) int {
	if !n.cfg.RPS {
		return n.cfg.IRQCPU
	}
	f := p.Flow()
	h := fnv.New32a()
	var key [13]byte
	key[0] = f.Proto
	key[1], key[2], key[3], key[4] = byte(f.Src>>24), byte(f.Src>>16), byte(f.Src>>8), byte(f.Src)
	key[5], key[6], key[7], key[8] = byte(f.Dst>>24), byte(f.Dst>>16), byte(f.Dst>>8), byte(f.Dst)
	key[9], key[10] = byte(f.SrcPort>>8), byte(f.SrcPort)
	key[11], key[12] = byte(f.DstPort>>8), byte(f.DstPort)
	h.Write(key[:])
	cpu := int(h.Sum32()) % len(n.cpus)
	if cpu < 0 {
		cpu += len(n.cpus)
	}
	return cpu
}

func (n *Node) lookupSocket(ip vnet.IPv4, port uint16, proto uint8) *Socket {
	if s, ok := n.sockets[sockKey{ip: ip, port: port, proto: proto}]; ok {
		return s
	}
	// Wildcard bind.
	if s, ok := n.sockets[sockKey{ip: 0, port: port, proto: proto}]; ok {
		return s
	}
	return nil
}
