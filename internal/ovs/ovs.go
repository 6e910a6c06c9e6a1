// Package ovs models an Open vSwitch bridge: ingress ports with bounded
// queues and optional policing/shaping, a shared switching fabric with
// finite capacity, a flow cache with slow-path misses, and static IP
// routes. Two delays dominate under load, exactly as the paper's case
// study I decomposes them: queueing delay at a saturated ingress port, and
// processing delay when the fabric alternates between flows arriving on
// different ingress ports.
package ovs

import (
	"fmt"

	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// Config tunes the bridge's cost model.
type Config struct {
	Name string
	// PortProcNs is the per-packet cost at an ingress port.
	PortProcNs int64
	// PortQueueCap bounds each ingress queue in packets.
	PortQueueCap int
	// FabricBaseNs is the fabric's per-packet switching cost.
	FabricBaseNs int64
	// PortSwitchNs is the additional cost when the fabric serves a packet
	// from a different ingress port than the previous one (flow context
	// switching across ports, the Case III / III+ delay).
	PortSwitchNs int64
	// FlowMissNs is the slow-path cost on a flow-cache miss.
	FlowMissNs int64
	// FabricQueueCap bounds the fabric queue; 0 = unbounded.
	FabricQueueCap int
}

// DefaultConfig returns the cost model used by the paper-reproduction
// testbeds.
func DefaultConfig(name string) Config {
	return Config{
		Name:           name,
		PortProcNs:     500,
		PortQueueCap:   512,
		FabricBaseNs:   1200,
		PortSwitchNs:   2500,
		FlowMissNs:     50000,
		FabricQueueCap: 4096,
	}
}

// Stats aggregates bridge counters.
type Stats struct {
	Switched       uint64
	FlowMisses     uint64
	PortSwitches   uint64
	DroppedFabric  uint64
	DroppedNoRoute uint64
}

// Bridge is an Open vSwitch instance.
type Bridge struct {
	eng   *sim.Engine
	cfg   Config
	ports map[string]*Port

	queue    []fabricItem
	busy     bool
	lastPort string
	// recentPorts is a sliding window of recently served ingress ports;
	// the cross-port penalty scales with how many distinct ports contend,
	// modelling flow-cache and batching disruption as flows from more
	// ingress ports interleave (the paper's Case III -> III+ growth).
	recentPorts [16]string
	recentIdx   int

	flowCache map[vnet.FiveTuple]string
	routes    map[vnet.IPv4]string

	stats Stats
}

type fabricItem struct {
	port string
	pkt  *vnet.Packet
}

// Port is one bridge port: an ingress queueing device (where trace hooks
// and policers attach) plus an egress delivery function toward the
// attached VM, container, or uplink.
type Port struct {
	Name string
	In   *vnet.NetDev
	out  func(p *vnet.Packet)
}

// SetOut rewires where packets switched to this port are delivered.
func (p *Port) SetOut(out func(pkt *vnet.Packet)) { p.out = out }

// New creates a bridge.
func New(eng *sim.Engine, cfg Config) *Bridge {
	if cfg.Name == "" {
		cfg.Name = "ovs-br0"
	}
	return &Bridge{
		eng:       eng,
		cfg:       cfg,
		ports:     make(map[string]*Port),
		flowCache: make(map[vnet.FiveTuple]string),
		routes:    make(map[vnet.IPv4]string),
	}
}

// Name returns the bridge name.
func (b *Bridge) Name() string { return b.cfg.Name }

// Stats returns a snapshot of bridge counters.
func (b *Bridge) Stats() Stats { return b.stats }

// AddPort creates a port. ifindex feeds trace contexts; policer may be
// nil; shaperFor, when non-nil, classifies arriving packets into HTB
// classes for QoS shaping (the paper's alternative to policing). The
// returned port's In device is the attach point for both packets and trace
// hooks.
func (b *Bridge) AddPort(name string, ifindex int, policer *vnet.TokenBucket, shaperFor func(*vnet.Packet) *vnet.HTBClass) (*Port, error) {
	if _, dup := b.ports[name]; dup {
		return nil, fmt.Errorf("ovs: port %q already exists on %s", name, b.cfg.Name)
	}
	p := &Port{Name: name}
	p.In = vnet.NewNetDev(b.eng, vnet.NetDevConfig{
		Name:      name,
		Ifindex:   ifindex,
		ProcNs:    func(*vnet.Packet) int64 { return b.cfg.PortProcNs },
		QueueCap:  b.cfg.PortQueueCap,
		Policer:   policer,
		ShaperFor: shaperFor,
		Out:       func(pkt *vnet.Packet) { b.fabricEnqueue(name, pkt) },
	})
	b.ports[name] = p
	return p, nil
}

// Port returns a port by name.
func (b *Bridge) Port(name string) (*Port, bool) {
	p, ok := b.ports[name]
	return p, ok
}

// AddRoute directs packets for ip out of the named port.
func (b *Bridge) AddRoute(ip vnet.IPv4, portName string) error {
	if _, ok := b.ports[portName]; !ok {
		return fmt.Errorf("ovs: route to unknown port %q", portName)
	}
	b.routes[ip] = portName
	return nil
}

func (b *Bridge) fabricEnqueue(port string, pkt *vnet.Packet) {
	if b.cfg.FabricQueueCap > 0 && len(b.queue) >= b.cfg.FabricQueueCap {
		b.stats.DroppedFabric++
		return
	}
	b.queue = append(b.queue, fabricItem{port: port, pkt: pkt})
	b.maybeServe()
}

func (b *Bridge) maybeServe() {
	if b.busy || len(b.queue) == 0 {
		return
	}
	b.busy = true
	item := b.queue[0]
	b.queue = b.queue[1:]

	cost := b.cfg.FabricBaseNs
	if b.lastPort != "" && b.lastPort != item.port {
		cost += b.cfg.PortSwitchNs * int64(b.distinctRecent()-1)
		b.stats.PortSwitches++
	}
	b.lastPort = item.port
	b.recentPorts[b.recentIdx] = item.port
	b.recentIdx = (b.recentIdx + 1) % len(b.recentPorts)

	flow := item.pkt.Flow()
	outPort, cached := b.flowCache[flow]
	if !cached {
		cost += b.cfg.FlowMissNs
		b.stats.FlowMisses++
		outPort = b.routes[flow.Dst]
		if outPort != "" {
			b.flowCache[flow] = outPort
		}
	}

	b.eng.Schedule(cost, func() {
		b.deliver(outPort, item.pkt)
		b.busy = false
		b.maybeServe()
	})
}

// distinctRecent counts distinct ingress ports in the recent-service
// window (at least 1 once anything has been served).
func (b *Bridge) distinctRecent() int {
	n := 0
	for i, p := range b.recentPorts {
		if p == "" {
			continue
		}
		dup := false
		for _, q := range b.recentPorts[:i] {
			if q == p {
				dup = true
				break
			}
		}
		if !dup {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

func (b *Bridge) deliver(portName string, pkt *vnet.Packet) {
	p, ok := b.ports[portName]
	if !ok || p.out == nil {
		b.stats.DroppedNoRoute++
		return
	}
	b.stats.Switched++
	p.out(pkt)
}
