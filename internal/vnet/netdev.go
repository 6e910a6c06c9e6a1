package vnet

import (
	"fmt"
	"slices"

	"vnettracer/internal/sim"
)

// Direction distinguishes the two hook points on a device.
type Direction int

// Hook directions.
const (
	Ingress Direction = iota + 1
	Egress
)

func (d Direction) String() string {
	switch d {
	case Ingress:
		return "ingress"
	case Egress:
		return "egress"
	}
	return fmt.Sprintf("direction(%d)", int(d))
}

// Hook observes a packet crossing a device and returns the CPU time (ns)
// the observation consumed; the device charges that cost to the packet,
// which is how tracing overhead becomes visible in measured latency and
// throughput. This is the attach surface vNetTracer binds eBPF trace
// scripts to.
type Hook func(p *Packet, dir Direction) (costNs int64)

// DevStats counts packet dispositions at a device.
type DevStats struct {
	Received      uint64
	Delivered     uint64
	DroppedQueue  uint64 // queue overflow
	DroppedPolice uint64 // ingress policer
	DroppedShaper uint64 // shaping delay exceeded the qdisc bound
	DroppedXform  uint64 // transform declined the packet
	BytesIn       uint64
	BytesOut      uint64
}

// NetDevConfig configures a queueing network device.
type NetDevConfig struct {
	// Name is the interface name (e.g. "eth0", "vnet0", "flannel.1").
	Name string
	// Ifindex is the device index carried into trace contexts.
	Ifindex int
	// ProcNs computes per-packet processing time. Nil means zero cost.
	ProcNs func(p *Packet) int64
	// RateBps is the transmission rate in bits per second; 0 = infinite.
	RateBps int64
	// QueueCap bounds the queue in packets; 0 = unbounded.
	QueueCap int
	// Policer, when non-nil, drops packets at ingress above the
	// configured rate (OVS ingress policing, paper case study I).
	Policer *TokenBucket
	// ShaperFor, when non-nil, classifies each arriving packet into an
	// HTB class (nil = unshaped); non-conformant packets are delayed
	// before entering the device queue, so shaped flows do not
	// head-of-line block unshaped ones (the HTB QoS alternative of case
	// study I). Packets whose conformance delay exceeds MaxShapeDelayNs
	// are dropped, modelling a finite qdisc queue.
	ShaperFor func(p *Packet) *HTBClass
	// MaxShapeDelayNs bounds shaping delay; 0 means 50ms.
	MaxShapeDelayNs int64
	// Transform rewrites the packet between ingress and egress (VXLAN
	// encap/decap, NAT). Returning nil drops the packet.
	Transform func(p *Packet) *Packet
	// Out delivers the packet downstream.
	Out func(p *Packet)
}

// NetDev is a store-and-forward queueing station: packets are policed and
// queued at ingress, served one at a time (processing + serialization
// delay), transformed, and handed to Out. Ingress hooks run at arrival,
// egress hooks at departure; hook CPU cost is charged to the packet's
// service time, so attaching expensive tracing slows the device exactly as
// in a real kernel.
type NetDev struct {
	cfg   NetDevConfig
	eng   *sim.Engine
	queue []queued
	busy  bool
	// rxHooks/txHooks are in attach order and replaced, never modified in
	// place, by attach and detach: a dispatch in progress keeps ranging
	// over the slice it started with.
	rxHooks []attachedHook
	txHooks []attachedHook
	nextID  int
	stats   DevStats
}

type attachedHook struct {
	id int
	h  Hook
}

type queued struct {
	pkt     *Packet
	extraNs int64 // hook cost accrued at ingress
}

// NewNetDev constructs a device bound to the engine.
func NewNetDev(eng *sim.Engine, cfg NetDevConfig) *NetDev {
	return &NetDev{cfg: cfg, eng: eng}
}

// Name returns the interface name.
func (d *NetDev) Name() string { return d.cfg.Name }

// Ifindex returns the interface index.
func (d *NetDev) Ifindex() int { return d.cfg.Ifindex }

// Stats returns a snapshot of the device counters.
func (d *NetDev) Stats() DevStats { return d.stats }

// SetOut rewires the downstream delivery function; topology builders use
// this to connect devices after construction.
func (d *NetDev) SetOut(out func(p *Packet)) { d.cfg.Out = out }

// SetTransform installs or replaces the packet transform (e.g. VXLAN
// encap/decap) after construction.
func (d *NetDev) SetTransform(f func(p *Packet) *Packet) { d.cfg.Transform = f }

// AttachHook registers a hook at the given direction and returns a detach
// function. Hooks may be attached and detached at runtime, which is the
// mechanism behind vNetTracer's reconfigurability. Hooks of one direction
// run in attach order; one attached or detached while a packet is being
// dispatched takes effect from the next packet.
func (d *NetDev) AttachHook(dir Direction, h Hook) (detach func()) {
	id := d.nextID
	d.nextID++
	hooks := &d.rxHooks
	if dir == Egress {
		hooks = &d.txHooks
	}
	*hooks = append(slices.Clip(*hooks), attachedHook{id, h})
	return func() {
		*hooks = slices.DeleteFunc(slices.Clone(*hooks), func(a attachedHook) bool { return a.id == id })
	}
}

// runHooks dispatches one packet to a direction's hooks and sums their
// CPU cost.
func runHooks(hooks []attachedHook, p *Packet, dir Direction) (costNs int64) {
	for _, a := range hooks {
		costNs += a.h(p, dir)
	}
	return costNs
}

// Receive accepts a packet at the current simulated time.
func (d *NetDev) Receive(p *Packet) {
	d.stats.Received++
	d.stats.BytesIn += uint64(p.WireLen())

	extra := runHooks(d.rxHooks, p, Ingress)

	if d.cfg.Policer != nil && !d.cfg.Policer.Allow(int64(p.WireLen())*8, d.eng.Now()) {
		d.stats.DroppedPolice++
		return
	}
	if d.cfg.ShaperFor != nil {
		if class := d.cfg.ShaperFor(p); class != nil {
			delay := class.Delay(int64(p.WireLen())*8, d.eng.Now())
			if delay > 0 {
				bound := d.cfg.MaxShapeDelayNs
				if bound <= 0 {
					bound = 50 * int64(sim.Millisecond)
				}
				if delay > bound {
					d.stats.DroppedShaper++
					return
				}
				d.eng.Schedule(delay, func() { d.enqueue(p, extra) })
				return
			}
		}
	}
	d.enqueue(p, extra)
}

func (d *NetDev) enqueue(p *Packet, extra int64) {
	if d.cfg.QueueCap > 0 && len(d.queue) >= d.cfg.QueueCap {
		d.stats.DroppedQueue++
		return
	}
	d.queue = append(d.queue, queued{pkt: p, extraNs: extra})
	d.maybeServe()
}

func (d *NetDev) maybeServe() {
	if d.busy || len(d.queue) == 0 {
		return
	}
	d.busy = true
	q := d.queue[0]
	d.queue = d.queue[1:]

	var proc int64
	if d.cfg.ProcNs != nil {
		proc = d.cfg.ProcNs(q.pkt)
	}
	proc += q.extraNs

	var tx int64
	if d.cfg.RateBps > 0 {
		tx = int64(q.pkt.WireLen()) * 8 * int64(sim.Second) / d.cfg.RateBps
	}

	d.eng.Schedule(proc+tx, func() {
		d.finish(q.pkt)
	})
}

func (d *NetDev) finish(p *Packet) {
	out := p
	if d.cfg.Transform != nil {
		out = d.cfg.Transform(p)
	}
	if out == nil {
		d.stats.DroppedXform++
	} else {
		extra := runHooks(d.txHooks, out, Egress)
		d.stats.Delivered++
		d.stats.BytesOut += uint64(out.WireLen())
		if extra > 0 {
			// Egress tracing cost delays the handoff downstream.
			pkt := out
			d.eng.Schedule(extra, func() {
				if d.cfg.Out != nil {
					d.cfg.Out(pkt)
				}
			})
		} else if d.cfg.Out != nil {
			d.cfg.Out(out)
		}
	}
	d.busy = false
	d.maybeServe()
}
