package core

import (
	"fmt"

	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// CostModel converts an eBPF execution into simulated CPU nanoseconds. The
// defaults model JIT-compiled eBPF: a small fixed trampoline plus cheap
// per-instruction work, which is why vNetTracer's overhead stays marginal
// (paper Section II: "the JIT compiling minimizes the execution overhead").
type CostModel struct {
	BaseNs   int64 // per-invocation fixed cost
	InsnNs   int64 // per executed instruction
	HelperNs int64 // per helper call
}

// DefaultCostModel returns the JIT-like eBPF cost model.
func DefaultCostModel() CostModel {
	return CostModel{BaseNs: 20, InsnNs: 2, HelperNs: 15}
}

// Cost prices one execution.
func (c CostModel) Cost(s ebpf.ExecStats) int64 {
	return c.BaseNs + int64(s.Insns)*c.InsnNs + int64(s.HelperCalls)*c.HelperNs
}

// AttachKind selects the attach mechanism.
type AttachKind int

// Attach kinds, mirroring the paper's Section III-B surface: kprobes and
// kretprobes on kernel functions, hooks on network devices (raw sockets /
// tc), and uprobes on application symbols.
const (
	AttachKProbe AttachKind = iota + 1
	AttachDevice
	AttachKretprobe
	AttachUprobe
)

// AttachPoint names where a program attaches.
type AttachPoint struct {
	Kind AttachKind
	// Site is the kernel function name for AttachKProbe.
	Site string
	// Device and Dir select a device hook for AttachDevice.
	Device string
	Dir    vnet.Direction
}

func (a AttachPoint) String() string {
	switch a.Kind {
	case AttachKProbe:
		return "kprobe:" + a.Site
	case AttachKretprobe:
		return "kretprobe:" + a.Site
	case AttachUprobe:
		return a.Site
	}
	return fmt.Sprintf("dev:%s/%s", a.Device, a.Dir)
}

// AttachStats tracks one attachment's runtime behaviour.
type AttachStats struct {
	Invocations uint64
	Errors      uint64
	Insns       uint64
	CostNs      int64
}

// AttachHandle controls a live attachment.
type AttachHandle struct {
	point  AttachPoint
	detach func()
	stats  AttachStats
}

// Detach removes the program from its attach point.
func (h *AttachHandle) Detach() { h.detach() }

// Stats returns a snapshot of runtime counters.
func (h *AttachHandle) Stats() AttachStats { return h.stats }

// Point returns where the handle is attached.
func (h *AttachHandle) Point() AttachPoint { return h.point }

// Machine is one monitored node from the tracer's point of view: the
// simulated kernel, a registry of its network devices, and the per-CPU
// kernel ring buffers trace programs emit into. The agent
// (internal/control) drives a Machine.
type Machine struct {
	Node *kernel.Node
	Ring *PerCPURing

	devices map[string]*vnet.NetDev
	printk  []string
}

// NewMachine wraps a node with one trace ring of bufferBytes capacity per
// simulated CPU — the node's CPU topology supplies the ring count, as
// with the kernel's per-CPU perf buffers.
func NewMachine(node *kernel.Node, bufferBytes int) (*Machine, error) {
	ring, err := NewPerCPURing(node.NumCPU(), bufferBytes)
	if err != nil {
		return nil, fmt.Errorf("core: machine %s: %w", node.Name, err)
	}
	return &Machine{
		Node:    node,
		Ring:    ring,
		devices: make(map[string]*vnet.NetDev),
	}, nil
}

// RegisterDevice makes a device addressable by name in attach points.
func (m *Machine) RegisterDevice(dev *vnet.NetDev) error {
	if _, dup := m.devices[dev.Name()]; dup {
		return fmt.Errorf("core: machine %s: device %q already registered", m.Node.Name, dev.Name())
	}
	m.devices[dev.Name()] = dev
	return nil
}

// Device looks up a registered device.
func (m *Machine) Device(name string) (*vnet.NetDev, bool) {
	d, ok := m.devices[name]
	return d, ok
}

// Printk returns accumulated trace_printk output (debugging aid).
func (m *Machine) Printk() []string {
	out := make([]string, len(m.printk))
	copy(out, m.printk)
	return out
}

// machineEnv adapts a Machine to the ebpf.Env helper surface.
type machineEnv struct {
	m   *Machine
	cpu uint32
}

func (e *machineEnv) KtimeNs() uint64 { return uint64(e.m.Node.Clock.NowNs()) }

func (e *machineEnv) SMPProcessorID() uint32 { return e.cpu }

func (e *machineEnv) PrandomU32() uint32 { return e.m.Node.Rand().Uint32() }

// PerfEventOutput stages an emitted record in the executing CPU's ring:
// reserve ring space, serialize in place, commit. data aliases the eBPF
// VM's stack and is only valid for the duration of the call, which is
// fine — the bytes land in the ring before returning, with no
// intermediate buffer or allocation.
func (e *machineEnv) PerfEventOutput(data []byte) bool {
	ring := e.m.Ring.Ring(e.cpu)
	dst := ring.Reserve(len(data))
	if dst == nil {
		return false
	}
	copy(dst, data)
	ring.Commit()
	return true
}

func (e *machineEnv) TracePrintk(msg string) { e.m.printk = append(e.m.printk, msg) }

// Attach binds a verified program at the attach point. Each firing builds
// the context, runs the program, routes its perf output to the ring
// buffer, and charges the execution cost (per the cost model) to the
// packet's processing path.
//
// One attachment owns one context buffer, one helper environment, one
// ebpf.Runner and one stats block, reused by every firing, so firings of
// the same attachment must not overlap: the simulated kernel fires a
// node's probes from one goroutine at a time (-race builds check it in
// the runner). kernel.ProbeRegistry.Fire itself is safe from any number
// of goroutines; it is this handler that is not.
func (m *Machine) Attach(prog *ebpf.Program, at AttachPoint, cm CostModel) (*AttachHandle, error) {
	if prog == nil {
		return nil, fmt.Errorf("core: machine %s: nil program", m.Node.Name)
	}
	if prog.CtxSize() != CtxSize {
		return nil, fmt.Errorf("core: machine %s: program %q ctx size %d, want %d",
			m.Node.Name, prog.Name(), prog.CtxSize(), CtxSize)
	}
	h := &AttachHandle{point: at}
	env := &machineEnv{m: m}
	scratch := make([]byte, CtxSize)
	runner := prog.NewRunner()

	runProg := func(pc *kernel.ProbeCtx) int64 {
		env.cpu = uint32(pc.CPU)
		ctx := BuildCtx(scratch, pc)
		_, stats, err := runner.Run(ctx, env)
		h.stats.Invocations++
		h.stats.Insns += uint64(stats.Insns)
		cost := cm.Cost(stats)
		if err != nil {
			h.stats.Errors++
		}
		h.stats.CostNs += cost
		return cost
	}

	switch at.Kind {
	case AttachKProbe, AttachKretprobe, AttachUprobe:
		if at.Site == "" {
			return nil, fmt.Errorf("core: machine %s: %v attach needs a site", m.Node.Name, at.Kind)
		}
		site := at.Site
		if at.Kind == AttachKretprobe {
			site = kernel.RetSite(at.Site)
		}
		h.detach = m.Node.Probes.Attach(site, runProg)
	case AttachDevice:
		dev, ok := m.devices[at.Device]
		if !ok {
			return nil, fmt.Errorf("core: machine %s: unknown device %q", m.Node.Name, at.Device)
		}
		dir := at.Dir
		if dir == 0 {
			dir = vnet.Ingress
		}
		site := at.String()
		h.detach = dev.AttachHook(dir, func(p *vnet.Packet, d vnet.Direction) int64 {
			pc := kernel.ProbeCtx{
				Site:       site,
				Pkt:        p,
				DevIfindex: dev.Ifindex(),
				DevName:    dev.Name(),
				Dir:        d,
				TimeNs:     m.Node.Clock.NowNs(),
			}
			return runProg(&pc)
		})
	default:
		return nil, fmt.Errorf("core: machine %s: unknown attach kind %d", m.Node.Name, at.Kind)
	}
	return h, nil
}
