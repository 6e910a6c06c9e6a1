// Package script compiles vNetTracer trace specifications — filter rules
// plus actions, as the user writes them in configuration files — into eBPF
// bytecode that loads through the verifier and runs in the in-kernel VM.
// This is the paper's programmability layer: "users provide information
// such as ethernet type, source IP, destination port, etc. to generate the
// filter rules".
package script

import (
	"encoding/binary"
	"fmt"
	"slices"

	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// Action is one tracing action executed when a packet matches the filter.
type Action int

// Supported actions.
const (
	// ActionRecord emits a 48-byte trace record (packet ID, tracepoint,
	// nanosecond timestamp, length, flow) to the kernel buffer — the
	// paper's "record the current system time in nanosecond".
	ActionRecord Action = iota + 1
	// ActionCount maintains packet and byte counters in an array map.
	ActionCount
	// ActionCPUHist counts invocations per CPU in a per-CPU map (case
	// study III's softirq distribution measurement).
	ActionCPUHist
	// ActionHist observes probe latency (ktime minus the context
	// timestamp) into a log2-bucket histogram — per-packet timing at a
	// tiny fixed map footprint instead of a 48-byte record per packet.
	ActionHist
	// ActionFlowCount sums packets and bytes per 5-tuple flow in a hash
	// map ("sum by flow"): the in-probe aggregation that replaces
	// shipping every record for throughput metrics.
	ActionFlowCount
)

func (a Action) String() string {
	switch a {
	case ActionRecord:
		return "record"
	case ActionCount:
		return "count"
	case ActionCPUHist:
		return "cpuhist"
	case ActionHist:
		return "hist"
	case ActionFlowCount:
		return "flowcount"
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Filter matches packets. Zero-valued fields match anything, following the
// paper's configuration-file semantics.
type Filter struct {
	SrcIP      vnet.IPv4 `json:"src_ip,omitempty"`
	DstIP      vnet.IPv4 `json:"dst_ip,omitempty"`
	SrcPort    uint16    `json:"src_port,omitempty"`
	DstPort    uint16    `json:"dst_port,omitempty"`
	Proto      uint8     `json:"proto,omitempty"`
	TracedOnly bool      `json:"traced_only,omitempty"`
}

// Spec is a complete trace-script specification: where to attach, what to
// match, and what to do.
type Spec struct {
	Name    string           `json:"name"`
	TPID    uint32           `json:"tp_id"`
	Attach  core.AttachPoint `json:"attach"`
	Filter  Filter           `json:"filter"`
	Actions []Action         `json:"actions"`
	// NumCPU sizes the per-CPU histogram map; defaults to 64.
	NumCPU int `json:"num_cpu,omitempty"`
	// MaxFlows caps the flow-count hash map; defaults to 1024. Flows
	// beyond the cap are dropped by the probe (inc fails), mirroring a
	// full kernel map.
	MaxFlows int `json:"max_flows,omitempty"`
}

// Compiled is a loaded trace script with handles to its maps for userspace
// readout.
type Compiled struct {
	Spec Spec
	Prog *ebpf.Program
	// Counters is non-nil when ActionCount is present: slot 0 = packets,
	// slot 1 = bytes.
	Counters *ebpf.ArrayMap
	// CPUHist is non-nil when ActionCPUHist is present: slot 0 counts per
	// CPU.
	CPUHist *ebpf.PerCPUArray
	// Hist is non-nil when ActionHist is present: HistBuckets log2
	// latency buckets (bucket 0 = zero, bucket b = [2^(b-1), 2^b) ns).
	Hist *ebpf.ArrayMap
	// Flows is non-nil when ActionFlowCount is present: per-flow
	// packet/byte sums keyed by the packed 5-tuple.
	Flows *ebpf.HashMap
}

// Counter map slots.
const (
	SlotPackets = 0
	SlotBytes   = 1
)

// Aggregation map geometry.
const (
	// HistBuckets is the log2 histogram width: bucket 63 absorbs every
	// sample of 2^62 ns and beyond.
	HistBuckets = 64
	// FlowKeySize packs srcIP(4) dstIP(4) sport(2) dport(2) proto(1)
	// pad(3).
	FlowKeySize = 16
	// FlowValueSize holds packets at offset FlowValPackets and bytes at
	// FlowValBytes.
	FlowValueSize  = 16
	FlowValPackets = 0
	FlowValBytes   = 8
)

// CompileToInsns compiles the spec to raw instructions and a map table
// without loading (verification happens in Compile / ebpf.Load). Exposed
// for verifier benchmarking and inspection tools.
func CompileToInsns(spec Spec) ([]ebpf.Insn, []ebpf.Map, error) {
	c, b, err := build(spec)
	if err != nil {
		return nil, nil, err
	}
	_ = c
	return b.Program()
}

// Compile builds, verifies and loads the spec's eBPF program.
func Compile(spec Spec) (*Compiled, error) {
	c, b, err := build(spec)
	if err != nil {
		return nil, err
	}
	insns, maps, err := b.Program()
	if err != nil {
		return nil, fmt.Errorf("script: %q: %w", spec.Name, err)
	}
	prog, err := ebpf.Load(ebpf.ProgramSpec{
		Name:    spec.Name,
		Type:    attachProgType(spec.Attach),
		Insns:   insns,
		Maps:    maps,
		CtxSize: core.CtxSize,
	})
	if err != nil {
		return nil, fmt.Errorf("script: %q: %w", spec.Name, err)
	}
	c.Prog = prog
	return c, nil
}

// build emits the spec's bytecode into a fresh builder.
func build(spec Spec) (*Compiled, *ebpf.Builder, error) {
	if len(spec.Actions) == 0 {
		return nil, nil, fmt.Errorf("script: %q: no actions", spec.Name)
	}
	if spec.NumCPU <= 0 {
		spec.NumCPU = 64
	}
	if spec.MaxFlows <= 0 {
		spec.MaxFlows = 1024
	}

	c := &Compiled{Spec: spec}
	b := ebpf.NewBuilder()

	// r6 holds the context across helper calls.
	b.Mov(ebpf.R6, ebpf.R1)

	emitFilter(b, spec.Filter)

	for _, a := range spec.Actions {
		switch a {
		case ActionRecord:
			emitRecord(b, spec.TPID)
		case ActionCount:
			if c.Counters == nil {
				m, err := ebpf.NewArrayMap(8, 2)
				if err != nil {
					return nil, nil, fmt.Errorf("script: %q: %w", spec.Name, err)
				}
				c.Counters = m
			}
			emitCount(b, c.Counters)
		case ActionCPUHist:
			if c.CPUHist == nil {
				m, err := ebpf.NewPerCPUArray(8, 1, spec.NumCPU)
				if err != nil {
					return nil, nil, fmt.Errorf("script: %q: %w", spec.Name, err)
				}
				c.CPUHist = m
			}
			emitIncrMap(b, c.CPUHist)
		case ActionHist:
			if c.Hist == nil {
				m, err := ebpf.NewArrayMap(8, HistBuckets)
				if err != nil {
					return nil, nil, fmt.Errorf("script: %q: %w", spec.Name, err)
				}
				c.Hist = m
			}
			emitHist(b, c.Hist)
		case ActionFlowCount:
			if c.Flows == nil {
				m, err := ebpf.NewHashMap(FlowKeySize, FlowValueSize, spec.MaxFlows)
				if err != nil {
					return nil, nil, fmt.Errorf("script: %q: %w", spec.Name, err)
				}
				c.Flows = m
			}
			emitFlowCount(b, c.Flows)
		default:
			return nil, nil, fmt.Errorf("script: %q: unknown action %d", spec.Name, a)
		}
	}

	// Matched: r0 = 1.
	b.MovImm(ebpf.R0, 1).ExitInsn()
	// Filtered out: r0 = 0.
	b.Label("out").MovImm(ebpf.R0, 0).ExitInsn()
	return c, b, nil
}

func attachProgType(at core.AttachPoint) ebpf.ProgType {
	switch at.Kind {
	case core.AttachKProbe, core.AttachUprobe:
		return ebpf.ProgTypeKprobe
	case core.AttachKretprobe:
		return ebpf.ProgTypeKretprobe
	}
	return ebpf.ProgTypeSocketFilter
}

// emitFilter emits comparisons that fall through on match and jump to
// "out" on mismatch. JMP32 comparisons keep high-bit IPs matchable.
func emitFilter(b *ebpf.Builder, f Filter) {
	check := func(off int16, want uint32) {
		b.Load(ebpf.R2, ebpf.R6, off, ebpf.SizeW)
		b.Jump32ImmTo(ebpf.JmpNe, ebpf.R2, int32(want), "out")
	}
	if f.Proto != 0 {
		check(core.CtxIPProto, uint32(f.Proto))
	}
	if f.SrcIP != 0 {
		check(core.CtxSrcIP, uint32(f.SrcIP))
	}
	if f.DstIP != 0 {
		check(core.CtxDstIP, uint32(f.DstIP))
	}
	if f.SrcPort != 0 {
		check(core.CtxSrcPort, uint32(f.SrcPort))
	}
	if f.DstPort != 0 {
		check(core.CtxDstPort, uint32(f.DstPort))
	}
	if f.TracedOnly {
		b.Load(ebpf.R2, ebpf.R6, core.CtxTraceID, ebpf.SizeW)
		b.Jump32ImmTo(ebpf.JmpEq, ebpf.R2, 0, "out")
	}
}

// emitRecord assembles the 48-byte record on the stack at r10-48 and emits
// it through perf_event_output. Offsets match core.Record's wire format.
func emitRecord(b *ebpf.Builder, tpid uint32) {
	const base = -int16(core.RecordSize)
	copyW := func(ctxOff, recOff int16) {
		b.Load(ebpf.R2, ebpf.R6, ctxOff, ebpf.SizeW)
		b.Store(ebpf.R10, base+recOff, ebpf.R2, ebpf.SizeW)
	}
	copyDW := func(ctxOff, recOff int16) {
		b.Load(ebpf.R2, ebpf.R6, ctxOff, ebpf.SizeDW)
		b.Store(ebpf.R10, base+recOff, ebpf.R2, ebpf.SizeDW)
	}
	copyW(core.CtxTraceID, 0)
	b.MovImm(ebpf.R2, int32(tpid))
	b.Store(ebpf.R10, base+4, ebpf.R2, ebpf.SizeW)
	copyDW(core.CtxTimeNs, 8)
	copyW(core.CtxLen, 16)
	copyW(core.CtxCPU, 20)
	copyDW(core.CtxSeq, 24)
	copyW(core.CtxSrcIP, 32)
	copyW(core.CtxDstIP, 36)
	// Ports are stored as u16 in the record but u32 in the context.
	b.Load(ebpf.R2, ebpf.R6, core.CtxSrcPort, ebpf.SizeW)
	b.Store(ebpf.R10, base+40, ebpf.R2, ebpf.SizeH)
	b.Load(ebpf.R2, ebpf.R6, core.CtxDstPort, ebpf.SizeW)
	b.Store(ebpf.R10, base+42, ebpf.R2, ebpf.SizeH)
	b.Load(ebpf.R2, ebpf.R6, core.CtxIPProto, ebpf.SizeW)
	b.Store(ebpf.R10, base+44, ebpf.R2, ebpf.SizeB)
	b.Load(ebpf.R2, ebpf.R6, core.CtxDir, ebpf.SizeW)
	b.Store(ebpf.R10, base+45, ebpf.R2, ebpf.SizeB)
	// Zero the 2 padding bytes so records are deterministic.
	b.Emit(ebpf.StoreImm(ebpf.R10, base+46, 0, ebpf.SizeH))

	b.Mov(ebpf.R1, ebpf.R6)
	b.MovImm(ebpf.R2, 0)
	b.Mov(ebpf.R3, ebpf.R10)
	b.ALUImm(ebpf.ALUAdd, ebpf.R3, int32(base))
	b.MovImm(ebpf.R4, core.RecordSize)
	b.Call(ebpf.HelperPerfEventOutput)
}

// emitInc emits one map_inc_elem call: map[stack key at keyOff] gets
// value[valOff] += r3, which the caller has already loaded. The fetch-add
// replaces the old lookup/branch/add/store sequence — no NULL check, no
// branch, and the optimized tier inlines it to one locked add.
func emitInc(b *ebpf.Builder, m ebpf.Map, keyOff int16, valOff int32) {
	b.LoadMapFD(ebpf.R1, m)
	b.Mov(ebpf.R2, ebpf.R10)
	b.ALUImm(ebpf.ALUAdd, ebpf.R2, int32(keyOff))
	b.MovImm(ebpf.R4, valOff)
	b.Call(ebpf.HelperMapIncElem)
}

// emitCount increments the packet counter (slot 0) and adds the packet
// length to the byte counter (slot 1).
func emitCount(b *ebpf.Builder, m ebpf.Map) {
	// Packets: counters[0] += 1.
	b.Emit(ebpf.StoreImm(ebpf.R10, -4, SlotPackets, ebpf.SizeW))
	b.MovImm(ebpf.R3, 1)
	emitInc(b, m, -4, 0)
	// Bytes: counters[1] += ctx.len.
	b.Emit(ebpf.StoreImm(ebpf.R10, -4, SlotBytes, ebpf.SizeW))
	b.Load(ebpf.R3, ebpf.R6, core.CtxLen, ebpf.SizeW)
	emitInc(b, m, -4, 0)
}

// emitIncrMap increments slot 0 of m (the executing CPU's replica for
// per-CPU maps, taken contention-free through the per-CPU fast path).
func emitIncrMap(b *ebpf.Builder, m ebpf.Map) {
	b.Emit(ebpf.StoreImm(ebpf.R10, -4, 0, ebpf.SizeW))
	b.MovImm(ebpf.R3, 1)
	emitInc(b, m, -4, 0)
}

// emitHist observes ktime_get_ns() - ctx.time_ns — the probe-to-probe
// latency of the traced packet — into the log2 histogram. A sample that
// would be negative (skewed clock) wraps and lands in the top bucket.
func emitHist(b *ebpf.Builder, m ebpf.Map) {
	b.Call(ebpf.HelperKtimeGetNs)
	b.Mov(ebpf.R2, ebpf.R0)
	b.Load(ebpf.R1, ebpf.R6, core.CtxTimeNs, ebpf.SizeDW)
	b.ALUReg(ebpf.ALUSub, ebpf.R2, ebpf.R1)
	b.LoadMapFD(ebpf.R1, m)
	b.Call(ebpf.HelperHistObserve)
}

// emitFlowCount packs the 5-tuple key at r10-64 (below the record build
// area at r10-48) and bumps both value lanes: packets and bytes.
func emitFlowCount(b *ebpf.Builder, m ebpf.Map) {
	const base = -64
	copyKey := func(ctxOff, keyOff int16, size uint8) {
		b.Load(ebpf.R2, ebpf.R6, ctxOff, ebpf.SizeW)
		b.Store(ebpf.R10, base+keyOff, ebpf.R2, size)
	}
	copyKey(core.CtxSrcIP, 0, ebpf.SizeW)
	copyKey(core.CtxDstIP, 4, ebpf.SizeW)
	copyKey(core.CtxSrcPort, 8, ebpf.SizeH)
	copyKey(core.CtxDstPort, 10, ebpf.SizeH)
	copyKey(core.CtxIPProto, 12, ebpf.SizeB)
	b.Emit(ebpf.StoreImm(ebpf.R10, base+13, 0, ebpf.SizeB))
	b.Emit(ebpf.StoreImm(ebpf.R10, base+14, 0, ebpf.SizeH))

	// flows[key].packets += 1; flows[key].bytes += ctx.len. The key stays
	// initialized on the stack across both calls.
	b.MovImm(ebpf.R3, 1)
	emitInc(b, m, base, FlowValPackets)
	b.Load(ebpf.R3, ebpf.R6, core.CtxLen, ebpf.SizeW)
	emitInc(b, m, base, FlowValBytes)
}

// ReadCounter reads a counter slot from a compiled script's array map.
func (c *Compiled) ReadCounter(slot int) (uint64, bool) {
	if c.Counters == nil {
		return 0, false
	}
	key := []byte{byte(slot), 0, 0, 0}
	v, ok := c.Counters.Lookup(key)
	if !ok || len(v) < 8 {
		return 0, false
	}
	return leU64(v), true
}

// ReadCPUHist returns per-CPU invocation counts.
func (c *Compiled) ReadCPUHist() []uint64 {
	if c.CPUHist == nil {
		return nil
	}
	out := make([]uint64, c.CPUHist.NumCPU())
	key := []byte{0, 0, 0, 0}
	for cpu := range out {
		if v, ok := c.CPUHist.LookupCPU(key, cpu); ok {
			out[cpu] = leU64(v)
		}
	}
	return out
}

// HasAggregates reports whether the script maintains any aggregation map
// worth draining.
func (c *Compiled) HasAggregates() bool {
	return c.Counters != nil || c.CPUHist != nil || c.Hist != nil || c.Flows != nil
}

// DrainAggregates atomically snapshots and resets every aggregation map
// into dst, reusing its arrays: counters, per-CPU hits, histogram buckets
// and flow rows sorted by tracedb.CompareFlows. A series the script lacks
// comes back empty. dst.Script is left as it is. Counts observed by
// concurrent probe invocations land in exactly one snapshot (array lanes
// are swapped to zero atomically, flow entries are parked under the hash
// map's lock), so periodic drains never lose or double-count.
func (c *Compiled) DrainAggregates(dst *tracedb.ScriptAgg) {
	dst.Counters, dst.CPUHits, dst.Hist, dst.Flows = dst.Counters[:0], dst.CPUHits[:0], dst.Hist[:0], dst.Flows[:0]
	if c.Counters != nil {
		dst.Counters = c.Counters.DrainU64(dst.Counters)
	}
	if c.CPUHist != nil {
		dst.CPUHits = c.CPUHist.DrainU64CPUs(0, dst.CPUHits)
	}
	if c.Hist != nil {
		dst.Hist = c.Hist.DrainU64(dst.Hist)
	}
	if c.Flows != nil {
		dst.Flows = slices.Grow(dst.Flows, c.Flows.Len())
		c.Flows.Drain(func(k, v []byte) {
			dst.Flows = append(dst.Flows, tracedb.FlowAgg{
				SrcIP:   binary.LittleEndian.Uint32(k[0:]),
				DstIP:   binary.LittleEndian.Uint32(k[4:]),
				SrcPort: binary.LittleEndian.Uint16(k[8:]),
				DstPort: binary.LittleEndian.Uint16(k[10:]),
				Proto:   k[12],
				Packets: binary.LittleEndian.Uint64(v[FlowValPackets:]),
				Bytes:   binary.LittleEndian.Uint64(v[FlowValBytes:]),
			})
		})
		slices.SortFunc(dst.Flows, tracedb.CompareFlows)
	}
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
