// Package vnettracer is an efficient and programmable packet tracer for
// (simulated) virtualized networks — a faithful reimplementation of the
// system described in "vNetTracer: Efficient and Programmable Packet
// Tracing in Virtualized Networks" (ICDCS 2018).
//
// The library has three planes, mirroring the paper's Figure 2:
//
//   - A data plane (internal/vnet, internal/kernel, internal/ovs,
//     internal/overlay, internal/hyper): a discrete-event simulation of
//     hosts, VMs, containers, switches, and hypervisor schedulers, in
//     which workloads (internal/workload) send real byte-level packets.
//
//   - A tracing plane: user trace specifications (filters + actions) are
//     compiled to eBPF bytecode (internal/script), verified and
//     interpreted by an in-kernel VM model (internal/ebpf), attached at
//     kprobes and device hooks (internal/core), and their records staged
//     in a bounded kernel ring buffer.
//
//   - A control plane (internal/control): a dispatcher pushes control
//     packages to per-machine agents; agents flush raw records to a
//     collector that loads them into a trace database (internal/tracedb)
//     and monitors agent heartbeats. Components connect in-process or
//     over a TCP protocol (cmd/vnettracer).
//
// Analyses (internal/metrics) compute the paper's metrics from collected
// records: per-flow throughput, latency between tracepoints joined on the
// embedded 32-bit packet trace ID, jitter, packet loss, and end-to-end
// latency decomposition — with Cristian-algorithm clock-skew correction
// (internal/clocksync) for cross-machine tracepoints.
//
// The quickest way in is a Session:
//
//	eng := vnettracer.NewEngine(1)
//	node := vnettracer.NewNode(eng, vnettracer.NodeConfig{Name: "vm1", TraceIDs: true})
//	machine, _ := vnettracer.NewMachine(node, 64*1024)
//	s := vnettracer.NewSession()
//	s.AddMachine(machine)
//	s.InstallRecord("vm1", "rx", vnettracer.AttachPoint{
//	    Kind: vnettracer.AttachKProbe, Site: vnettracer.SiteUDPRecvmsg,
//	}, vnettracer.Filter{DstPort: 9000})
//	// ... wire devices, run workloads, eng.Run(...)
//	s.Flush()
//	table, _ := s.Table("rx")
//
// See examples/ for complete programs reproducing the paper's three case
// studies.
package vnettracer

import (
	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// Simulation core.
type (
	// Engine is the discrete-event simulation engine all components run on.
	Engine = sim.Engine
	// Node is a simulated machine (host, VM, or Dom0).
	Node = kernel.Node
	// NodeConfig configures a Node.
	NodeConfig = kernel.NodeConfig
	// Costs is a node's kernel cost model.
	Costs = kernel.Costs
	// Socket is an application endpoint on a node.
	Socket = kernel.Socket
	// ProbeCtx is the information a probe firing exposes; applications
	// fire uprobe sites with it via Node.Probes.Fire.
	ProbeCtx = kernel.ProbeCtx
	// SockAddr is an (IP, port) endpoint.
	SockAddr = kernel.SockAddr
	// Packet is a simulated network packet.
	Packet = vnet.Packet
	// NetDev is a queueing network device with trace hooks.
	NetDev = vnet.NetDev
	// NetDevConfig configures a NetDev.
	NetDevConfig = vnet.NetDevConfig
	// Link is a point-to-point wire.
	Link = vnet.Link
	// IPv4 is an IPv4 address.
	IPv4 = vnet.IPv4
)

// Tracing surface.
type (
	// Machine is a monitored node: kernel + devices + trace ring buffer.
	Machine = core.Machine
	// AttachPoint names where a trace program attaches.
	AttachPoint = core.AttachPoint
	// Record is one raw trace record.
	Record = core.Record
	// TraceSpec is a trace-script specification (filter rules + actions).
	TraceSpec = script.Spec
	// Filter matches packets; zero fields match anything.
	Filter = script.Filter
	// Action is a tracing action.
	Action = script.Action
	// Compiled is a loaded trace script with map handles.
	Compiled = script.Compiled
	// Program is a verified eBPF program.
	Program = ebpf.Program
	// Table is one tracepoint's records in the trace database.
	Table = tracedb.Table
	// DB is the trace database.
	DB = tracedb.DB
	// StoreConfig tunes the trace database's segment store (segment size,
	// spill directory, retention budget).
	StoreConfig = tracedb.Config
	// Extent is one sealed, immutable, compressed storage segment. (Named
	// Extent because Segment is the latency-decomposition hop below.)
	Extent = tracedb.Extent
	// StorageStats is a snapshot of segment-store accounting.
	StorageStats = tracedb.StorageStats
	// Merged is the read-only query view of one tracepoint: its table's
	// partitions (one per collector holding a shard), k-way merged.
	Merged = tracedb.Merged
	// ScriptAgg is one script's merged in-probe aggregate state.
	ScriptAgg = tracedb.ScriptAgg
	// TopKFlows is a mergeable top-K flow sketch with exact overflow
	// accounting.
	TopKFlows = metrics.TopKFlows
	// FlowCount is one flow's packet/byte sums inside a TopKFlows sketch.
	FlowCount = metrics.FlowCount
	// Agent is a per-machine tracing daemon.
	Agent = control.Agent
	// Dispatcher pushes control packages to agents.
	Dispatcher = control.Dispatcher
	// Collector loads record batches into the trace database.
	Collector = control.Collector
	// ControlPackage carries scripts to install or remove.
	ControlPackage = control.ControlPackage
	// LatencySample is one per-packet latency measurement.
	LatencySample = metrics.LatencySample
	// Summary bundles latency statistics.
	Summary = metrics.Summary
	// FlowKey identifies a flow in collected records.
	FlowKey = metrics.FlowKey
	// FlowStats summarizes one flow at a tracepoint.
	FlowStats = metrics.FlowStats
	// Segment is one hop of a latency decomposition.
	Segment = metrics.Segment
	// RecordSource streams records for one-pass analyses; *Table satisfies
	// it via Scan, in raw (not skew-corrected) time.
	RecordSource = metrics.RecordSource
	// RecordBatch is what agents ship to the collector.
	RecordBatch = control.RecordBatch
	// RecordSink is what agents ship record batches to.
	RecordSink = control.RecordSink
	// DurabilityConfig places a collector's write-ahead log and
	// checkpoints; an empty Dir means unlogged.
	DurabilityConfig = tracedb.DurabilityConfig
)

// Attach kinds and probe sites.
const (
	AttachKProbe    = core.AttachKProbe
	AttachDevice    = core.AttachDevice
	AttachKretprobe = core.AttachKretprobe
	AttachUprobe    = core.AttachUprobe

	SiteUDPSendSkb      = kernel.SiteUDPSendSkb
	SiteTCPOptionsWrite = kernel.SiteTCPOptionsWrite
	SiteUDPRecvmsg      = kernel.SiteUDPRecvmsg
	SiteTCPRecvmsg      = kernel.SiteTCPRecvmsg
	SiteNetRxAction     = kernel.SiteNetRxAction
	SiteGetRPSCPU       = kernel.SiteGetRPSCPU
)

// Trace actions.
const (
	ActionRecord  = script.ActionRecord
	ActionCount   = script.ActionCount
	ActionCPUHist = script.ActionCPUHist
)

// Protocol numbers.
const (
	ProtoTCP = vnet.ProtoTCP
	ProtoUDP = vnet.ProtoUDP
)

// Hook directions.
const (
	Ingress = vnet.Ingress
	Egress  = vnet.Egress
)

// Time units in simulated nanoseconds.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a deterministic discrete-event engine.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// NewNode creates a simulated machine on the engine.
func NewNode(eng *Engine, cfg NodeConfig) *Node { return kernel.NewNode(eng, cfg) }

// NewMachine wraps a node for tracing with one kernel ring buffer per
// simulated CPU, each of bufferBytes capacity (valid range: 32 bytes to
// 128KiB-16 per ring, per the paper's kernel module).
func NewMachine(node *Node, bufferBytes int) (*Machine, error) {
	return core.NewMachine(node, bufferBytes)
}

// NewNetDev creates a network device on the engine.
func NewNetDev(eng *Engine, cfg NetDevConfig) *NetDev { return vnet.NewNetDev(eng, cfg) }

// NewLink creates a unidirectional wire delivering to dst.
func NewLink(eng *Engine, bps, propNs int64, dst func(p *Packet)) *Link {
	return vnet.NewLink(eng, bps, propNs, dst)
}

// UprobeSite names a user-level probe site for an application symbol; use
// it with AttachUprobe. Applications fire these sites through their node's
// probe registry.
func UprobeSite(app, symbol string) string { return kernel.UprobeSite(app, symbol) }

// ParseIP parses dotted-quad IPv4 notation.
func ParseIP(s string) (IPv4, error) { return vnet.ParseIPv4(s) }

// MustParseIP parses dotted-quad IPv4 notation, panicking on bad input.
func MustParseIP(s string) IPv4 { return vnet.MustParseIPv4(s) }

// CompileSpec compiles and verifies a trace specification, returning the
// loaded program and its maps. Sessions do this internally; direct use is
// for callers managing attachment themselves.
func CompileSpec(spec TraceSpec) (*Compiled, error) { return script.Compile(spec) }

// Analysis helpers re-exported from internal/metrics.

// Throughput computes bits/s over one tracepoint's records using the
// paper's formula sum(S_i - S_ID) / (T_N - T_1).
func Throughput(recs []Record) (float64, error) { return metrics.Throughput(recs) }

// Latencies joins two tracepoint tables on packet ID and returns
// per-packet latency (skew-aligned).
func Latencies(a, b *Table) []LatencySample {
	return metrics.Latencies(tracedb.Merge(a), tracedb.Merge(b))
}

// Jitter returns consecutive latency differences.
func Jitter(samples []LatencySample) []int64 { return metrics.Jitter(samples) }

// Loss computes packet loss between two tracepoints.
func Loss(a, b *Table) (lost int64, rate float64) {
	return metrics.Loss(tracedb.Merge(a), tracedb.Merge(b))
}

// Summarize computes count/mean/percentiles over latency values.
func Summarize(vals []int64) Summary { return metrics.Summarize(vals) }

// Values extracts nanosecond latencies from samples.
func Values(samples []LatencySample) []int64 { return metrics.Values(samples) }

// Percentile returns the p-th percentile of vals.
func Percentile(vals []int64, p float64) int64 { return metrics.Percentile(vals, p) }

// PerFlowThroughput groups one tracepoint's records by 5-tuple and
// computes each flow's throughput (the paper's per-flow metric).
func PerFlowThroughput(recs []Record) []FlowStats { return metrics.PerFlowThroughput(recs) }

// InterArrivals returns consecutive packet arrival gaps at a tracepoint.
func InterArrivals(recs []Record) []int64 { return metrics.InterArrivals(recs) }

// Streaming variants: one-pass analyses over a live table (or any
// RecordSource) without materializing a full record copy.

// ThroughputOf computes one-pass throughput over a record stream.
func ThroughputOf(src RecordSource) (float64, error) { return metrics.ThroughputOf(src) }

// PerFlowThroughputOf computes one-pass per-flow throughput over a record
// stream.
func PerFlowThroughputOf(src RecordSource) []FlowStats { return metrics.PerFlowThroughputOf(src) }

// InterArrivalsOf returns consecutive packet arrival gaps over a record
// stream.
func InterArrivalsOf(src RecordSource) []int64 { return metrics.InterArrivalsOf(src) }
