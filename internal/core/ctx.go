// Package core is vNetTracer's tracing core: the eBPF context ABI exposed
// to trace programs, the raw trace-record format they emit, the per-node
// kernel ring buffer that stages records for userspace (the paper's kernel
// module mmap'd to /proc), and the Machine runtime that attaches verified
// programs to kernel probe sites and device hooks while charging their
// execution cost to the traced packets.
package core

import (
	"encoding/binary"

	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// Context layout offsets, in bytes. Trace programs read these fields with
// LDX instructions; the layout plays the role of __sk_buff. All fields are
// little-endian. For VXLAN-encapsulated packets the flow fields describe
// the *inner* flow (the script runtime strips the encapsulation, as the
// paper notes its scripts must) and CtxEncap is 1.
const (
	CtxLen       = 0  // u32: wire length in bytes
	CtxEtherType = 4  // u32
	CtxIfindex   = 8  // u32: device index at the attach point
	CtxSrcIP     = 12 // u32
	CtxDstIP     = 16 // u32
	CtxSrcPort   = 20 // u32
	CtxDstPort   = 24 // u32
	CtxIPProto   = 28 // u32: 6 TCP, 17 UDP
	CtxTraceID   = 32 // u32: vNetTracer packet ID (0 = untraced)
	CtxDir       = 36 // u32: 1 ingress, 2 egress, 0 n/a
	CtxCPU       = 40 // u32: executing CPU
	CtxEncap     = 44 // u32: 1 when the packet was VXLAN-encapsulated
	CtxSeq       = 48 // u64: sender-assigned packet number
	CtxTimeNs    = 56 // u64: node CLOCK_MONOTONIC at the probe fire

	// CtxSize is the context structure size passed to the verifier.
	CtxSize = 64
)

// BuildCtx serializes a probe firing into the eBPF context buffer. pkt may
// be nil (packet-less probes such as pure function tracing); flow fields
// are zero then. Every field is written, zeros included, so a reused
// buffer needs no clearing and keeps no byte of an earlier firing.
func BuildCtx(buf []byte, pc *kernel.ProbeCtx) []byte {
	if cap(buf) < CtxSize {
		buf = make([]byte, CtxSize)
	}
	buf = buf[:CtxSize]
	var wireLen, etherType, traceID, encap uint32
	var seq uint64
	var flow vnet.FiveTuple
	if p := pc.Pkt; p != nil {
		in := p
		for in.Inner != nil {
			in = in.Inner
		}
		wireLen = uint32(p.WireLen())
		etherType = uint32(p.Eth.EtherType)
		flow = in.Flow()
		traceID = in.TraceID
		seq = p.Seq
		if p.VXLAN != nil {
			encap = 1
		}
	}
	b := (*[CtxSize]byte)(buf)
	le := binary.LittleEndian
	le.PutUint32(b[CtxLen:], wireLen)
	le.PutUint32(b[CtxEtherType:], etherType)
	le.PutUint32(b[CtxIfindex:], uint32(pc.DevIfindex))
	le.PutUint32(b[CtxSrcIP:], uint32(flow.Src))
	le.PutUint32(b[CtxDstIP:], uint32(flow.Dst))
	le.PutUint32(b[CtxSrcPort:], uint32(flow.SrcPort))
	le.PutUint32(b[CtxDstPort:], uint32(flow.DstPort))
	le.PutUint32(b[CtxIPProto:], uint32(flow.Proto))
	le.PutUint32(b[CtxTraceID:], traceID)
	le.PutUint32(b[CtxDir:], uint32(pc.Dir))
	le.PutUint32(b[CtxCPU:], uint32(pc.CPU))
	le.PutUint32(b[CtxEncap:], encap)
	le.PutUint64(b[CtxSeq:], seq)
	le.PutUint64(b[CtxTimeNs:], uint64(pc.TimeNs))
	return buf
}
