package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// buildCtxRef is the two-pass context build BuildCtx replaced, kept
// verbatim as its oracle: clear the buffer, then store each field, the
// flow fields through the recursive InnerFlow/InnerTraceID walks.
func buildCtxRef(buf []byte, pc *kernel.ProbeCtx) []byte {
	if cap(buf) < CtxSize {
		buf = make([]byte, CtxSize)
	}
	buf = buf[:CtxSize]
	for i := range buf {
		buf[i] = 0
	}
	le := binary.LittleEndian
	le.PutUint32(buf[CtxIfindex:], uint32(pc.DevIfindex))
	le.PutUint32(buf[CtxDir:], uint32(pc.Dir))
	le.PutUint32(buf[CtxCPU:], uint32(pc.CPU))
	le.PutUint64(buf[CtxTimeNs:], uint64(pc.TimeNs))
	if p := pc.Pkt; p != nil {
		le.PutUint32(buf[CtxLen:], uint32(p.WireLen()))
		le.PutUint32(buf[CtxEtherType:], uint32(p.Eth.EtherType))
		flow := p.InnerFlow()
		le.PutUint32(buf[CtxSrcIP:], uint32(flow.Src))
		le.PutUint32(buf[CtxDstIP:], uint32(flow.Dst))
		le.PutUint32(buf[CtxSrcPort:], uint32(flow.SrcPort))
		le.PutUint32(buf[CtxDstPort:], uint32(flow.DstPort))
		le.PutUint32(buf[CtxIPProto:], uint32(flow.Proto))
		le.PutUint32(buf[CtxTraceID:], p.InnerTraceID())
		le.PutUint64(buf[CtxSeq:], p.Seq)
		if p.VXLAN != nil {
			le.PutUint32(buf[CtxEncap:], 1)
		}
	}
	return buf
}

// checkCtxMatchesRef builds pc's context into a nil buffer and into one
// pre-filled with 0xff, and requires both to equal the oracle's bytes: a
// field BuildCtx left unwritten shows as 0xff.
func checkCtxMatchesRef(t *testing.T, name string, pc *kernel.ProbeCtx) {
	t.Helper()
	want := buildCtxRef(nil, pc)
	if got := BuildCtx(nil, pc); !bytes.Equal(got, want) {
		t.Errorf("%s: nil buffer:\n got %x\nwant %x", name, got, want)
	}
	dirty := bytes.Repeat([]byte{0xff}, CtxSize)
	if got := BuildCtx(dirty, pc); !bytes.Equal(got, want) {
		t.Errorf("%s: 0xff buffer:\n got %x\nwant %x", name, got, want)
	}
}

func ctxTestUDP(payload int) *vnet.Packet {
	return &vnet.Packet{
		Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP,
			Src: vnet.MustParseIPv4("10.0.0.1"), Dst: vnet.MustParseIPv4("10.0.0.2")},
		UDP:     &vnet.UDPHeader{SrcPort: 1234, DstPort: 9000},
		Payload: make([]byte, payload),
		Seq:     99,
		TraceID: 0xabcd,
	}
}

func ctxTestTCP() *vnet.Packet {
	return &vnet.Packet{
		Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP:  vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 3, Dst: 4},
		TCP: &vnet.TCPHeader{SrcPort: 40000, DstPort: 80, Flags: vnet.TCPFlagACK,
			Options: []vnet.TCPOption{{Kind: 30, Data: []byte{1, 2, 3, 4}}}},
		Payload: make([]byte, 100),
		Seq:     1 << 40,
		TraceID: 0xdeadbeef,
	}
}

func ctxTestVXLAN(inner *vnet.Packet, vni uint32) *vnet.Packet {
	return &vnet.Packet{
		Eth:   vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP:    vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 100, Dst: 200},
		UDP:   &vnet.UDPHeader{SrcPort: 48879, DstPort: 4789},
		VXLAN: &vnet.VXLANHeader{VNI: vni},
		Inner: inner,
		Seq:   5,
	}
}

// TestBuildCtxMatchesReference pins the one-pass BuildCtx to the bytes of
// the two-pass build it replaced, on a table of firing shapes and on a
// seeded sweep of random packets.
func TestBuildCtxMatchesReference(t *testing.T) {
	noTransport := &vnet.Packet{
		Eth:     vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP:      vnet.IPv4Header{Protocol: 1, Src: 7, Dst: 8},
		Payload: make([]byte, 10),
		TraceID: 3,
	}
	cases := []struct {
		name string
		pc   *kernel.ProbeCtx
	}{
		{"no packet", &kernel.ProbeCtx{CPU: 1, TimeNs: 5}},
		{"tcp", &kernel.ProbeCtx{Pkt: ctxTestTCP(), TimeNs: 1_000_000}},
		{"udp", &kernel.ProbeCtx{Pkt: ctxTestUDP(56), TimeNs: 1_000_000}},
		{"no transport", &kernel.ProbeCtx{Pkt: noTransport, TimeNs: 9}},
		{"vxlan over udp", &kernel.ProbeCtx{Pkt: ctxTestVXLAN(ctxTestUDP(56), 1), TimeNs: 2}},
		{"vxlan over tcp", &kernel.ProbeCtx{Pkt: ctxTestVXLAN(ctxTestTCP(), 2), TimeNs: 3}},
		{"two levels", &kernel.ProbeCtx{Pkt: ctxTestVXLAN(ctxTestVXLAN(ctxTestUDP(8), 3), 4), TimeNs: 4}},
		{"device hook", &kernel.ProbeCtx{Pkt: ctxTestUDP(56), DevIfindex: 5, DevName: "veth0",
			Dir: vnet.Egress, TimeNs: 1 << 50}},
		{"cpu 3", &kernel.ProbeCtx{Pkt: ctxTestUDP(0), CPU: 3, TimeNs: 6}},
	}
	for _, c := range cases {
		checkCtxMatchesRef(t, c.name, c.pc)
	}

	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 2000; i++ {
		pc := &kernel.ProbeCtx{
			CPU:        rng.Intn(8),
			DevIfindex: rng.Intn(64),
			Dir:        vnet.Direction(rng.Intn(3)),
			TimeNs:     rng.Int63(),
		}
		if rng.Intn(8) != 0 {
			pc.Pkt = randCtxPacket(rng, rng.Intn(4))
		}
		checkCtxMatchesRef(t, fmt.Sprintf("random #%d", i), pc)
	}
}

// randCtxPacket builds a packet with random headers, payload and fields,
// nested depth levels deep. An outer level may carry an inner packet with
// or without a VXLAN header, so the sweep also covers shapes no encap
// path builds.
func randCtxPacket(rng *rand.Rand, depth int) *vnet.Packet {
	p := &vnet.Packet{
		Eth:     vnet.EthernetHeader{EtherType: uint16(rng.Intn(1 << 16))},
		IP:      vnet.IPv4Header{Protocol: uint8(rng.Intn(256)), Src: vnet.IPv4(rng.Uint32()), Dst: vnet.IPv4(rng.Uint32())},
		Payload: make([]byte, rng.Intn(1500)),
		Seq:     rng.Uint64(),
		TraceID: rng.Uint32(),
	}
	switch rng.Intn(3) {
	case 0:
		p.TCP = &vnet.TCPHeader{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32())}
		if rng.Intn(2) == 0 {
			p.TCP.Options = []vnet.TCPOption{{Kind: 30, Data: make([]byte, 2*rng.Intn(4))}}
		}
	case 1:
		p.UDP = &vnet.UDPHeader{SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32())}
	}
	if depth > 0 {
		p.Inner = randCtxPacket(rng, depth-1)
		if rng.Intn(4) != 0 {
			p.VXLAN = &vnet.VXLANHeader{VNI: rng.Uint32() & 0xffffff}
		}
	} else if rng.Intn(8) == 0 {
		p.VXLAN = &vnet.VXLANHeader{VNI: 9}
	}
	return p
}
