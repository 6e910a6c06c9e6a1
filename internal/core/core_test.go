package core

import (
	"errors"
	"testing"
	"testing/quick"

	"vnettracer/internal/ebpf"
	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

func TestRecordRoundTrip(t *testing.T) {
	r := Record{
		TraceID: 0xdeadbeef, TPID: 7, TimeNs: 123456789012,
		Len: 1500, CPU: 3, Seq: 42,
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: 40000, DstPort: 9000, Proto: 17, Dir: 1,
	}
	b := r.Marshal(nil)
	if len(b) != RecordSize {
		t.Fatalf("marshal len = %d", len(b))
	}
	got, err := UnmarshalRecord(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripQuick(t *testing.T) {
	f := func(traceID, tpid, l, cpu, sip, dip uint32, tns, seq uint64, sp, dp uint16, proto, dir uint8) bool {
		r := Record{
			TraceID: traceID, TPID: tpid, TimeNs: tns, Len: l, CPU: cpu,
			Seq: seq, SrcIP: sip, DstIP: dip, SrcPort: sp, DstPort: dp,
			Proto: proto, Dir: dir,
		}
		got, err := UnmarshalRecord(r.Marshal(nil))
		return err == nil && got == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalRecordsStream(t *testing.T) {
	var b []byte
	for i := 0; i < 5; i++ {
		r := Record{TraceID: uint32(i + 1), TPID: 1}
		b = r.Marshal(b)
	}
	recs, err := UnmarshalRecords(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[4].TraceID != 5 {
		t.Fatalf("records = %+v", recs)
	}
	if _, err := UnmarshalRecords(b[:10]); err == nil {
		t.Fatal("ragged stream accepted")
	}
}

func TestRingBufferLimits(t *testing.T) {
	if _, err := NewRingBuffer(MinBufferBytes - 1); !errors.Is(err, ErrBufferSize) {
		t.Fatalf("tiny buffer: %v", err)
	}
	if _, err := NewRingBuffer(MaxBufferBytes + 1); !errors.Is(err, ErrBufferSize) {
		t.Fatalf("huge buffer: %v", err)
	}
	for _, ok := range []int{MinBufferBytes, MaxBufferBytes, 4096} {
		if _, err := NewRingBuffer(ok); err != nil {
			t.Fatalf("NewRingBuffer(%d): %v", ok, err)
		}
	}
}

func TestRingBufferWriteDrainDrop(t *testing.T) {
	rb, err := NewRingBuffer(100)
	if err != nil {
		t.Fatal(err)
	}
	if !rb.Write(make([]byte, 48)) || !rb.Write(make([]byte, 48)) {
		t.Fatal("writes within capacity failed")
	}
	if rb.Write(make([]byte, 48)) {
		t.Fatal("overfull write succeeded")
	}
	if rb.Drops() != 1 || rb.Writes() != 2 || rb.Used() != 96 {
		t.Fatalf("drops=%d writes=%d used=%d", rb.Drops(), rb.Writes(), rb.Used())
	}
	data := rb.Drain()
	if len(data) != 96 {
		t.Fatalf("drained %d", len(data))
	}
	if rb.Used() != 0 {
		t.Fatal("drain did not empty buffer")
	}
	if rb.Drain() != nil {
		t.Fatal("empty drain should return nil")
	}
	// Space is reclaimed.
	if !rb.Write(make([]byte, 48)) {
		t.Fatal("write after drain failed")
	}
}

func TestBuildCtxFields(t *testing.T) {
	p := &vnet.Packet{
		IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP,
			Src: vnet.MustParseIPv4("10.0.0.1"), Dst: vnet.MustParseIPv4("10.0.0.2")},
		UDP:     &vnet.UDPHeader{SrcPort: 1234, DstPort: 9000},
		Payload: make([]byte, 56),
		Seq:     99,
		TraceID: 0xabcd,
	}
	pc := &kernel.ProbeCtx{
		Pkt: p, CPU: 2, DevIfindex: 5, Dir: vnet.Ingress, TimeNs: 1_000_000,
	}
	ctx := BuildCtx(nil, pc)
	if len(ctx) != CtxSize {
		t.Fatalf("ctx len = %d", len(ctx))
	}
	get32 := func(off int) uint32 {
		return uint32(ctx[off]) | uint32(ctx[off+1])<<8 | uint32(ctx[off+2])<<16 | uint32(ctx[off+3])<<24
	}
	get64 := func(off int) uint64 {
		return uint64(get32(off)) | uint64(get32(off+4))<<32
	}
	if get32(CtxLen) != uint32(p.WireLen()) {
		t.Errorf("len = %d", get32(CtxLen))
	}
	if get32(CtxSrcIP) != 0x0a000001 || get32(CtxDstIP) != 0x0a000002 {
		t.Errorf("ips = %#x %#x", get32(CtxSrcIP), get32(CtxDstIP))
	}
	if get32(CtxSrcPort) != 1234 || get32(CtxDstPort) != 9000 {
		t.Errorf("ports = %d %d", get32(CtxSrcPort), get32(CtxDstPort))
	}
	if get32(CtxIPProto) != 17 || get32(CtxTraceID) != 0xabcd {
		t.Errorf("proto/id = %d %#x", get32(CtxIPProto), get32(CtxTraceID))
	}
	if get32(CtxCPU) != 2 || get32(CtxIfindex) != 5 || get32(CtxDir) != 1 {
		t.Errorf("cpu/ifindex/dir = %d %d %d", get32(CtxCPU), get32(CtxIfindex), get32(CtxDir))
	}
	if get64(CtxSeq) != 99 || get64(CtxTimeNs) != 1_000_000 {
		t.Errorf("seq/time = %d %d", get64(CtxSeq), get64(CtxTimeNs))
	}
	if get32(CtxEncap) != 0 {
		t.Errorf("encap = %d", get32(CtxEncap))
	}
}

func TestBuildCtxEncapUsesInnerFlow(t *testing.T) {
	inner := &vnet.Packet{
		IP:      vnet.IPv4Header{Protocol: vnet.ProtoTCP, Src: 1, Dst: 2},
		TCP:     &vnet.TCPHeader{SrcPort: 10, DstPort: 20},
		TraceID: 77,
	}
	outer := &vnet.Packet{
		IP:    vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 100, Dst: 200},
		UDP:   &vnet.UDPHeader{SrcPort: 48879, DstPort: 4789},
		VXLAN: &vnet.VXLANHeader{VNI: 1},
		Inner: inner,
	}
	ctx := BuildCtx(nil, &kernel.ProbeCtx{Pkt: outer})
	get32 := func(off int) uint32 {
		return uint32(ctx[off]) | uint32(ctx[off+1])<<8 | uint32(ctx[off+2])<<16 | uint32(ctx[off+3])<<24
	}
	if get32(CtxSrcIP) != 1 || get32(CtxDstIP) != 2 || get32(CtxIPProto) != 6 {
		t.Fatal("ctx did not strip VXLAN to the inner flow")
	}
	if get32(CtxTraceID) != 77 {
		t.Fatalf("inner trace id = %d", get32(CtxTraceID))
	}
	if get32(CtxEncap) != 1 {
		t.Fatal("encap flag not set")
	}
}

func TestBuildCtxNilPacket(t *testing.T) {
	ctx := BuildCtx(nil, &kernel.ProbeCtx{CPU: 1, TimeNs: 5})
	if len(ctx) != CtxSize {
		t.Fatal("bad size")
	}
	if ctx[CtxSrcIP] != 0 || ctx[CtxLen] != 0 {
		t.Fatal("flow fields must be zero for packet-less probes")
	}
}

// minimal recording program: store ctx trace_id and time on the stack, emit
// 16 bytes.
const miniRecorder = `
	mov r6, r1
	ldxw r2, [r6+32]
	stxdw [r10-16], r2
	ldxdw r2, [r6+56]
	stxdw [r10-8], r2
	mov r1, r6
	mov r2, 0
	mov r3, r10
	add r3, -16
	mov r4, 16
	call perf_event_output
	mov r0, 0
	exit
`

func loadMini(t *testing.T) *ebpf.Program {
	t.Helper()
	insns, maps := ebpf.MustAssemble(miniRecorder, nil)
	p, err := ebpf.Load(ebpf.ProgramSpec{
		Name: "mini", Type: ebpf.ProgTypeKprobe, Insns: insns, Maps: maps, CtxSize: CtxSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func newMachine(t *testing.T) (*sim.Engine, *Machine) {
	t.Helper()
	eng := sim.NewEngine(1)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "m0", NumCPU: 2})
	m, err := NewMachine(node, 64*1024)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestMachineAttachKprobe(t *testing.T) {
	eng, m := newMachine(t)
	h, err := m.Attach(loadMini(t), AttachPoint{Kind: AttachKProbe, Site: kernel.SiteNetRxAction}, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}, TraceID: 5}
	m.Node.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	eng.RunUntilIdle()
	if h.Stats().Invocations != 1 {
		t.Fatalf("invocations = %d", h.Stats().Invocations)
	}
	if h.Stats().CostNs <= 0 {
		t.Fatal("tracing must cost CPU time")
	}
	if m.Ring.Used() != 16 {
		t.Fatalf("ring has %d bytes, want 16", m.Ring.Used())
	}
	h.Detach()
	m.Node.SoftirqNetRX(p, nil, func(*vnet.Packet) {})
	eng.RunUntilIdle()
	if h.Stats().Invocations != 1 {
		t.Fatal("detached program still firing")
	}
}

func TestMachineAttachDeviceHook(t *testing.T) {
	eng, m := newMachine(t)
	dev := vnet.NewNetDev(eng, vnet.NetDevConfig{Name: "ens3", Ifindex: 3, Out: func(*vnet.Packet) {}})
	if err := m.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	h, err := m.Attach(loadMini(t), AttachPoint{Kind: AttachDevice, Device: "ens3", Dir: vnet.Ingress}, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	dev.Receive(&vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}})
	eng.RunUntilIdle()
	if h.Stats().Invocations != 1 {
		t.Fatalf("invocations = %d", h.Stats().Invocations)
	}
}

// A device-hook firing allocates nothing: the attachment resolves its
// site name once, at attach time. The policer drops every packet, so
// Receive does no work past the hooks.
func TestMachineDeviceHookFiringDoesNotAllocate(t *testing.T) {
	eng, m := newMachine(t)
	dev := vnet.NewNetDev(eng, vnet.NetDevConfig{Name: "ens3", Ifindex: 3, Policer: vnet.NewTokenBucket(0, 0)})
	if err := m.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	h, err := m.Attach(loadMini(t), AttachPoint{Kind: AttachDevice, Device: "ens3", Dir: vnet.Ingress}, DefaultCostModel())
	if err != nil {
		t.Fatal(err)
	}
	p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}, TraceID: 5}
	const firings = 1000
	if allocs := testing.AllocsPerRun(firings, func() { dev.Receive(p) }); allocs != 0 {
		t.Fatalf("device-hook firing allocates %.2f times", allocs)
	}
	// AllocsPerRun fires once more to warm up.
	if got := h.Stats().Invocations; got != firings+1 {
		t.Fatalf("invocations = %d, want %d", got, firings+1)
	}
	if got := m.Ring.Used(); got != (firings+1)*16 {
		t.Fatalf("ring holds %d bytes, want %d", got, (firings+1)*16)
	}
}

func TestMachineAttachUnknownDevice(t *testing.T) {
	_, m := newMachine(t)
	if _, err := m.Attach(loadMini(t), AttachPoint{Kind: AttachDevice, Device: "nope"}, DefaultCostModel()); err == nil {
		t.Fatal("attach to unknown device succeeded")
	}
}

func TestMachineRejectsWrongCtxSize(t *testing.T) {
	_, m := newMachine(t)
	insns, _ := ebpf.MustAssemble("mov r0, 0\nexit", nil)
	p, err := ebpf.Load(ebpf.ProgramSpec{Name: "tiny", Type: ebpf.ProgTypeKprobe, Insns: insns, CtxSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(p, AttachPoint{Kind: AttachKProbe, Site: "x"}, DefaultCostModel()); err == nil {
		t.Fatal("wrong ctx size accepted")
	}
}

func TestMachineDuplicateDevice(t *testing.T) {
	eng, m := newMachine(t)
	dev := vnet.NewNetDev(eng, vnet.NetDevConfig{Name: "eth0"})
	if err := m.RegisterDevice(dev); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterDevice(dev); err == nil {
		t.Fatal("duplicate device registration accepted")
	}
}

func TestCostModelPricing(t *testing.T) {
	cm := CostModel{BaseNs: 10, InsnNs: 2, HelperNs: 5}
	got := cm.Cost(ebpf.ExecStats{Insns: 20, HelperCalls: 3})
	if got != 10+40+15 {
		t.Fatalf("cost = %d", got)
	}
}
