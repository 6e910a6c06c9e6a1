package overlay

import (
	"testing"

	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

func TestStorePutGetDelete(t *testing.T) {
	s := NewStore()
	rev1 := s.Put("a", "1")
	rev2 := s.Put("b", "2")
	if rev2 <= rev1 {
		t.Fatalf("revisions not increasing: %d %d", rev1, rev2)
	}
	v, rev, ok := s.Get("a")
	if !ok || v != "1" || rev != rev1 {
		t.Fatalf("Get(a) = %q rev=%d ok=%v", v, rev, ok)
	}
	if !s.Delete("a") {
		t.Fatal("delete existing failed")
	}
	if s.Delete("a") {
		t.Fatal("delete missing succeeded")
	}
	if _, _, ok := s.Get("a"); ok {
		t.Fatal("deleted key still present")
	}
}

func TestStoreCAS(t *testing.T) {
	s := NewStore()
	s.Put("k", "old")
	if s.CAS("k", "wrong", "new") {
		t.Fatal("CAS with wrong expectation succeeded")
	}
	if !s.CAS("k", "old", "new") {
		t.Fatal("CAS with right expectation failed")
	}
	v, _, _ := s.Get("k")
	if v != "new" {
		t.Fatalf("value = %q", v)
	}
	if s.CAS("missing", "x", "y") {
		t.Fatal("CAS on missing key succeeded")
	}
}

func TestStoreWatchPrefix(t *testing.T) {
	s := NewStore()
	var events []Event
	cancel := s.Watch("overlay/", func(e Event) { events = append(events, e) })
	s.Put("overlay/1/10.0.0.1", "192.168.0.1")
	s.Put("other/x", "ignored")
	s.Delete("overlay/1/10.0.0.1")
	cancel()
	s.Put("overlay/1/10.0.0.2", "unwatched")
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Value != "192.168.0.1" || events[1].Deleted != true {
		t.Fatalf("events = %+v", events)
	}
}

func TestStoreList(t *testing.T) {
	s := NewStore()
	s.Put("overlay/1/a", "x")
	s.Put("overlay/1/b", "y")
	s.Put("overlay/2/c", "z")
	got := s.List("overlay/1/")
	if len(got) != 2 || got["overlay/1/a"] != "x" {
		t.Fatalf("List = %v", got)
	}
}

func TestVTEPEncapDecapRoundTrip(t *testing.T) {
	store := NewStore()
	vtepA := NewVTEP(store, 42, vnet.MustParseIPv4("192.168.0.1"))
	vtepB := NewVTEP(store, 42, vnet.MustParseIPv4("192.168.0.2"))
	vtepB.Register(vnet.MustParseIPv4("10.0.0.9"))

	inner := &vnet.Packet{
		IP: vnet.IPv4Header{
			Protocol: vnet.ProtoUDP,
			Src:      vnet.MustParseIPv4("10.0.0.1"),
			Dst:      vnet.MustParseIPv4("10.0.0.9"),
			TTL:      64,
		},
		UDP:     &vnet.UDPHeader{SrcPort: 1000, DstPort: 9000},
		Payload: []byte("hello"),
	}
	outer := vtepA.Encap(inner)
	if outer == nil {
		t.Fatal("encap dropped a registered destination")
	}
	if outer.IP.Dst != vnet.MustParseIPv4("192.168.0.2") {
		t.Fatalf("outer dst = %s", outer.IP.Dst)
	}
	if outer.UDP.DstPort != VXLANPort {
		t.Fatalf("outer port = %d", outer.UDP.DstPort)
	}
	if outer.WireLen() != inner.WireLen()+vnet.VXLANOverhead {
		t.Fatalf("overhead: %d vs %d+%d", outer.WireLen(), inner.WireLen(), vnet.VXLANOverhead)
	}
	back := vtepB.Decap(outer)
	if back == nil || back.InnerFlow() != inner.Flow() {
		t.Fatal("decap failed")
	}
	if vtepA.Encapped != 1 || vtepB.Decapped != 1 {
		t.Fatalf("counters: %d %d", vtepA.Encapped, vtepB.Decapped)
	}
}

func TestVTEPEncapUnknownDrops(t *testing.T) {
	store := NewStore()
	v := NewVTEP(store, 42, vnet.MustParseIPv4("192.168.0.1"))
	inner := &vnet.Packet{
		IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Dst: vnet.MustParseIPv4("10.0.0.99")},
		UDP: &vnet.UDPHeader{},
	}
	if got := v.Encap(inner); got != nil {
		t.Fatal("encap to unknown destination should drop")
	}
	if v.Unknown != 1 {
		t.Fatalf("Unknown = %d", v.Unknown)
	}
}

func TestVTEPDecapWrongVNIDrops(t *testing.T) {
	store := NewStore()
	a := NewVTEP(store, 1, vnet.MustParseIPv4("192.168.0.1"))
	b := NewVTEP(store, 2, vnet.MustParseIPv4("192.168.0.2"))
	a.Register(vnet.MustParseIPv4("10.0.0.1")) // on VNI 1
	bWrong := NewVTEP(store, 1, vnet.MustParseIPv4("192.168.0.3"))
	bWrong.Register(vnet.MustParseIPv4("10.0.0.5"))
	inner := &vnet.Packet{
		IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Dst: vnet.MustParseIPv4("10.0.0.5")},
		UDP: &vnet.UDPHeader{},
	}
	outer := a.Encap(inner)
	if outer == nil {
		t.Fatal("encap failed")
	}
	if got := b.Decap(outer); got != nil {
		t.Fatal("decap accepted frame from another VNI")
	}
}

func TestVTEPUnregister(t *testing.T) {
	store := NewStore()
	v := NewVTEP(store, 7, vnet.MustParseIPv4("192.168.0.1"))
	ip := vnet.MustParseIPv4("10.0.0.3")
	v.Register(ip)
	if _, ok := v.Lookup(ip); !ok {
		t.Fatal("lookup after register failed")
	}
	v.Unregister(ip)
	if _, ok := v.Lookup(ip); ok {
		t.Fatal("lookup after unregister succeeded")
	}
}

func TestBridgeRoutesToPortOrDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewBridge(eng, "docker0", 10, 500)
	var localGot int
	local := vnet.MustParseIPv4("172.17.0.2")
	b.AddPort(local, func(*vnet.Packet) { localGot++ })

	mk := func(dst vnet.IPv4) *vnet.Packet {
		return &vnet.Packet{
			IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Dst: dst},
			UDP: &vnet.UDPHeader{},
		}
	}
	b.Dev().Receive(mk(local))
	b.Dev().Receive(mk(vnet.MustParseIPv4("172.17.0.99")))
	eng.RunUntilIdle()
	if localGot != 1 || b.NoRoute != 1 {
		t.Fatalf("local=%d noroute=%d", localGot, b.NoRoute)
	}
}

func TestBridgeNoRouteCounted(t *testing.T) {
	eng := sim.NewEngine(1)
	b := NewBridge(eng, "docker0", 10, 0)
	b.Dev().Receive(&vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP, Dst: 5}, UDP: &vnet.UDPHeader{}})
	eng.RunUntilIdle()
	if b.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", b.NoRoute)
	}
}

func TestVethPairDevices(t *testing.T) {
	eng := sim.NewEngine(1)
	vp := NewVethPair(eng, "veth684a1d9", "eth0", 20, 21, 300)
	var crossed int
	vp.A.SetOut(func(p *vnet.Packet) { vp.B.Receive(p) })
	vp.B.SetOut(func(*vnet.Packet) { crossed++ })
	vp.A.Receive(&vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}})
	eng.RunUntilIdle()
	if crossed != 1 {
		t.Fatalf("crossed = %d", crossed)
	}
	if vp.A.Name() != "veth684a1d9" || vp.B.Ifindex() != 21 {
		t.Fatal("device identity wrong")
	}
}
