package vnet

import (
	"fmt"
	"testing"

	"vnettracer/internal/sim"
)

func TestNetDevDeliversInOrder(t *testing.T) {
	eng := sim.NewEngine(1)
	var got []uint64
	dev := NewNetDev(eng, NetDevConfig{
		Name:   "eth0",
		ProcNs: func(*Packet) int64 { return 1000 },
		Out:    func(p *Packet) { got = append(got, p.Seq) },
	})
	for i := 0; i < 5; i++ {
		p := makeUDP(100)
		p.Seq = uint64(i)
		dev.Receive(p)
	}
	eng.RunUntilIdle()
	if len(got) != 5 {
		t.Fatalf("delivered %d, want 5", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("out of order: %v", got)
		}
	}
	st := dev.Stats()
	if st.Received != 5 || st.Delivered != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNetDevServiceTimeSerializes(t *testing.T) {
	// Two packets each needing 1000ns processing: second must complete at
	// ~2000ns, demonstrating queueing delay.
	eng := sim.NewEngine(1)
	var times []int64
	dev := NewNetDev(eng, NetDevConfig{
		ProcNs: func(*Packet) int64 { return 1000 },
		Out:    func(*Packet) { times = append(times, eng.Now()) },
	})
	dev.Receive(makeUDP(10))
	dev.Receive(makeUDP(10))
	eng.RunUntilIdle()
	if len(times) != 2 || times[0] != 1000 || times[1] != 2000 {
		t.Fatalf("completion times = %v, want [1000 2000]", times)
	}
}

func TestNetDevTransmissionDelay(t *testing.T) {
	// 1000-byte payload at 1 Gbps: (1000+42)*8 ns.
	eng := sim.NewEngine(1)
	var at int64 = -1
	dev := NewNetDev(eng, NetDevConfig{
		RateBps: 1_000_000_000,
		Out:     func(*Packet) { at = eng.Now() },
	})
	p := makeUDP(1000)
	wire := int64(p.WireLen())
	dev.Receive(p)
	eng.RunUntilIdle()
	want := wire * 8
	if at != want {
		t.Fatalf("tx completion at %d, want %d", at, want)
	}
}

func TestNetDevQueueOverflowDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	dev := NewNetDev(eng, NetDevConfig{
		ProcNs:   func(*Packet) int64 { return 1000 },
		QueueCap: 2,
		Out:      func(*Packet) {},
	})
	for i := 0; i < 10; i++ {
		dev.Receive(makeUDP(10))
	}
	eng.RunUntilIdle()
	st := dev.Stats()
	// 1 in service + 2 queued accepted initially; the rest dropped.
	if st.DroppedQueue != 7 {
		t.Fatalf("DroppedQueue = %d, want 7", st.DroppedQueue)
	}
	if st.Delivered != 3 {
		t.Fatalf("Delivered = %d, want 3", st.Delivered)
	}
}

func TestNetDevPolicerDrops(t *testing.T) {
	eng := sim.NewEngine(1)
	// 100 kbps, tiny burst: almost everything beyond the first packet at
	// t=0 must drop.
	dev := NewNetDev(eng, NetDevConfig{
		Policer: NewTokenBucket(100, 1),
		Out:     func(*Packet) {},
	})
	for i := 0; i < 10; i++ {
		dev.Receive(makeUDP(100))
	}
	eng.RunUntilIdle()
	st := dev.Stats()
	if st.DroppedPolice == 0 {
		t.Fatal("policer never dropped")
	}
	if st.Delivered+st.DroppedPolice != 10 {
		t.Fatalf("accounting: %+v", st)
	}
}

func TestNetDevTransformAndDrop(t *testing.T) {
	eng := sim.NewEngine(1)
	var out []*Packet
	dev := NewNetDev(eng, NetDevConfig{
		Transform: func(p *Packet) *Packet {
			if p.Seq%2 == 0 {
				return nil // drop evens
			}
			p.IP.TTL--
			return p
		},
		Out: func(p *Packet) { out = append(out, p) },
	})
	for i := 0; i < 4; i++ {
		p := makeUDP(10)
		p.Seq = uint64(i)
		dev.Receive(p)
	}
	eng.RunUntilIdle()
	if len(out) != 2 {
		t.Fatalf("delivered %d, want 2", len(out))
	}
	if dev.Stats().DroppedXform != 2 {
		t.Fatalf("DroppedXform = %d", dev.Stats().DroppedXform)
	}
	if out[0].IP.TTL != 63 {
		t.Fatalf("transform not applied: TTL=%d", out[0].IP.TTL)
	}
}

func TestNetDevHookCostDelaysPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	var at int64
	dev := NewNetDev(eng, NetDevConfig{
		ProcNs: func(*Packet) int64 { return 1000 },
		Out:    func(*Packet) { at = eng.Now() },
	})
	detach := dev.AttachHook(Ingress, func(*Packet, Direction) int64 { return 500 })
	dev.Receive(makeUDP(10))
	eng.RunUntilIdle()
	if at != 1500 {
		t.Fatalf("with hook: completion at %d, want 1500", at)
	}

	// After detaching, the cost disappears (runtime reconfigurability).
	detach()
	start := eng.Now()
	dev.Receive(makeUDP(10))
	eng.RunUntilIdle()
	if got := at - start; got != 1000 {
		t.Fatalf("after detach: service %d, want 1000", got)
	}
}

func TestNetDevEgressHookObservesTransformedPacket(t *testing.T) {
	eng := sim.NewEngine(1)
	var sawTTL uint8
	dev := NewNetDev(eng, NetDevConfig{
		Transform: func(p *Packet) *Packet { p.IP.TTL = 7; return p },
		Out:       func(*Packet) {},
	})
	dev.AttachHook(Egress, func(p *Packet, _ Direction) int64 {
		sawTTL = p.IP.TTL
		return 0
	})
	dev.Receive(makeUDP(10))
	eng.RunUntilIdle()
	if sawTTL != 7 {
		t.Fatalf("egress hook saw TTL %d, want 7", sawTTL)
	}
}

// Hooks of one device and direction run in attach order on every packet:
// their records land in the trace ring in that order, so anything else
// makes conformance digests irreproducible.
func TestNetDevHooksRunInAttachOrder(t *testing.T) {
	for _, dir := range []Direction{Ingress, Egress} {
		eng := sim.NewEngine(1)
		dev := NewNetDev(eng, NetDevConfig{Out: func(*Packet) {}})
		var order []int
		for id := 0; id < 3; id++ {
			id := id
			dev.AttachHook(dir, func(*Packet, Direction) int64 {
				order = append(order, id)
				return 0
			})
		}
		for pkt := 0; pkt < 100; pkt++ {
			order = order[:0]
			dev.Receive(makeUDP(10))
			eng.RunUntilIdle()
			if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
				t.Fatalf("%v packet %d: hooks ran in order %v, want [0 1 2]", dir, pkt, order)
			}
		}
	}
}

// A hook that detaches itself while the device is dispatching a packet
// must not disturb its siblings on that packet (none skipped, none run
// twice) and must be gone from the next one.
func TestNetDevHookDetachesItselfMidDispatch(t *testing.T) {
	for _, dir := range []Direction{Ingress, Egress} {
		eng := sim.NewEngine(1)
		dev := NewNetDev(eng, NetDevConfig{Out: func(*Packet) {}})
		var order []string
		note := func(name string) Hook {
			return func(*Packet, Direction) int64 {
				order = append(order, name)
				return 0
			}
		}
		dev.AttachHook(dir, note("first"))
		var detachSelf func()
		detachSelf = dev.AttachHook(dir, func(*Packet, Direction) int64 {
			order = append(order, "self")
			detachSelf()
			return 0
		})
		dev.AttachHook(dir, note("last"))

		dev.Receive(makeUDP(10))
		eng.RunUntilIdle()
		if got := fmt.Sprint(order); got != "[first self last]" {
			t.Fatalf("%v: dispatch with self-detach ran %s, want [first self last]", dir, got)
		}
		order = order[:0]
		dev.Receive(makeUDP(10))
		eng.RunUntilIdle()
		if got := fmt.Sprint(order); got != "[first last]" {
			t.Fatalf("%v: after self-detach ran %s, want [first last]", dir, got)
		}
	}
}

func TestLinkSerialization(t *testing.T) {
	eng := sim.NewEngine(1)
	var times []int64
	link := NewLink(eng, 1_000_000_000, 1000, func(*Packet) { times = append(times, eng.Now()) })
	p := makeUDP(1000)
	wire := int64(p.WireLen()) * 8
	link.Send(p)
	link.Send(makeUDP(1000))
	eng.RunUntilIdle()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	if times[0] != wire+1000 {
		t.Fatalf("first arrival %d, want %d", times[0], wire+1000)
	}
	if times[1] != 2*wire+1000 {
		t.Fatalf("second arrival %d, want %d (head-of-line blocking)", times[1], 2*wire+1000)
	}
	if link.Sent() != 2 {
		t.Fatalf("Sent = %d", link.Sent())
	}
}

func TestLinkInfiniteBandwidth(t *testing.T) {
	eng := sim.NewEngine(1)
	var at int64 = -1
	link := NewLink(eng, 0, 500, func(*Packet) { at = eng.Now() })
	link.Send(makeUDP(100000))
	eng.RunUntilIdle()
	if at != 500 {
		t.Fatalf("arrival %d, want 500 (propagation only)", at)
	}
}

func TestTokenBucketRefill(t *testing.T) {
	tb := NewTokenBucket(1000, 8) // 1 Mbps, 8 kb burst
	if !tb.Allow(8000, 0) {
		t.Fatal("burst should allow 8000 bits at t=0")
	}
	if tb.Allow(1000, 0) {
		t.Fatal("bucket should be empty")
	}
	// After 1 ms, 1000 bits refilled.
	if !tb.Allow(1000, int64(sim.Millisecond)) {
		t.Fatal("refill failed")
	}
	if tb.Allow(1, int64(sim.Millisecond)) {
		t.Fatal("over-refill")
	}
}

func TestTokenBucketBurstCap(t *testing.T) {
	tb := NewTokenBucket(1000, 4)
	// After a long idle period tokens must cap at the burst.
	if !tb.Allow(4000, int64(100*sim.Second)) {
		t.Fatal("burst-sized claim failed")
	}
	if tb.Allow(1000, int64(100*sim.Second)) {
		t.Fatal("tokens exceeded burst cap")
	}
}

func TestHTBAssuredRateNoDelay(t *testing.T) {
	h := NewHTB(10000) // 10 Mbps parent
	c := h.NewClass(5000, 0)
	// First packet within assured rate: immediate.
	if d := c.Delay(1000, 0); d != 0 {
		t.Fatalf("delay = %d, want 0", d)
	}
}

func TestHTBBorrowingBoundedByParent(t *testing.T) {
	h := NewHTB(1000) // 1 Mbps parent
	a := h.NewClass(500, 1000)
	b := h.NewClass(500, 1000)
	// Saturate a: first conforms, rest borrow.
	var lastDelay int64
	for i := 0; i < 50; i++ {
		lastDelay = a.Delay(100000, 0) // 100 kb each
	}
	if lastDelay == 0 {
		t.Fatal("sustained overload never delayed")
	}
	// b must also see delay because the parent is saturated by a.
	if d := b.Delay(100000, 0); d == 0 {
		// b's assured window admits the very first packet.
		if d2 := b.Delay(100000, 0); d2 == 0 {
			t.Fatal("parent saturation did not propagate to sibling")
		}
	}
}

func TestHTBDelayMonotoneUnderLoad(t *testing.T) {
	h := NewHTB(1000)
	c := h.NewClass(100, 500)
	prev := int64(-1)
	for i := 0; i < 20; i++ {
		d := c.Delay(50000, 0)
		if d < prev {
			t.Fatalf("delay decreased under constant overload: %d -> %d", prev, d)
		}
		prev = d
	}
}

func TestNetDevShaperClassification(t *testing.T) {
	eng := sim.NewEngine(1)
	htb := NewHTB(1000) // 1 Mbps
	bulk := htb.NewClass(1000, 1000)
	var got []uint64
	dev := NewNetDev(eng, NetDevConfig{
		ShaperFor: func(p *Packet) *HTBClass {
			if p.UDP != nil && p.UDP.DstPort == 9000 {
				return nil // latency class: unshaped
			}
			return bulk
		},
		Out: func(p *Packet) { got = append(got, p.Seq) },
	})
	// Bulk packets saturate the class; a latency packet sent later must
	// not queue behind them.
	for i := 0; i < 5; i++ {
		p := makeUDP(1000)
		p.UDP.DstPort = 5001 // bulk flow
		p.Seq = uint64(i)
		dev.Receive(p)
	}
	lat := makeUDP(56)
	lat.UDP.DstPort = 9000
	lat.Seq = 99
	dev.Receive(lat)
	eng.RunUntilIdle()
	if len(got) == 0 || got[0] != 0 {
		t.Fatalf("order = %v", got)
	}
	// The unshaped packet overtakes shaped bulk packets.
	pos := -1
	for i, s := range got {
		if s == 99 {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("latency packet never delivered")
	}
	if pos > 2 {
		t.Fatalf("latency packet delivered at position %d, blocked behind shaped bulk", pos)
	}
}

func TestNetDevShaperDropBound(t *testing.T) {
	eng := sim.NewEngine(1)
	htb := NewHTB(100) // 100 kbps: deep conformance delays quickly
	bulk := htb.NewClass(100, 100)
	dev := NewNetDev(eng, NetDevConfig{
		ShaperFor:       func(*Packet) *HTBClass { return bulk },
		MaxShapeDelayNs: int64(sim.Millisecond),
		Out:             func(*Packet) {},
	})
	for i := 0; i < 100; i++ {
		dev.Receive(makeUDP(1000))
	}
	eng.RunUntilIdle()
	st := dev.Stats()
	if st.DroppedShaper == 0 {
		t.Fatal("qdisc bound never dropped")
	}
	if st.Delivered+st.DroppedShaper != 100 {
		t.Fatalf("accounting: %+v", st)
	}
}
