package overlay

import (
	"fmt"

	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// VXLANPort is the IANA VXLAN UDP port.
const VXLANPort uint16 = 4789

// membershipKey builds the store key mapping a container IP to its VTEP.
func membershipKey(vni uint32, containerIP vnet.IPv4) string {
	return fmt.Sprintf("overlay/%d/%s", vni, containerIP)
}

// VTEP is a VXLAN tunnel endpoint: it encapsulates container frames toward
// the VTEP owning the destination container IP (resolved through the
// etcd-like store) and decapsulates arriving tunnel frames.
type VTEP struct {
	store   *Store
	vni     uint32
	localIP vnet.IPv4
	// Encapped / Decapped / Unknown count dispositions.
	Encapped uint64
	Decapped uint64
	Unknown  uint64
}

// NewVTEP creates a tunnel endpoint for the given VNI whose outer source
// address is localIP.
func NewVTEP(store *Store, vni uint32, localIP vnet.IPv4) *VTEP {
	return &VTEP{store: store, vni: vni, localIP: localIP}
}

// Register announces that containerIP lives behind this VTEP.
func (v *VTEP) Register(containerIP vnet.IPv4) {
	v.store.Put(membershipKey(v.vni, containerIP), v.localIP.String())
}

// Unregister withdraws a container.
func (v *VTEP) Unregister(containerIP vnet.IPv4) {
	v.store.Delete(membershipKey(v.vni, containerIP))
}

// Lookup resolves the VTEP address owning containerIP.
func (v *VTEP) Lookup(containerIP vnet.IPv4) (vnet.IPv4, bool) {
	val, _, ok := v.store.Get(membershipKey(v.vni, containerIP))
	if !ok {
		return 0, false
	}
	ip, err := vnet.ParseIPv4(val)
	if err != nil {
		return 0, false
	}
	return ip, true
}

// Encap wraps p for transport to the VTEP owning p's destination IP.
// Returns nil when the destination is unknown (dropped), which is also the
// NetDev.Transform contract.
func (v *VTEP) Encap(p *vnet.Packet) *vnet.Packet {
	remote, ok := v.Lookup(p.IP.Dst)
	if !ok {
		v.Unknown++
		return nil
	}
	v.Encapped++
	return &vnet.Packet{
		Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP: vnet.IPv4Header{
			TTL:      64,
			Protocol: vnet.ProtoUDP,
			Src:      v.localIP,
			Dst:      remote,
		},
		UDP:    &vnet.UDPHeader{SrcPort: 48879, DstPort: VXLANPort},
		VXLAN:  &vnet.VXLANHeader{VNI: v.vni},
		Inner:  p,
		Seq:    p.Seq,
		SentAt: p.SentAt,
	}
}

// Decap unwraps a tunnel frame, returning the inner packet, or nil when p
// is not a VXLAN frame for this VNI.
func (v *VTEP) Decap(p *vnet.Packet) *vnet.Packet {
	if p.VXLAN == nil || p.Inner == nil || p.VXLAN.VNI != v.vni {
		v.Unknown++
		return nil
	}
	v.Decapped++
	return p.Inner
}

// Bridge is a simple L3 learning bridge (docker0/docker_gwbridge): packets
// are forwarded to the port owning the destination IP and dropped
// otherwise.
type Bridge struct {
	eng   *sim.Engine
	dev   *vnet.NetDev
	ports map[vnet.IPv4]func(*vnet.Packet)

	// NoRoute counts packets dropped for want of a port.
	NoRoute uint64
}

// NewBridge creates a bridge. procNs is the per-packet forwarding cost;
// the returned bridge's Dev is where packets enter and where trace hooks
// attach.
func NewBridge(eng *sim.Engine, name string, ifindex int, procNs int64) *Bridge {
	b := &Bridge{
		eng:   eng,
		ports: make(map[vnet.IPv4]func(*vnet.Packet)),
	}
	b.dev = vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name:    name,
		Ifindex: ifindex,
		ProcNs:  func(*vnet.Packet) int64 { return procNs },
		Out:     b.route,
	})
	return b
}

// Dev returns the bridge's ingress device.
func (b *Bridge) Dev() *vnet.NetDev { return b.dev }

// AddPort binds an IP to a delivery function (a container's veth).
func (b *Bridge) AddPort(ip vnet.IPv4, out func(*vnet.Packet)) {
	b.ports[ip] = out
}

func (b *Bridge) route(p *vnet.Packet) {
	if out, ok := b.ports[p.IP.Dst]; ok {
		out(p)
		return
	}
	b.NoRoute++
}

// VethPair creates two cross-connected devices (a veth pair): frames
// received by one emerge from the other after procNs. Names follow the
// kernel convention ("vethXXXX" / container "eth0").
type VethPair struct {
	A *vnet.NetDev
	B *vnet.NetDev
}

// NewVethPair builds the pair. aOut and bOut receive frames that exit the
// respective end; use SetOut later to rewire.
func NewVethPair(eng *sim.Engine, nameA, nameB string, ifindexA, ifindexB int, procNs int64) *VethPair {
	vp := &VethPair{}
	vp.A = vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name:    nameA,
		Ifindex: ifindexA,
		ProcNs:  func(*vnet.Packet) int64 { return procNs },
	})
	vp.B = vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name:    nameB,
		Ifindex: ifindexB,
		ProcNs:  func(*vnet.Packet) int64 { return procNs },
	})
	return vp
}
