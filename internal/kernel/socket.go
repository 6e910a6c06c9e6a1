package kernel

import (
	"fmt"

	"vnettracer/internal/vnet"
)

// SockAddr is an (IP, port) endpoint.
type SockAddr struct {
	IP   vnet.IPv4
	Port uint16
}

// Socket is an application endpoint on a node. The receive callback runs in
// simulated time after kernel receive-path costs; Send charges send-path
// costs (including trace-ID insertion when the node has it enabled) before
// the packet enters the device graph via the node's Egress.
type Socket struct {
	node   *Node
	proto  uint8
	local  SockAddr
	onRecv func(p *vnet.Packet)
	seq    uint64
	sent   uint64
	closed bool
}

// Open binds a socket. IP 0 binds the wildcard address. It returns an error
// if the (ip, port, proto) tuple is taken.
func (n *Node) Open(proto uint8, local SockAddr, onRecv func(p *vnet.Packet)) (*Socket, error) {
	if proto != vnet.ProtoTCP && proto != vnet.ProtoUDP {
		return nil, fmt.Errorf("kernel: open: unsupported protocol %d", proto)
	}
	key := sockKey{ip: local.IP, port: local.Port, proto: proto}
	if _, taken := n.sockets[key]; taken {
		return nil, fmt.Errorf("kernel: open: %s:%d/%d already bound", local.IP, local.Port, proto)
	}
	s := &Socket{node: n, proto: proto, local: local, onRecv: onRecv}
	n.sockets[key] = s
	return s, nil
}

// Close unbinds the socket.
func (s *Socket) Close() {
	if s.closed {
		return
	}
	s.closed = true
	delete(s.node.sockets, sockKey{ip: s.local.IP, port: s.local.Port, proto: s.proto})
}

// Sent returns how many packets this socket has sent.
func (s *Socket) Sent() uint64 { return s.sent }

// Send transmits size zero bytes of payload to dst. See SendBytes.
func (s *Socket) Send(dst SockAddr, size int) (*vnet.Packet, error) {
	return s.send(dst, newPayload(size))
}

// SendBytes transmits payload to dst, returning the in-flight packet
// (callers must not mutate it; the payload slice is copied). The packet
// leaves the node after the send-path cost elapses.
func (s *Socket) SendBytes(dst SockAddr, payload []byte) (*vnet.Packet, error) {
	buf := newPayload(len(payload))
	copy(buf, payload)
	return s.send(dst, buf)
}

// newPayload allocates an n-byte packet payload with room behind it for
// the UDP trace-ID trailer, so appending the ID does not move the payload.
func newPayload(n int) []byte {
	return make([]byte, n, n+udpTraceIDLen)
}

// udpTraceIDLen is the trace-ID trailer udp_send_skb appends.
const udpTraceIDLen = 4

// send transmits buf, which the packet takes over, as the payload.
func (s *Socket) send(dst SockAddr, buf []byte) (*vnet.Packet, error) {
	if s.closed {
		return nil, fmt.Errorf("kernel: send on closed socket")
	}
	n := s.node
	p := &vnet.Packet{
		Eth: vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
		IP: vnet.IPv4Header{
			TTL:      64,
			Protocol: s.proto,
			Src:      s.local.IP,
			Dst:      dst.IP,
		},
		Payload: buf,
		Seq:     s.seq,
		SentAt:  n.eng.Now(),
	}
	s.seq++
	s.sent++

	var cost int64
	var site, retSite string
	switch s.proto {
	case vnet.ProtoTCP:
		p.TCP = &vnet.TCPHeader{SrcPort: s.local.Port, DstPort: dst.Port, Flags: vnet.TCPFlagACK}
		cost = n.cfg.Costs.TCPSend
		site, retSite = SiteTCPOptionsWrite, retTCPOptionsWrite
	case vnet.ProtoUDP:
		p.UDP = &vnet.UDPHeader{SrcPort: s.local.Port, DstPort: dst.Port}
		cost = n.cfg.Costs.UDPSend
		site, retSite = SiteUDPSendSkb, retUDPSendSkb
	}

	// Trace-ID insertion: the paper's kernel modification writes a random
	// 32-bit ID into the TCP options (tcp_options_write) or appends it to
	// the UDP payload (__skb_put in udp_send_skb).
	if n.cfg.TraceIDs {
		id := n.rng.Uint32()
		for id == 0 {
			id = n.rng.Uint32()
		}
		switch s.proto {
		case vnet.ProtoTCP:
			if err := p.SetTCPTraceID(id); err != nil {
				return nil, fmt.Errorf("kernel: send: %w", err)
			}
		case vnet.ProtoUDP:
			if err := p.PutUDPTraceID(id); err != nil {
				return nil, fmt.Errorf("kernel: send: %w", err)
			}
			cost += n.Probes.Fire(&ProbeCtx{Site: SiteSkbPut, Pkt: p, TimeNs: n.Clock.NowNs()})
		}
		cost += n.cfg.Costs.TraceIDInsert
	}

	cost += n.Probes.Fire(&ProbeCtx{Site: site, Pkt: p, TimeNs: n.Clock.NowNs()})

	n.eng.Schedule(cost, func() {
		// kretprobe: the send function returns as the packet leaves.
		n.Probes.Fire(&ProbeCtx{Site: retSite, Pkt: p, TimeNs: n.Clock.NowNs()})
		if n.Egress != nil {
			n.Egress(p)
		}
	})
	return p, nil
}
