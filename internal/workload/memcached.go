package workload

import (
	"encoding/binary"
	"fmt"

	"vnettracer/internal/kernel"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// Request opcodes for the memcached-style protocol.
const (
	opGet uint8 = 1
	opSet uint8 = 2
)

// MemcachedServer answers GET requests with valueSize-byte responses and
// SET requests with small acknowledgments, modelling the CloudSuite Data
// Caching server (a Memcached instance replaying a Twitter dataset).
type MemcachedServer struct {
	sock      *kernel.Socket
	valueSize int

	Gets uint64
	Sets uint64
}

// StartMemcachedServer binds the server. valueSize is the GET response
// payload.
func StartMemcachedServer(n *kernel.Node, local kernel.SockAddr, valueSize int) (*MemcachedServer, error) {
	s := &MemcachedServer{valueSize: valueSize}
	sock, err := n.Open(vnet.ProtoUDP, local, func(p *vnet.Packet) {
		if len(p.Payload) < 9 {
			return
		}
		flow := p.Flow()
		reply := kernel.SockAddr{IP: flow.Src, Port: flow.SrcPort}
		size := 16 // SET ack
		switch p.Payload[8] {
		case opGet:
			s.Gets++
			size = s.valueSize
		case opSet:
			s.Sets++
		default:
			return
		}
		out := make([]byte, size)
		copy(out, p.Payload[:8]) // echo the request id
		s.sock.SendBytes(reply, out)
	})
	if err != nil {
		return nil, fmt.Errorf("workload: memcached server: %w", err)
	}
	s.sock = sock
	return s, nil
}

// MemcachedClient issues GET/SET requests from several worker connections
// at a fixed aggregate request rate, as the paper configures Data Caching:
// "4 worker threads executing 20 connections ... ratio of GET/SET requests
// was configured as 4:1 ... fixed request rate as 5000 rps".
type MemcachedClient struct {
	node    *kernel.Node
	socks   []*kernel.Socket
	dst     kernel.SockAddr
	getFrac int // GETs per (getFrac+1) requests

	pending  map[uint64]int64
	nextID   uint64
	nextSock int

	// Latencies holds request-response times in issue order.
	Latencies []int64
	Issued    uint64
	Answered  uint64
}

// NewMemcachedClient binds conns client sockets on ports basePort..;
// getFrac of 4 yields the 4:1 GET/SET mix.
func NewMemcachedClient(n *kernel.Node, localIP vnet.IPv4, basePort uint16, conns int, dst kernel.SockAddr, getFrac int) (*MemcachedClient, error) {
	if conns <= 0 {
		return nil, fmt.Errorf("workload: memcached: conns must be positive")
	}
	if getFrac <= 0 {
		getFrac = 4
	}
	c := &MemcachedClient{
		node:    n,
		dst:     dst,
		getFrac: getFrac,
		pending: make(map[uint64]int64),
	}
	for i := 0; i < conns; i++ {
		sock, err := n.Open(vnet.ProtoUDP, kernel.SockAddr{IP: localIP, Port: basePort + uint16(i)}, c.onReply)
		if err != nil {
			return nil, fmt.Errorf("workload: memcached client conn %d: %w", i, err)
		}
		c.socks = append(c.socks, sock)
	}
	return c, nil
}

func (c *MemcachedClient) onReply(p *vnet.Packet) {
	if len(p.Payload) < 8 {
		return
	}
	id := binary.LittleEndian.Uint64(p.Payload)
	sent, ok := c.pending[id]
	if !ok {
		return
	}
	delete(c.pending, id)
	c.Answered++
	c.Latencies = append(c.Latencies, c.node.Engine().Now()-sent)
}

// Run issues requests at rate requests-per-second for durationNs,
// round-robining across connections.
func (c *MemcachedClient) Run(rps int64, durationNs int64) {
	if rps <= 0 {
		return
	}
	interval := int64(sim.Second) / rps
	if interval <= 0 {
		interval = 1
	}
	eng := c.node.Engine()
	n := int(durationNs / interval)
	for i := 0; i < n; i++ {
		eng.Schedule(int64(i)*interval, c.issueOne)
	}
}

func (c *MemcachedClient) issueOne() {
	id := c.nextID
	c.nextID++
	op := opGet
	if id%(uint64(c.getFrac)+1) == uint64(c.getFrac) {
		op = opSet
	}
	size := 40 // GET request: key
	if op == opSet {
		size = 140 // SET request: key + value
	}
	payload := make([]byte, size)
	binary.LittleEndian.PutUint64(payload, id)
	payload[8] = op
	sock := c.socks[c.nextSock]
	c.nextSock = (c.nextSock + 1) % len(c.socks)
	c.pending[id] = c.node.Engine().Now()
	if _, err := sock.SendBytes(c.dst, payload); err == nil {
		c.Issued++
	}
}
