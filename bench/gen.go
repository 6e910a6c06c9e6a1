package main

import (
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/vnet"
)

// simCPUs is the traced machine's CPU count, hence its ring count.
const simCPUs = 4

// Synthetic time base of the traced packets: one packet leaves every
// pktGapNs, and each later tracepoint sees it minHopNs..minHopNs+hopSpanNs
// after the previous one.
const (
	pktGapNs  = 5_000
	minHopNs  = 20_000
	hopSpanNs = 80_000
)

// splitmix64 is the generator's only source of randomness: a stateless
// mix, so any value is a pure function of the seed and an index.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

type flow struct {
	src, dst         vnet.IPv4
	srcPort, dstPort uint16
	payload          int
}

// tableDigest is an order-independent summary of one tracepoint table:
// how many records, the XOR of their trace IDs, and a wrapping sum that
// binds each trace ID to its timestamp.
type tableDigest struct {
	Count uint64
	XOR   uint32
	Sum   uint64
}

func (d *tableDigest) add(traceID uint32, timeNs uint64) {
	d.Count++
	d.XOR ^= traceID
	d.Sum += splitmix64(uint64(traceID)<<32 ^ timeNs)
}

// generator builds the packets of a workload, one round at a time, and
// keeps the ground truth the oracle checks the pipeline against. The seed
// permutes which flow and CPU a packet slot gets, the trace-ID order and
// the hop latencies; every count is a function of the workload alone.
type generator struct {
	w    *workload
	seed uint64
	key  uint32 // trace-ID permutation key; top bit set, so no packet index maps to 0

	flows    []flow
	slotFlow []int
	slotCPU  []int

	pkts []vnet.Packet
	udp  []vnet.UDPHeader
	ctxs []kernel.ProbeCtx // pktsPerRound × sites, packet-major

	// Ground truth.
	fired      uint64 // probe firings so far
	tables     []tableDigest
	latencySum []int64 // Σ (t[site s] − t[site s−1]) over packets fired; index 0 unused
	bytes      uint64  // Σ wire length over firings
	lastTimeNs int64   // latest synthetic timestamp handed out
}

var payloadBuf [1500]byte

func newGenerator(w *workload, seed uint64) *generator {
	g := &generator{
		w:          w,
		seed:       seed,
		key:        uint32(splitmix64(seed)) | 1<<31,
		flows:      make([]flow, w.flows),
		slotFlow:   make([]int, w.pktsPerRound),
		slotCPU:    make([]int, w.pktsPerRound),
		pkts:       make([]vnet.Packet, w.pktsPerRound),
		udp:        make([]vnet.UDPHeader, w.pktsPerRound),
		ctxs:       make([]kernel.ProbeCtx, w.pktsPerRound*len(w.sites)),
		tables:     make([]tableDigest, len(w.sites)),
		latencySum: make([]int64, len(w.sites)),
	}
	for i := range g.flows {
		h := splitmix64(seed ^ uint64(i)<<8 ^ 0xf10)
		g.flows[i] = flow{
			src:     vnet.IPv4(0x0a000000 | uint32(h)&0xffff),
			dst:     vnet.IPv4(0x0a010000 | uint32(h>>16)&0xffff),
			srcPort: uint16(20000 + i),
			dstPort: 9000,
			payload: 64 + 100*(i%8),
		}
	}
	// Balanced assignments, permuted by the seed: every flow and every
	// CPU gets the same number of slots under any seed, so per-ring load
	// and per-flow totals do not depend on it.
	perm := make([]int, w.pktsPerRound)
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := int(splitmix64(seed^uint64(i)<<20^0x5107) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	for i, p := range perm {
		g.slotFlow[i] = p % w.flows
		g.slotCPU[i] = (p / w.flows) % simCPUs
	}
	nSites := len(w.sites)
	for i := range g.pkts {
		f := g.flows[g.slotFlow[i]]
		g.udp[i] = vnet.UDPHeader{SrcPort: f.srcPort, DstPort: f.dstPort}
		g.pkts[i] = vnet.Packet{
			Eth:     vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
			IP:      vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: f.src, Dst: f.dst, TTL: 64},
			UDP:     &g.udp[i],
			Payload: payloadBuf[:f.payload],
		}
		for s, site := range w.sites {
			g.ctxs[i*nSites+s] = kernel.ProbeCtx{Site: site.site, Pkt: &g.pkts[i], CPU: g.slotCPU[i]}
		}
	}
	return g
}

// traceID maps a global packet index to its trace ID: a bijection on
// uint32 (murmur3's finalizer over the keyed index), so IDs are unique,
// look as random as the product's own, and cost the segment codec the
// same bytes under every seed. Only input 0 maps to 0, and the key's top
// bit keeps every packet index below 2^31 away from it.
func (g *generator) traceID(pkt uint64) uint32 {
	x := uint32(pkt+1) ^ g.key
	x ^= x >> 16
	x *= 0x85ebca6b
	x ^= x >> 13
	x *= 0xc2b2ae35
	x ^= x >> 16
	return x
}

// siteTime returns the synthetic timestamp at which packet pkt crosses
// site s.
func (g *generator) siteTime(pkt uint64, s int) int64 {
	t := int64(pkt+1) * pktGapNs
	for k := 1; k <= s; k++ {
		t += minHopNs + int64(splitmix64(g.seed^pkt<<3^uint64(k))%hopSpanNs)
	}
	return t
}

// prepare stamps round r's identities and timestamps into the prebuilt
// packets and probe contexts, and folds them into the ground truth. It
// runs outside every timed window.
func (g *generator) prepare(round int) {
	nSites := len(g.w.sites)
	base := uint64(round) * uint64(g.w.pktsPerRound)
	for i := range g.pkts {
		pkt := base + uint64(i)
		id := g.traceID(pkt)
		p := &g.pkts[i]
		p.TraceID = id
		p.Seq = pkt
		wire := uint64(p.WireLen())
		prev := int64(0)
		for s := 0; s < nSites; s++ {
			t := g.siteTime(pkt, s)
			g.ctxs[i*nSites+s].TimeNs = t
			g.tables[s].add(id, uint64(t))
			if s > 0 {
				g.latencySum[s] += t - prev
			}
			prev = t
			g.bytes += wire
		}
		if prev > g.lastTimeNs {
			g.lastTimeNs = prev
		}
	}
	g.fired += uint64(len(g.ctxs))
}

// fire runs every prepared probe context through the node's probe sites:
// the traced path itself, and nothing else.
func (g *generator) fire(probes *kernel.ProbeRegistry) {
	for i := range g.ctxs {
		probes.Fire(&g.ctxs[i])
	}
}

// record returns the record the pipeline must hold for packet pkt at
// site s.
func (g *generator) record(pkt uint64, s int) core.Record {
	slot := int(pkt % uint64(g.w.pktsPerRound))
	f := g.flows[g.slotFlow[slot]]
	return core.Record{
		TraceID: g.traceID(pkt),
		TPID:    g.w.sites[s].tpid,
		TimeNs:  uint64(g.siteTime(pkt, s)),
		Len:     uint32(vnet.EthHeaderLen + vnet.IPv4HeaderLen + vnet.UDPHeaderLen + f.payload),
		CPU:     uint32(g.slotCPU[slot]),
		Seq:     pkt,
		SrcIP:   uint32(f.src),
		DstIP:   uint32(f.dst),
		SrcPort: f.srcPort,
		DstPort: f.dstPort,
		Proto:   vnet.ProtoUDP,
	}
}
