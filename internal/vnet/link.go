package vnet

import (
	"vnettracer/internal/sim"
)

// Link is a unidirectional point-to-point wire with finite bandwidth and
// propagation delay. Frames serialize one at a time; a busy link delays
// subsequent frames (head-of-line blocking), which is where wire-level
// congestion in the experiments comes from. Use two Links for a duplex
// cable.
type Link struct {
	eng       *sim.Engine
	bps       int64
	propNs    int64
	busyUntil int64
	dst       func(p *Packet)

	sent  uint64
	bytes uint64
}

// NewLink creates a link delivering to dst. bps <= 0 means infinite
// bandwidth; propNs is one-way propagation delay.
func NewLink(eng *sim.Engine, bps, propNs int64, dst func(p *Packet)) *Link {
	return &Link{eng: eng, bps: bps, propNs: propNs, dst: dst}
}

// Sent returns the number of frames transmitted.
func (l *Link) Sent() uint64 { return l.sent }

// Bytes returns the number of bytes transmitted.
func (l *Link) Bytes() uint64 { return l.bytes }

// Send transmits p, delivering it to the destination after serialization
// and propagation.
func (l *Link) Send(p *Packet) {
	now := l.eng.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	var tx int64
	if l.bps > 0 {
		tx = int64(p.WireLen()) * 8 * int64(sim.Second) / l.bps
	}
	done := start + tx
	l.busyUntil = done
	l.sent++
	l.bytes += uint64(p.WireLen())
	l.eng.Schedule(done+l.propNs-now, func() {
		if l.dst != nil {
			l.dst(p)
		}
	})
}
