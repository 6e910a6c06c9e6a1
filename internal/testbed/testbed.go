// Package testbed assembles the paper's experimental setups from the
// simulated substrates and drives every figure's experiment: overhead
// analysis (Fig. 7), OVS congestion (Figs. 8-9), Xen scheduler tail
// latency (Figs. 10-11), and container overlay bottlenecks (Figs. 12-13).
//
// Experiments measure through the real tracing pipeline, deployed as a
// vnettracer.Session: trace specs are pushed by a dispatcher to
// per-machine agents, compiled to eBPF, verified, interpreted per packet,
// flushed to the collector, and analyzed out of the trace database —
// never read off simulator internals (except where a figure explicitly
// compares against application-level ground truth).
package testbed

import (
	"fmt"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// Handy unit aliases.
const (
	US  = int64(sim.Microsecond)
	MS  = int64(sim.Millisecond)
	SEC = int64(sim.Second)

	// Gbps / Mbps in bits per second.
	Mbps = int64(1_000_000)
	Gbps = int64(1_000_000_000)
)

// LatencyStats summarises an experiment's latency distribution in
// microseconds, the unit the paper's figures use.
type LatencyStats struct {
	Count  int
	MeanUs float64
	P50Us  float64
	P99Us  float64
	P999Us float64
	MaxUs  float64
}

// NewLatencyStats converts nanosecond samples.
func NewLatencyStats(ns []int64) LatencyStats {
	s := metrics.Summarize(ns)
	return LatencyStats{
		Count:  s.Count,
		MeanUs: s.MeanNs / 1e3,
		P50Us:  float64(s.P50Ns) / 1e3,
		P99Us:  float64(s.P99Ns) / 1e3,
		P999Us: float64(s.P999Ns) / 1e3,
		MaxUs:  float64(s.MaxNs) / 1e3,
	}
}

func (l LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus p50=%.1fus p99=%.1fus p99.9=%.1fus max=%.1fus",
		l.Count, l.MeanUs, l.P50Us, l.P99Us, l.P999Us, l.MaxUs)
}

// stackDev builds a simple processing device on eng. Per-packet service
// time is normally distributed around procNs (20% relative deviation) so
// latency distributions have realistic spread.
func stackDev(eng *sim.Engine, name string, ifindex int, procNs int64, out func(*vnet.Packet)) *vnet.NetDev {
	dist := sim.NewDist(eng)
	return vnet.NewNetDev(eng, vnet.NetDevConfig{
		Name:    name,
		Ifindex: ifindex,
		ProcNs:  func(*vnet.Packet) int64 { return dist.Normal(procNs, procNs/5) },
		Out:     out,
	})
}

// newMachine wraps a node in a Machine with the largest legal ring buffer.
func newMachine(node *kernel.Node) *core.Machine {
	m, err := core.NewMachine(node, core.MaxBufferBytes)
	if err != nil {
		panic(err) // static size; cannot fail
	}
	return m
}
