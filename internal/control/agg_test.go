package control

import (
	"errors"
	"net"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/vnet"
)

// aggSpec is a script aggregating everything in-probe: counters, per-CPU
// hits, latency histogram, and per-flow sums — no records at all.
func aggSpec(name string, tpid uint32, site string) script.Spec {
	return script.Spec{
		Name:   name,
		TPID:   tpid,
		Attach: core.AttachPoint{Kind: core.AttachKProbe, Site: site},
		Actions: []script.Action{
			script.ActionCount, script.ActionCPUHist,
			script.ActionHist, script.ActionFlowCount,
		},
	}
}

func TestAgentShipsAggregateFrames(t *testing.T) {
	r := newRig(t)
	pkg := ControlPackage{
		Install:        []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)},
		ShipAggregates: true,
	}
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i+1))
	}
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := r.collector.Aggregates().Get("agg")
	if !ok {
		t.Fatal("no merged aggregates for script")
	}
	if got.Counters[script.SlotPackets] != 10 {
		t.Fatalf("aggregated packets = %d, want 10", got.Counters[script.SlotPackets])
	}
	if got.Counters[script.SlotBytes] == 0 {
		t.Fatal("aggregated bytes = 0")
	}
	if len(got.Flows) != 1 || got.Flows[0].Packets != 10 {
		t.Fatalf("flows = %+v", got.Flows)
	}
	var histTotal uint64
	for _, v := range got.Hist {
		histTotal += v
	}
	if histTotal != 10 {
		t.Fatalf("histogram holds %d samples, want 10", histTotal)
	}
	// Draining reset the probe-side maps: a second flush with no traffic
	// ships nothing and consumes no sequence number.
	st := r.agent.AggShipStats()
	if next := r.agent.SpoolStats().NextSeq; st.FramesShipped != 1 || next != 2 {
		t.Fatalf("agg ship stats after first flush: %+v, next seq %d", st, next)
	}
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	st = r.agent.AggShipStats()
	if next := r.agent.SpoolStats().NextSeq; st.FramesShipped != 1 || next != 2 {
		t.Fatalf("idle flush shipped a frame: %+v, next seq %d", st, next)
	}
	// More traffic accumulates on top at the collector.
	for i := 0; i < 5; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(20+i))
	}
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _ = r.collector.Aggregates().Get("agg")
	if got.Counters[script.SlotPackets] != 15 {
		t.Fatalf("merged packets = %d, want 15", got.Counters[script.SlotPackets])
	}
	tot := r.collector.Aggregates().Totals()
	if tot.FramesMerged != 2 || tot.FramesDup != 0 || tot.FramesFenced != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

// TestAggregateFramesOverTCP runs the same pipeline through the length-
// prefixed TCP transport: v5 binary frames on the wire, merged remotely.
func TestAggregateFramesOverTCP(t *testing.T) {
	r := newRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, r.collector)
	defer srv.Close()
	sink := NewTCPSink(ln.Addr().String())
	defer sink.Close()
	agent := NewAgent("agent-tcp", r.machine, sink)
	if err := agent.Apply(ControlPackage{ShipAggregates: true, Install: []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i+1))
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := r.collector.Aggregates().Get("agg")
	if !ok || got.Counters[script.SlotPackets] != 7 {
		t.Fatalf("remote merge = %+v ok=%v", got, ok)
	}
	if srv.UnsupportedAggFrames() != 0 {
		t.Fatalf("unsupported frames = %d", srv.UnsupportedAggFrames())
	}
	led, ok := r.collector.DB().Ledger("agent-tcp")
	if !ok || led.HighWaterSeq != 1 {
		t.Fatalf("ledger = %+v ok=%v", led, ok)
	}
}

// recordOnlySink implements RecordSink but not AggSink — a pre-v5
// collector stand-in.
type recordOnlySink struct{}

func (recordOnlySink) HandleBatch(b RecordBatch) error { return nil }

// TestAggShippingFailsClosedWithoutAggSink pins satellite 6 agent-side:
// aggregate frames offered to a sink that cannot ingest them are dropped
// with a counted error, never silently lost or misfiled.
func TestAggShippingFailsClosedWithoutAggSink(t *testing.T) {
	r := newRig(t)
	agent := NewAgent("agent-legacy", r.machine, recordOnlySink{})
	if err := agent.Apply(ControlPackage{ShipAggregates: true, Install: []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	err := agent.Flush()
	if !errors.Is(err, errNoAggSink) {
		t.Fatalf("flush error = %v, want errNoAggSink", err)
	}
	st := agent.AggShipStats()
	if st.Rejected != 1 || st.ShipErrs != 1 || st.FramesSpooled != 0 {
		t.Fatalf("agg stats = %+v", st)
	}
}

// TestAggFrameToV5UnawareServerCounted pins satellite 6 server-side: a
// server whose sink lacks AggSink refuses the frame with an error and
// counts it; the agent records the rejection.
func TestAggFrameToV5UnawareServerCounted(t *testing.T) {
	r := newRig(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := Serve(ln, nil, recordOnlySink{})
	defer srv.Close()
	sink := NewTCPSink(ln.Addr().String())
	defer sink.Close()
	agent := NewAgent("agent-v5", r.machine, sink)
	if err := agent.Apply(ControlPackage{ShipAggregates: true, Install: []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	err = agent.Flush()
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("flush error = %v, want RemoteError", err)
	}
	if srv.UnsupportedAggFrames() != 1 {
		t.Fatalf("server counted %d unsupported frames, want 1", srv.UnsupportedAggFrames())
	}
	st := agent.AggShipStats()
	if st.Rejected != 1 || st.FramesSpooled != 0 {
		t.Fatalf("agg stats = %+v", st)
	}
}

// TestAggFrameDuplicateAndFence exercises exactly-once and zombie
// fencing on the aggregate path directly through HandleAgg.
func TestAggFrameDuplicateAndFence(t *testing.T) {
	r := newRig(t)
	frame := AggBatch{
		Agent: "a", AgentTimeNs: 10, Seq: 1, Epoch: 1,
		Scripts: wireAgg().Scripts,
	}
	if err := r.collector.HandleAgg(frame); err != nil {
		t.Fatal(err)
	}
	// Transport retry of the same frame: must not double the metrics.
	if err := r.collector.HandleAgg(frame); err != nil {
		t.Fatal(err)
	}
	got, _ := r.collector.Aggregates().Get("flows")
	if got.Counters[0] != 1000 {
		t.Fatalf("duplicate doubled counters: %d", got.Counters[0])
	}
	// New epoch, then a zombie frame from the old one.
	if err := r.collector.HandleAgg(AggBatch{Agent: "a", AgentTimeNs: 20, Seq: 1, Epoch: 2, Scripts: wireAgg().Scripts}); err != nil {
		t.Fatal(err)
	}
	if err := r.collector.HandleAgg(AggBatch{Agent: "a", AgentTimeNs: 21, Seq: 2, Epoch: 1, Scripts: wireAgg().Scripts}); err != nil {
		t.Fatal(err)
	}
	got, _ = r.collector.Aggregates().Get("flows")
	if got.Counters[0] != 2000 {
		t.Fatalf("fenced frame merged: %d, want 2000", got.Counters[0])
	}
	tot := r.collector.Aggregates().Totals()
	if tot.FramesMerged != 2 || tot.FramesDup != 1 || tot.FramesFenced != 1 {
		t.Fatalf("totals = %+v", tot)
	}
}

// outageSink takes both kinds for a collector, failing every delivery
// while down, and counts what it was handed.
type outageSink struct {
	next            *Collector
	down            bool
	batches, frames int
}

var errOutage = errors.New("collector unreachable")

func (s *outageSink) HandleBatch(b RecordBatch) error {
	s.batches++
	if s.down {
		return errOutage
	}
	return s.next.HandleBatch(b)
}

func (s *outageSink) HandleAgg(b AggBatch) error {
	s.frames++
	if s.down {
		return errOutage
	}
	return s.next.HandleAgg(b)
}

// TestOneSpoolEvictsOldestAcrossKinds: record batches and aggregate frames
// wait in one spool under one byte bound, so an outage evicts the oldest
// entries whatever their kind, and once the sink heals the ledger's gap
// is exactly the evicted record batches plus the evicted frames.
func TestOneSpoolEvictsOldestAcrossKinds(t *testing.T) {
	r := newRig(t)
	sink := &outageSink{next: r.collector, down: true}
	agent := NewAgent("agent-0", r.machine, sink)
	if err := agent.Apply(ControlPackage{ShipAggregates: true, Install: []script.Spec{
		recordSpec("rec", 1, kernel.SiteUDPRecvmsg),
		aggSpec("agg", 2, kernel.SiteUDPSendSkb),
	}}); err != nil {
		t.Fatal(err)
	}
	// Every round drains one record batch and one frame of the same
	// shape, so the bound is set to two rounds' worth after the first.
	round := func(id uint32) {
		t.Helper()
		firePacket(r, kernel.SiteUDPRecvmsg, id)
		firePacket(r, kernel.SiteUDPSendSkb, id)
		if err := agent.Flush(); !errors.Is(err, errOutage) {
			t.Fatalf("round %d: flush error %v, want the outage", id, err)
		}
	}
	round(1)
	agent.SetSpoolLimit(2 * agent.SpoolStats().Bytes)
	for id := uint32(2); id <= 5; id++ {
		round(id)
	}
	ss, as := agent.SpoolStats(), agent.AggShipStats()
	if ss.Batches != 2 || ss.EvictedBatches != 3 || as.FramesSpooled != 2 || as.Evicted != 3 {
		t.Fatalf("spool %+v, frames %+v: want 2 batches and 2 frames spooled, 3 of each evicted", ss, as)
	}
	if ss.Bytes > ss.Limit || ss.NextSeq != 11 {
		t.Fatalf("spool %+v: want at most its limit and next seq 11", ss)
	}

	sink.down = false
	if err := agent.Flush(); err != nil {
		t.Fatalf("flush after the outage: %v", err)
	}
	tbl, ok := r.db.Table(1)
	if !ok || tbl.Len() != 2 || len(tbl.ByTraceID(4)) != 1 || len(tbl.ByTraceID(5)) != 1 {
		t.Fatalf("stored records are not the 2 newest")
	}
	got, ok := r.collector.Aggregates().Get("agg")
	if !ok || got.Counters[script.SlotPackets] != 2 {
		t.Fatalf("merged aggregates %+v, want the 2 newest frames' packets", got)
	}
	l, ok := r.db.Ledger("agent-0")
	if !ok || l.MissingBatches != ss.EvictedBatches+as.Evicted {
		t.Fatalf("ledger missing %d, want %d evicted batches + %d evicted frames", l.MissingBatches, ss.EvictedBatches, as.Evicted)
	}
}

// TestAggregateOnlyFlushIsOneDelivery: a frame stamped at the current
// flush is the heartbeat, so an agent with nothing but aggregates to say
// makes one delivery per flush, not a frame plus a bare heartbeat.
func TestAggregateOnlyFlushIsOneDelivery(t *testing.T) {
	r := newRig(t)
	sink := &outageSink{next: r.collector}
	agent := NewAgent("agent-0", r.machine, sink)
	if err := agent.Apply(ControlPackage{ShipAggregates: true, Install: []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	r.eng.Run(5 * int64(sim.Millisecond))
	for i := 0; i < 3; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i+1))
	}
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.frames != 1 || sink.batches != 0 {
		t.Fatalf("aggregate-only flush made %d frame and %d batch deliveries, want 1 and 0", sink.frames, sink.batches)
	}
	if l, ok := r.db.Ledger("agent-0"); !ok || l.LastSeenNs != r.machine.Node.Clock.NowNs() {
		t.Fatalf("the frame did not count as the heartbeat: %+v", l)
	}
	// An idle flush has no frame to carry the heartbeat: a bare one goes.
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.frames != 1 || sink.batches != 1 {
		t.Fatalf("idle flush made %d frame and %d batch deliveries in total, want 1 and 1", sink.frames, sink.batches)
	}
}

// TestAggregateOnlyAgentRecovers: a frame carries no backpressure report,
// so a degraded agent sends the bare heartbeat beside it. An agent that
// degraded while it shipped records, and then was left with only an
// aggregate script, still hears the queue clear and recovers.
func TestAggregateOnlyAgentRecovers(t *testing.T) {
	r := newRig(t)
	sink := &pressureSink{inner: r.collector, depth: 90, cap: 100}
	agent := NewAgent("agent-0", r.machine, sink)
	pkg := ControlPackage{ShipAggregates: true, Install: []script.Spec{recordSpec("rec", 1, kernel.SiteUDPRecvmsg)}}
	if err := agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if ds := agent.DegradeStats(); ds.Level != 2 {
		t.Fatalf("pressured ack left the agent at %+v, want level 2", ds)
	}
	pkg.Replace, pkg.Install = true, []script.Spec{aggSpec("agg", 2, kernel.SiteUDPSendSkb)}
	if err := agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	sink.depth = 0
	firePacket(r, kernel.SiteUDPSendSkb, 2)
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.batches != 2 || sink.frames != 1 {
		t.Fatalf("sink took %d batches and %d frames, want 2 (a record batch, a heartbeat) and 1", sink.batches, sink.frames)
	}
	if ds := agent.DegradeStats(); ds.Level != 0 || ds.FlushStretch != 1 || ds.Recoveries != 1 {
		t.Fatalf("the heartbeat's clear ack left the agent at %+v, want recovered", ds)
	}
	// Recovered, the agent is back to one delivery per aggregate-only flush.
	firePacket(r, kernel.SiteUDPSendSkb, 3)
	if err := agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if sink.batches != 2 || sink.frames != 2 {
		t.Fatalf("sink took %d batches and %d frames in total, want 2 and 2", sink.batches, sink.frames)
	}
}

// TestReprovisionDrainsAggregates: a Replace unloads every script, and
// with them their maps; what they counted since the last drain must be
// spooled first, so the re-provision loses no count.
func TestReprovisionDrainsAggregates(t *testing.T) {
	r := newRig(t)
	pkg := ControlPackage{ShipAggregates: true, Install: []script.Spec{aggSpec("agg", 1, kernel.SiteUDPRecvmsg)}}
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i+1))
	}
	pkg.Replace = true
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 5)
	if err := r.agent.Apply(ControlPackage{Uninstall: []string{"agg"}}); err != nil {
		t.Fatal(err)
	}
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	got, ok := r.collector.Aggregates().Get("agg")
	if !ok || got.Counters[script.SlotPackets] != 5 {
		t.Fatalf("merged aggregates %+v, want all 5 packets", got)
	}
	if st := r.agent.AggShipStats(); st.FramesShipped != 2 {
		t.Fatalf("agg ship stats %+v, want one frame per unload", st)
	}
}

// TestAgentCountsRefusedFlows: a flow map capped at 4 flows fed 6 flows
// refuses exactly the firings of the two that do not fit, and the agent
// reports them, also across a Replace, which drains the old maps.
func TestAgentCountsRefusedFlows(t *testing.T) {
	r := newRig(t)
	spec := aggSpec("agg", 1, kernel.SiteUDPRecvmsg)
	spec.MaxFlows = 4
	pkg := ControlPackage{ShipAggregates: true, Install: []script.Spec{spec}}
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	fireFlows := func(flows, perFlow int) {
		for f := 0; f < flows; f++ {
			for i := 0; i < perFlow; i++ {
				r.machine.Node.Probes.Fire(&kernel.ProbeCtx{Site: kernel.SiteUDPRecvmsg, Pkt: &vnet.Packet{
					IP:  vnet.IPv4Header{Protocol: vnet.ProtoUDP, Src: 1, Dst: 2},
					UDP: &vnet.UDPHeader{SrcPort: uint16(1000 + f), DstPort: 20},
				}, TimeNs: r.machine.Node.Clock.NowNs()})
			}
		}
	}
	fireFlows(6, 3)
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := r.agent.AggShipStats(); st.FlowsRefused != 2*3 {
		t.Fatalf("FlowsRefused = %d, want the 6 firings of the 2 flows past MaxFlows 4", st.FlowsRefused)
	}
	got, _ := r.collector.Aggregates().Get("agg")
	if len(got.Flows) != 4 || got.Counters[script.SlotPackets] != 18 {
		t.Fatalf("merged %d flows and %d packets, want 4 and 18", len(got.Flows), got.Counters[script.SlotPackets])
	}

	// The drain parked the 4 flows; 6 fresh ones refuse 2 again, counted
	// by the Replace's drain of the old script.
	fireFlows(6, 1)
	pkg.Replace = true
	if err := r.agent.Apply(pkg); err != nil {
		t.Fatal(err)
	}
	if st := r.agent.AggShipStats(); st.FlowsRefused != 2*3+2 {
		t.Fatalf("FlowsRefused = %d after Replace, want %d", st.FlowsRefused, 2*3+2)
	}
}
