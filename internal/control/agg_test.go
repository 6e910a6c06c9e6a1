package control

import (
	"errors"
	"net"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
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
	if st.FramesShipped != 1 || st.NextSeq != 2 {
		t.Fatalf("agg ship stats after first flush: %+v", st)
	}
	if err := r.agent.Flush(); err != nil {
		t.Fatal(err)
	}
	st = r.agent.AggShipStats()
	if st.FramesShipped != 1 || st.NextSeq != 2 {
		t.Fatalf("idle flush shipped a frame: %+v", st)
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
	led, ok := r.collector.Aggregates().Ledger("agent-tcp")
	if !ok || led.HighWaterSeq != 1 {
		t.Fatalf("agg ledger = %+v ok=%v", led, ok)
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
