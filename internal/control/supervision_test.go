package control

import (
	"errors"
	"reflect"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
)

// flakyApplyClient fails its first `failures` Apply calls, then accepts,
// recording every package it saw.
type flakyApplyClient struct {
	failures int
	calls    int
	pkgs     []ControlPackage
}

func (c *flakyApplyClient) Apply(pkg ControlPackage) error {
	c.calls++
	c.pkgs = append(c.pkgs, pkg)
	if c.calls <= c.failures {
		return errors.New("unreachable")
	}
	return nil
}

func (c *flakyApplyClient) Retarget(RecordSink, uint64) {}

// downSink rejects every batch — the collector is gone.
type downSink struct{}

func (downSink) HandleBatch(RecordBatch) error { return errors.New("sink down") }

// pressureSink forwards to an inner sink and stamps every successful ack
// with a configurable ingest-queue report, counting what it acked.
type pressureSink struct {
	inner           RecordSink
	depth           int
	cap             int
	batches, frames int
}

func (s *pressureSink) HandleBatch(b RecordBatch) error {
	_, err := s.HandleBatchAck(b)
	return err
}

func (s *pressureSink) HandleBatchAck(b RecordBatch) (BatchAck, error) {
	if err := s.inner.HandleBatch(b); err != nil {
		return BatchAck{}, err
	}
	s.batches++
	return BatchAck{QueueDepth: s.depth, QueueCap: s.cap}, nil
}

// HandleAgg needs an inner sink that takes frames (a Collector). Frames
// carry no ack.
func (s *pressureSink) HandleAgg(b AggBatch) error {
	if err := s.inner.(AggSink).HandleAgg(b); err != nil {
		return err
	}
	s.frames++
	return nil
}

// TestSupervisorDesireMerges: Desire accumulates desired state across
// calls — installs add or update by name, uninstalls remove, the flush
// cadence sticks — and the materialized package is always a full Replace.
func TestSupervisorDesireMerges(t *testing.T) {
	d := dispatcherWith(t, nil)
	cc := &fakeAgent{}
	if err := d.Register("a", cc); err != nil {
		t.Fatal(err)
	}
	s1 := recordSpec("s1", 1, kernel.SiteUDPRecvmsg)
	s2 := recordSpec("s2", 2, kernel.SiteTCPOptionsWrite)
	if err := d.Desire("a", ControlPackage{Install: []script.Spec{s1}, FlushIntervalNs: 1e6}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Desire("a", ControlPackage{Install: []script.Spec{s2}}, 0); err != nil {
		t.Fatal(err)
	}
	if err := d.Desire("a", ControlPackage{Uninstall: []string{"s1"}}, 0); err != nil {
		t.Fatal(err)
	}
	pkg, ok := d.Desired("a")
	if !ok {
		t.Fatal("no desired state recorded")
	}
	if !pkg.Replace {
		t.Fatal("desired package is not a Replace")
	}
	if len(pkg.Install) != 1 || pkg.Install[0].Name != "s2" {
		t.Fatalf("desired installs = %+v, want just s2", pkg.Install)
	}
	if pkg.FlushIntervalNs != 1e6 {
		t.Fatalf("desired flush interval = %d, want 1e6", pkg.FlushIntervalNs)
	}
	if cc.applies != 3 {
		t.Fatalf("client saw %d pushes, want 3 (one per Desire)", cc.applies)
	}
}

// TestSupervisorRetryBackoff: a failed push is retried by Tick only after
// its backoff deadline, with the deadline growing exponentially, and a
// success clears the pending state. An agent desired before it registers
// is one more failed push, converged by the first Tick past its deadline
// once it joins the roster.
func TestSupervisorRetryBackoff(t *testing.T) {
	d := dispatcherWith(t, nil)
	fc := &flakyApplyClient{failures: 2}
	if err := d.Register("a", fc); err != nil {
		t.Fatal(err)
	}
	const b = DefaultRetryBackoffNs // the timeline's unit: the first backoff
	err := d.Desire("a", ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}, b/2)
	if err == nil {
		t.Fatal("Desire against a failing client returned nil")
	}
	st := d.Stats()
	if st.Pushes != 1 || st.Failures != 1 || st.PendingRetries != 1 {
		t.Fatalf("after failed Desire: %+v", st)
	}
	// First retry is due at b/2 + b + jitter(<=b/2): ticking earlier than
	// the minimum must not push.
	d.Tick(3*b/2 - 1)
	if fc.calls != 1 {
		t.Fatalf("tick before backoff deadline pushed (calls=%d)", fc.calls)
	}
	// Past the jitter-inclusive maximum the retry must fire (and fail
	// again, doubling the backoff to 2b + jitter(<=b)).
	d.Tick(5 * b / 2)
	if fc.calls != 2 {
		t.Fatalf("tick past deadline did not push (calls=%d)", fc.calls)
	}
	d.Tick(5*b/2 + 1)
	if fc.calls != 2 {
		t.Fatalf("tick inside doubled backoff pushed (calls=%d)", fc.calls)
	}
	// Past the doubled window the client heals.
	d.Tick(6 * b)
	if fc.calls != 3 {
		t.Fatalf("final retry did not push (calls=%d)", fc.calls)
	}
	st = d.Stats()
	if st.Pushes != 3 || st.Failures != 2 || st.Retries != 2 || st.PendingRetries != 0 {
		t.Fatalf("after convergence: %+v", st)
	}
	// The successful push carried the full desired state as a Replace.
	last := fc.pkgs[len(fc.pkgs)-1]
	if !last.Replace || len(last.Install) != 1 || last.Install[0].Name != "s1" {
		t.Fatalf("converged push = %+v, want Replace with s1", last)
	}
	// In sync: further ticks are no-ops.
	d.Tick(7 * b)
	if fc.calls != 3 {
		t.Fatalf("converged supervisor still pushing (calls=%d)", fc.calls)
	}

	// Desired before it registers: the push has no client to reach and
	// counts as a failure, retried like any other.
	if err := d.Desire("late", ControlPackage{Install: []script.Spec{recordSpec("s2", 2, kernel.SiteUDPRecvmsg)}}, 7*b); err == nil {
		t.Fatal("Desire for an unregistered agent returned nil")
	}
	st = d.Stats()
	if st.Pushes != 4 || st.Failures != 3 || st.PendingRetries != 1 {
		t.Fatalf("after Desire for an unregistered agent: %+v", st)
	}
	late := &flakyApplyClient{}
	if err := d.Register("late", late); err != nil {
		t.Fatal(err)
	}
	d.Tick(7*b + b - 1)
	if late.calls != 0 {
		t.Fatalf("tick before backoff deadline pushed to the late agent (calls=%d)", late.calls)
	}
	d.Tick(7*b + 3*b/2)
	if late.calls != 1 {
		t.Fatalf("tick past deadline did not push to the late agent (calls=%d)", late.calls)
	}
	if pkg := late.pkgs[0]; !pkg.Replace || len(pkg.Install) != 1 || pkg.Install[0].Name != "s2" {
		t.Fatalf("late agent's first push = %+v, want Replace with s2", pkg)
	}
	st = d.Stats()
	if st.Pushes != 5 || st.Failures != 3 || st.Retries != 3 || st.PendingRetries != 0 || fc.calls != 3 {
		t.Fatalf("after the late agent converged: %+v (a saw %d pushes)", st, fc.calls)
	}
}

// TestSupervisorReprovisionOnEpochAdvance: when an agent re-registers
// (restart → new lease), the next supervision pass re-pushes the full
// desired state to the fresh incarnation without operator action.
func TestSupervisorReprovisionOnEpochAdvance(t *testing.T) {
	r := newRig(t)
	d := dispatcherWith(t, r.collector)
	if err := d.Register("agent-0", r.agent); err != nil {
		t.Fatal(err)
	}
	pkg := ControlPackage{Install: []script.Spec{
		recordSpec("s1", 1, kernel.SiteUDPRecvmsg),
		recordSpec("s2", 2, kernel.SiteTCPOptionsWrite),
	}}
	if err := d.Desire("agent-0", pkg, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.agent.Installed(); len(got) != 2 {
		t.Fatalf("initial provision installed %v", got)
	}
	// The process dies (kernel detaches its probes) and a fresh one takes
	// over the machine under a new lease.
	if err := r.agent.Apply(ControlPackage{Replace: true}); err != nil {
		t.Fatal(err)
	}
	fresh := NewAgent("agent-0", r.machine, r.collector)
	if err := d.Reregister("agent-0", fresh); err != nil {
		t.Fatal(err)
	}
	if got := fresh.Epoch(); got != 2 {
		t.Fatalf("reregistered epoch = %d, want 2", got)
	}
	if got := fresh.Installed(); len(got) != 0 {
		t.Fatalf("fresh agent already has scripts: %v", got)
	}
	d.Tick(0)
	if got := fresh.Installed(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("after reprovision tick: installed %v, want [s1 s2]", got)
	}
	// The dead incarnation's probes are gone: exactly one program at the
	// site, the fresh one's.
	if got := r.machine.Node.Probes.Attached(kernel.SiteUDPRecvmsg); got != 1 {
		t.Fatalf("site has %d programs attached, want 1", got)
	}
	st := d.Stats()
	if st.Reprovisions != 1 {
		t.Fatalf("Reprovisions = %d, want 1", st.Reprovisions)
	}
	pushes := st.Pushes
	d.Tick(1)
	if got := d.Stats().Pushes; got != pushes {
		t.Fatalf("converged supervisor pushed again (%d -> %d)", pushes, got)
	}
}

// TestApplyReplaceIdempotent: a Replace package can be re-applied
// arbitrarily often — same installed set, no duplicate-script error, no
// probe accumulation — which is what makes the supervisor's blind
// re-pushes safe.
func TestApplyReplaceIdempotent(t *testing.T) {
	r := newRig(t)
	pkg := ControlPackage{Replace: true, Install: []script.Spec{
		recordSpec("s1", 1, kernel.SiteUDPRecvmsg),
		recordSpec("s2", 2, kernel.SiteTCPOptionsWrite),
	}}
	for i := 0; i < 3; i++ {
		if err := r.agent.Apply(pkg); err != nil {
			t.Fatalf("Replace apply #%d: %v", i+1, err)
		}
	}
	if got := r.agent.Installed(); !reflect.DeepEqual(got, []string{"s1", "s2"}) {
		t.Fatalf("installed = %v, want [s1 s2]", got)
	}
	if got := r.machine.Node.Probes.Attached(kernel.SiteUDPRecvmsg); got != 1 {
		t.Fatalf("site has %d programs after 3 Replace applies, want 1", got)
	}
	// The non-Replace path still rejects duplicates.
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err == nil {
		t.Fatal("duplicate install without Replace succeeded")
	}
}

// TestAgentDegradationCycle drives the overload controller through a full
// cycle: high queue pressure switches the rings to head-drop sampling and
// stretches the flush interval; mid pressure holds state (hysteresis);
// clear pressure restores full capture.
func TestAgentDegradationCycle(t *testing.T) {
	r := newRig(t)
	sink := &pressureSink{inner: r.collector, cap: 100}
	ag := NewAgent("agent-0", r.machine, sink)
	if err := ag.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}

	// Healthy acks leave the controller inert.
	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	if err := ag.Flush(); err != nil {
		t.Fatal(err)
	}
	if ds := ag.DegradeStats(); ds.Level != 0 || ds.FlushStretch != 1 {
		t.Fatalf("healthy ack degraded the agent: %+v", ds)
	}

	// 90% full queue: level 2, sampling on, stretch doubled.
	sink.depth = 90
	if err := ag.Flush(); err != nil {
		t.Fatal(err)
	}
	ds := ag.DegradeStats()
	if ds.Level != 2 || ds.FlushStretch != 2 || ds.Degradations != 1 {
		t.Fatalf("after pressured ack: %+v, want level 2 stretch 2", ds)
	}

	// Under sampling only every 4th ring write is admitted; the rejected
	// ones count as drops AND sample drops, keeping fires == writes+drops.
	before := ag.RingStats()
	for i := 0; i < 8; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(10+i))
	}
	after := ag.RingStats()
	wrote := after.Writes - before.Writes
	dropped := after.Drops - before.Drops
	if wrote+dropped != 8 {
		t.Fatalf("8 fires split into %d writes + %d drops", wrote, dropped)
	}
	if wrote != 2 || dropped != 6 {
		t.Fatalf("sampling kept %d of 8 fires (dropped %d), want 2 kept", wrote, dropped)
	}
	if ds := ag.DegradeStats(); ds.SampleDrops != 6 {
		t.Fatalf("SampleDrops = %d, want 6", ds.SampleDrops)
	}

	// 40% is inside the hysteresis band [clear, low): state holds, no
	// flapping.
	sink.depth = 40
	if err := ag.Flush(); err != nil {
		t.Fatal(err)
	}
	if ds := ag.DegradeStats(); ds.Level != 2 {
		t.Fatalf("mid pressure changed level: %+v", ds)
	}

	// 10%: full recovery — level 0, stretch reset, sampling off.
	sink.depth = 10
	if err := ag.Flush(); err != nil {
		t.Fatal(err)
	}
	ds = ag.DegradeStats()
	if ds.Level != 0 || ds.FlushStretch != 1 || ds.Recoveries != 1 {
		t.Fatalf("after clear ack: %+v, want full recovery", ds)
	}
	before = ag.RingStats()
	for i := 0; i < 3; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(20+i))
	}
	after = ag.RingStats()
	if after.Writes-before.Writes != 3 || after.Drops != before.Drops {
		t.Fatalf("post-recovery fires still sampled: +%d writes +%d drops",
			after.Writes-before.Writes, after.Drops-before.Drops)
	}
	if ds := ag.DegradeStats(); ds.SampleDrops != 6 {
		t.Fatalf("recovery changed SampleDrops to %d, want 6", ds.SampleDrops)
	}
}

// TestBackoffJitterDivergesAcrossAgents: two agents failing against the
// same dead collector must not arm identical retry schedules — the
// name-seeded jitter de-synchronizes them so recovery is not met by a
// thundering herd.
func TestBackoffJitterDivergesAcrossAgents(t *testing.T) {
	skipsFor := func(name string) []int {
		eng := sim.NewEngine(1)
		node := kernel.NewNode(eng, kernel.NodeConfig{Name: name, NumCPU: 1, TraceIDs: true})
		machine, err := core.NewMachine(node, 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		ag := NewAgent(name, machine, downSink{})
		var skips []int
		for i := 0; i < 10; i++ {
			if err := ag.Flush(); err == nil {
				t.Fatalf("flush against downSink succeeded")
			}
			skips = append(skips, ag.BackoffSkips())
		}
		return skips
	}
	a := skipsFor("agent-a")
	b := skipsFor("agent-b")
	if reflect.DeepEqual(a, b) {
		t.Fatalf("agents armed identical backoff schedules %v — jitter not per-agent", a)
	}
	// Replay determinism: the same agent always produces the same schedule.
	if a2 := skipsFor("agent-a"); !reflect.DeepEqual(a, a2) {
		t.Fatalf("same agent, different schedules across runs: %v vs %v", a, a2)
	}
	// Every armed skip respects the jittered bounds: base <= skip <=
	// base + base/2 with the base doubling up to the cap.
	for _, seq := range [][]int{a, b} {
		base := 1
		for i, skip := range seq {
			if skip < base || skip > base+base/2 {
				t.Fatalf("skip #%d = %d out of bounds [%d, %d]", i, skip, base, base+base/2)
			}
			base *= 2
			if base > 8 {
				base = 8
			}
		}
	}
}
