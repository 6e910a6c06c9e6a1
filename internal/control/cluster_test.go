package control

import (
	"fmt"
	"path/filepath"
	"testing"

	"vnettracer/internal/tracedb"
)

// fakeAgent records the sink/epoch the dispatcher hands an agent and
// accepts (and counts) every control package.
type fakeAgent struct {
	sink    RecordSink
	epoch   uint64
	retargs int
	applies int
}

func (f *fakeAgent) Apply(ControlPackage) error {
	f.applies++
	return nil
}

func (f *fakeAgent) Retarget(sink RecordSink, epoch uint64) {
	if sink != nil {
		f.sink = sink
	}
	f.epoch = epoch
	f.retargs++
}

type clusterFixture struct {
	disp *Dispatcher
	cols map[string]*Collector
	rts  map[string]*fakeAgent
	// dir holds each collector's data and WAL directories under its name;
	// "" keeps the collectors in memory. durs are their open logs.
	dir  string
	durs map[string]*tracedb.Durability
}

func newClusterFixture(t *testing.T, nCols, nAgents int, dir string) *clusterFixture {
	t.Helper()
	f := &clusterFixture{
		disp: NewDispatcher(),
		cols: make(map[string]*Collector),
		rts:  make(map[string]*fakeAgent),
		dir:  dir,
		durs: make(map[string]*tracedb.Durability),
	}
	t.Cleanup(func() {
		for _, d := range f.durs {
			d.Close()
		}
	})
	for i := 0; i < nCols; i++ {
		name := fmt.Sprintf("col-%d", i)
		if err := f.disp.AddCollector(name, f.open(t, name), nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nAgents; i++ {
		name := fmt.Sprintf("agent-%02d", i)
		rt := &fakeAgent{}
		if err := f.disp.Register(name, rt); err != nil {
			t.Fatal(err)
		}
		home, ok := f.disp.Home(name)
		if !ok || rt.sink != f.cols[home] || rt.epoch != 1 || rt.retargs != 1 {
			t.Fatalf("Register(%s): home %q (ok=%v), retargeted %d times at epoch %d to %v",
				name, home, ok, rt.retargs, rt.epoch, rt.sink)
		}
		f.rts[name] = rt
	}
	return f
}

// open starts a new incarnation of a collector: in memory, or recovered
// from its directories under f.dir.
func (f *clusterFixture) open(t *testing.T, name string) *Collector {
	t.Helper()
	col := NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
	if f.dir != "" {
		var d *tracedb.Durability
		var err error
		col, d, _, err = OpenCollector(
			tracedb.Config{DataDir: filepath.Join(f.dir, name, "data")},
			tracedb.DurabilityConfig{Dir: filepath.Join(f.dir, name, "wal")})
		if err != nil {
			t.Fatal(err)
		}
		f.durs[name] = d
	}
	f.cols[name] = col
	return col
}

// crash kills a durable collector, losing everything it held in memory,
// and recovers it from its directories into the tier.
func (f *clusterFixture) crash(t *testing.T, name string) *Collector {
	t.Helper()
	f.durs[name].Close()
	col := f.open(t, name)
	if _, err := f.disp.RecoverCollector(name, col, nil); err != nil {
		t.Fatal(err)
	}
	return col
}

// send ships an empty batch for an agent at its current lease and seq.
func (f *clusterFixture) send(t *testing.T, agent string, seq uint64) {
	t.Helper()
	rt := f.rts[agent]
	err := rt.sink.HandleBatch(RecordBatch{
		Agent: agent, AgentTimeNs: int64(1000 * seq), Seq: seq, Epoch: rt.epoch,
	})
	if err != nil {
		t.Fatalf("HandleBatch(%s seq %d): %v", agent, seq, err)
	}
}

// TestClusterPlacementSticky: placement matches the hash ring, every
// collector in a small fixture gets work eventually, and re-registering
// an agent (the restart path) keeps its home and retargets the new
// incarnation there under the next lease.
func TestClusterPlacementSticky(t *testing.T) {
	f := newClusterFixture(t, 3, 12, "")
	perCol := make(map[string]int)
	for agent := range f.rts {
		home, _ := f.disp.Home(agent)
		perCol[home]++
	}
	for name := range f.cols {
		if perCol[name] == 0 {
			t.Fatalf("collector %s owns no agents in a 12-agent fixture (placement: %v)", name, perCol)
		}
	}
	agent := "agent-00"
	before, _ := f.disp.Home(agent)
	rt2 := &fakeAgent{}
	if err := f.disp.Reregister(agent, rt2); err != nil {
		t.Fatal(err)
	}
	if home, _ := f.disp.Home(agent); home != before {
		t.Fatalf("re-registration moved %s: %s -> %s", agent, before, home)
	}
	if rt2.sink != f.cols[before] || rt2.epoch != 2 {
		t.Fatalf("re-registered %s retargeted at epoch %d to %v, want epoch 2 at %s", agent, rt2.epoch, rt2.sink, before)
	}
}

// TestDispatcherRegisterNeedsCollector: with no collector to home it on,
// registration fails and leaves no lease or client behind.
func TestDispatcherRegisterNeedsCollector(t *testing.T) {
	d := NewDispatcher()
	if err := d.Register("a", &fakeAgent{}); err == nil {
		t.Fatal("Register with no collectors succeeded")
	}
	if err := d.Reregister("a", &fakeAgent{}); err == nil {
		t.Fatal("Reregister with no collectors succeeded")
	}
	if got := d.Epoch("a"); got != 0 {
		t.Fatalf("failed registrations granted lease %d", got)
	}
	if err := d.AddCollector("col-0", NewCollectorWith(tracedb.New(), tracedb.NewAggStore()), nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Register("a", &fakeAgent{}); err != nil {
		t.Fatal(err)
	}
}

// TestClusterFailCollectorRehome is the end-to-end handoff: agents on
// the failed collector move to survivors with an advanced epoch and
// imported ledgers; spool re-ships dedup at the new home; stragglers and
// heartbeats fence at the old home; nobody else moves.
func TestClusterFailCollectorRehome(t *testing.T) {
	f := newClusterFixture(t, 3, 12, "")
	for agent := range f.rts {
		for seq := uint64(1); seq <= 3; seq++ {
			f.send(t, agent, seq)
		}
	}
	const victim = "col-0"
	victimCol := f.cols[victim]
	homesBefore := make(map[string]string)
	var victims []string
	for agent := range f.rts {
		homesBefore[agent], _ = f.disp.Home(agent)
		if homesBefore[agent] == victim {
			victims = append(victims, agent)
		}
	}
	if len(victims) == 0 {
		t.Fatal("fixture gave the victim collector no agents")
	}

	moves, err := f.disp.FailCollector(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != len(victims) {
		t.Fatalf("%d rehomes for %d victim agents", len(moves), len(victims))
	}
	if got := f.disp.Stats().Rehomes; got != uint64(len(victims)) {
		t.Fatalf("Stats().Rehomes = %d, want %d", got, len(victims))
	}

	for _, mv := range moves {
		if mv.From != victim {
			t.Fatalf("rehome %+v claims to move from %s", mv, mv.From)
		}
		rt := f.rts[mv.Agent]
		if rt.epoch != mv.Epoch || rt.epoch != f.disp.Epoch(mv.Agent) {
			t.Fatalf("agent %s retargeted at epoch %d, dispatcher says %d, move says %d",
				mv.Agent, rt.epoch, f.disp.Epoch(mv.Agent), mv.Epoch)
		}
		home, _ := f.disp.Home(mv.Agent)
		if home != mv.To || home == victim {
			t.Fatalf("agent %s homed at %s, move says %s", mv.Agent, home, mv.To)
		}
		// The supervisor's ledger view follows the agent to its new home.
		l, ok := f.disp.Ledger(mv.Agent)
		if !ok || l.Epoch != mv.Epoch || l.HighWaterSeq != 3 {
			t.Fatalf("cluster ledger for %s: ok=%v epoch=%d hwm=%d, want epoch %d hwm 3",
				mv.Agent, ok, l.Epoch, l.HighWaterSeq, mv.Epoch)
		}
	}
	// Survivors' agents did not move and were not retargeted again.
	for agent, before := range homesBefore {
		if before == victim {
			continue
		}
		if now, _ := f.disp.Home(agent); now != before {
			t.Fatalf("bystander %s moved %s -> %s", agent, before, now)
		}
		if f.rts[agent].retargs != 1 {
			t.Fatalf("bystander %s retargeted %d times", agent, f.rts[agent].retargs)
		}
	}

	moved := moves[0].Agent
	newCol := f.cols[moves[0].To]
	// Spool re-ships (original seqs, new epoch, acks lost with the old
	// collector) dedup at the new home: exactly-once across the handoff.
	batchesBefore, _, _ := newCol.Stats()
	for seq := uint64(1); seq <= 3; seq++ {
		f.send(t, moved, seq)
	}
	dupB, _, _ := newCol.DeliveryStats()
	if dupB != 3 {
		t.Fatalf("re-shipped batches marked duplicate: %d, want 3", dupB)
	}
	if b, _, _ := newCol.Stats(); b != batchesBefore {
		t.Fatalf("re-ships were ingested: batches %d -> %d", batchesBefore, b)
	}
	// Fresh sequence numbers continue the same space.
	f.send(t, moved, 4)
	if l, _ := f.disp.Ledger(moved); l.HighWaterSeq != 4 || l.MissingBatches != 0 {
		t.Fatalf("post-rehome ledger: hwm=%d missing=%d, want 4/0", l.HighWaterSeq, l.MissingBatches)
	}

	// A straggler batch still addressed to the dead collector under the
	// old lease is fenced there, not ingested.
	oldEpoch := f.rts[moved].epoch - 1
	if err := victimCol.HandleBatch(RecordBatch{Agent: moved, Seq: 9, Epoch: oldEpoch, AgentTimeNs: 99999}); err != nil {
		t.Fatal(err)
	}
	fencedB, _ := victimCol.FencedStats()
	if fencedB != 1 {
		t.Fatalf("straggler not fenced at old home: fencedBatches = %d", fencedB)
	}

	// Failing a collector twice, or an unknown one, is an error.
	if _, err := f.disp.FailCollector(victim); err == nil {
		t.Fatal("double failure not rejected")
	}
	if _, err := f.disp.FailCollector("nope"); err == nil {
		t.Fatal("unknown collector not rejected")
	}
}

// TestClusterStaleHeartbeatDoesNotResurrect is the regression test for
// the handoff heartbeat bug: after an agent re-homes, an aggregate frame
// (or bare heartbeat) routed to the OLD collector under the stale lease
// must not advance the agent's liveness clock there — the old collector
// would otherwise keep the stale assignment looking healthy and the
// monitor would never notice the agent left.
func TestClusterStaleHeartbeatDoesNotResurrect(t *testing.T) {
	f := newClusterFixture(t, 2, 8, "")
	for agent := range f.rts {
		f.send(t, agent, 1)
	}
	const victim = "col-0"
	moves, err := f.disp.FailCollector(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("no agents to rehome")
	}
	moved := moves[0].Agent
	oldCol := f.cols[victim]
	before, ok := oldCol.DB().Ledger(moved)
	if !ok {
		t.Fatalf("old collector lost %s's ledger", moved)
	}
	// An aggregate frame under the stale lease, stamped far in the
	// future: HandleAgg must fence it out of the liveness path.
	err = oldCol.HandleAgg(AggBatch{Agent: moved, Epoch: moves[0].Epoch - 1, Seq: 7, AgentTimeNs: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	after, _ := oldCol.DB().Ledger(moved)
	if after.LastSeenNs != before.LastSeenNs {
		t.Fatalf("stale aggregate frame resurrected liveness: %d -> %d", before.LastSeenNs, after.LastSeenNs)
	}
	// The same frame at the NEW home (current lease) does count.
	newCol := f.cols[moves[0].To]
	err = newCol.HandleAgg(AggBatch{Agent: moved, Epoch: moves[0].Epoch, Seq: 1, AgentTimeNs: 1 << 40})
	if err != nil {
		t.Fatal(err)
	}
	if l, _ := newCol.DB().Ledger(moved); l.LastSeenNs != 1<<40 {
		t.Fatalf("live aggregate frame did not heartbeat: LastSeenNs = %d", l.LastSeenNs)
	}
}

// TestClusterRecoverTwiceKeepsSequenceSpace: a collector that crashes
// again before its tenants deliver at the lease its first recovery
// granted replays a ledger one self-handoff behind that lease. An agent
// that kept running kept its sequence space, so a spool re-ship of a
// batch ingested before the first crash must dedup; one that
// re-registered while the collector was down restarted its seqs, so its
// new stream must be stored.
func TestClusterRecoverTwiceKeepsSequenceSpace(t *testing.T) {
	f := newClusterFixture(t, 1, 2, t.TempDir())
	const kept, rebooted = "agent-00", "agent-01"
	for seq := uint64(1); seq <= 3; seq++ {
		f.send(t, kept, seq)
		f.send(t, rebooted, seq)
	}
	f.crash(t, "col-0")
	// Down again before any delivery at the granted lease; meanwhile one
	// agent restarts and re-registers.
	if err := f.disp.Reregister(rebooted, f.rts[rebooted]); err != nil {
		t.Fatal(err)
	}
	col := f.crash(t, "col-0")

	f.send(t, kept, 3)
	f.send(t, rebooted, 1)
	if dup, _, _ := col.DeliveryStats(); dup != 1 {
		t.Fatalf("recovered collector deduped %d batches, want 1 (kept's re-ship only)", dup)
	}
}

// TestClusterRehomeImportSurvivesSuccessorCrash: a successor that
// crashes after a re-homing, before any periodic checkpoint, must recover
// the ledger it imported. The moved agent keeps its sequence space, so its
// spool re-ship of a batch the failed collector ingested must still
// dedup there, with no false gap.
func TestClusterRehomeImportSurvivesSuccessorCrash(t *testing.T) {
	f := newClusterFixture(t, 3, 12, t.TempDir())
	for agent := range f.rts {
		for seq := uint64(1); seq <= 3; seq++ {
			f.send(t, agent, seq)
		}
	}
	moves, err := f.disp.FailCollector("col-0")
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) == 0 {
		t.Fatal("fixture gave the failed collector no agents")
	}
	moved := moves[0].Agent
	col := f.crash(t, moves[0].To)

	f.send(t, moved, 3)
	batches, _, _ := col.Stats()
	dup, _, missing := col.DeliveryStats()
	l, _ := col.DB().Ledger(moved)
	if batches != 0 || dup != 1 || l.HighWaterSeq != 3 || missing != 0 {
		t.Fatalf("recovered successor stored %d batches, dup %d, hwm %d, missing %d; want 0, 1, 3, 0",
			batches, dup, l.HighWaterSeq, missing)
	}
}
