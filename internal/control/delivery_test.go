package control

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

// Fault-injection tests for the delivery pipeline (run by `make faults`
// under -race): a collector that errors for a while then recovers, a TCP
// connection killed after ingest but before the reply, a collector
// restart, and spool overflow. The invariant throughout: every record
// drained from the ring is queryable in tracedb exactly once while the
// spool has capacity — no loss, no duplicates — and evictions/duplicates
// are visible in stats.

// assertExactlyOnce checks ids 1..n each appear exactly once in the table.
func assertExactlyOnce(t *testing.T, db *tracedb.DB, tpid uint32, n int) {
	t.Helper()
	tbl, ok := db.Table(tpid)
	if !ok {
		t.Fatalf("table %d missing", tpid)
	}
	if tbl.Len() != n {
		t.Fatalf("table has %d records, want %d", tbl.Len(), n)
	}
	for id := uint32(1); id <= uint32(n); id++ {
		if got := len(tbl.ByTraceID(id)); got != 1 {
			t.Fatalf("trace %d has %d records, want exactly 1", id, got)
		}
	}
}

// TestFaultFlakySinkExactlyOnce is the end-to-end acceptance scenario:
// the collector errors for the first N flush attempts, then recovers.
// Every record drained from the ring during the outage must be spooled
// and eventually queryable exactly once; the retry backoff must not
// starve delivery; stats must show a clean run (no evictions, no dups).
func TestFaultFlakySinkExactlyOnce(t *testing.T) {
	r := newRig(t)
	flaky := &flakySink{next: r.collector, failures: 4}
	agent := NewAgent("agent-0", r.machine, flaky)
	if err := agent.Apply(ControlPackage{
		Install:         []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)},
		FlushIntervalNs: int64(sim.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		at := int64(i) * int64(sim.Millisecond) / 2
		id := uint32(i + 1)
		r.eng.Schedule(at, func() { firePacket(r, kernel.SiteUDPRecvmsg, id) })
	}
	// 40 ticks: enough for the exponential backoff (skips 1, 2, 4 after
	// the first three failures, 8 after the fourth) to reach a successful
	// attempt and drain the whole spool.
	r.eng.Run(40 * int64(sim.Millisecond))

	assertExactlyOnce(t, r.db, 1, n)
	st := agent.SpoolStats()
	if st.Batches != 0 || st.Records != 0 || st.Bytes != 0 {
		t.Fatalf("spool not drained after recovery: %+v", st)
	}
	if st.EvictedBatches != 0 || st.EvictedRecords != 0 {
		t.Fatalf("spool evicted during a within-capacity outage: %+v", st)
	}
	if st.Retries == 0 {
		t.Fatal("no retries recorded despite sink failures")
	}
	errs, last := agent.FlushErrors()
	if errs != uint64(flaky.failures) {
		t.Fatalf("FlushErrors = %d, want %d", errs, flaky.failures)
	}
	if last != nil {
		t.Fatalf("last flush error = %v, want nil after recovery", last)
	}
	dupB, dupR, missing := r.collector.DeliveryStats()
	if dupB != 0 || dupR != 0 || missing != 0 {
		t.Fatalf("delivery stats = dup %d batches/%d records, %d missing; want all 0", dupB, dupR, missing)
	}
	l, ok := r.db.Ledger("agent-0")
	if !ok || l.HighWaterSeq == 0 || l.HighWaterSeq != l.MaxSeq {
		t.Fatalf("ledger = %+v, want contiguous nonzero high-water mark", l)
	}
}

// ackLossSink ingests every batch but reports failure for the first lose
// calls — the "collector got it, reply lost" half of the duplication bug:
// the agent must retry, and the retry must be deduplicated.
type ackLossSink struct {
	next  RecordSink
	lose  int
	calls int
}

func (s *ackLossSink) HandleBatch(b RecordBatch) error {
	err := s.next.HandleBatch(b)
	s.calls++
	if s.calls <= s.lose {
		return errors.New("reply lost after ingest")
	}
	return err
}

// TestFaultAckLossNoDuplicates: when the sink ingests a batch but the
// acknowledgement is lost, the agent re-ships it with the same sequence
// number and the collector's ledger drops the replay — records land
// exactly once and the duplicate is counted, never inserted.
func TestFaultAckLossNoDuplicates(t *testing.T) {
	r := newRig(t)
	lossy := &ackLossSink{next: r.collector, lose: 2}
	agent := NewAgent("agent-0", r.machine, lossy)
	if err := agent.Apply(ControlPackage{
		Install:         []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)},
		FlushIntervalNs: int64(sim.Millisecond),
	}); err != nil {
		t.Fatal(err)
	}
	const n = 6
	for i := 0; i < n; i++ {
		at := int64(i) * int64(sim.Millisecond) / 2
		id := uint32(i + 1)
		r.eng.Schedule(at, func() { firePacket(r, kernel.SiteUDPRecvmsg, id) })
	}
	r.eng.Run(30 * int64(sim.Millisecond))

	assertExactlyOnce(t, r.db, 1, n)
	dupB, dupR, missing := r.collector.DeliveryStats()
	if dupB == 0 || dupR == 0 {
		t.Fatal("replayed batch not counted as duplicate")
	}
	if missing != 0 {
		t.Fatalf("missing = %d, want 0", missing)
	}
	st := agent.SpoolStats()
	if st.Batches != 0 || st.Retries == 0 || st.EvictedRecords != 0 {
		t.Fatalf("spool stats = %+v", st)
	}
}

// TestFaultConnKillBeforeReply kills the TCP connection after the
// collector ingests a batch but before the OK reply reaches the client.
// The client's reconnect-and-resend used to double-insert the batch; with
// sequence-number dedup the retry is dropped. (Fails without Seq dedup.)
func TestFaultConnKillBeforeReply(t *testing.T) {
	db := tracedb.New()
	col := NewCollectorWith(db, tracedb.NewAggStore())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var killOnce atomic.Bool
	killOnce.Store(true)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func(conn net.Conn) {
				defer wg.Done()
				defer conn.Close()
				for {
					body, err := readBody(conn)
					if err != nil {
						return
					}
					batch, err := DecodeBatchFrame(body)
					if err != nil {
						t.Error(err)
						return
					}
					if err := col.HandleBatch(batch); err != nil {
						t.Error(err)
						return
					}
					if killOnce.CompareAndSwap(true, false) {
						return // ingested — kill the connection before replying
					}
					if err := writeFrame(conn, envelope{Type: frameOK}); err != nil {
						return
					}
				}
			}(conn)
		}
	}()

	sink := NewTCPSink(ln.Addr().String())
	defer sink.Close()
	const n = 4
	batch := RecordBatch{Agent: "agent-0", AgentTimeNs: 123, Seq: 1}
	for i := 0; i < n; i++ {
		batch.Records = append(batch.Records, core.Record{TPID: 1, TraceID: uint32(i + 1), TimeNs: uint64(i)})
	}
	if err := sink.HandleBatch(batch); err != nil {
		t.Fatalf("retry after connection kill failed: %v", err)
	}
	sink.Close()
	ln.Close()
	wg.Wait()

	assertExactlyOnce(t, db, 1, n)
	batches, records, _ := col.Stats()
	if batches != 1 || records != n {
		t.Fatalf("collector stats = %d batches / %d records, want 1 / %d", batches, records, n)
	}
	dupB, dupR, _ := col.DeliveryStats()
	if dupB != 1 || dupR != n {
		t.Fatalf("duplicate stats = %d batches / %d records, want 1 / %d", dupB, dupR, n)
	}
}

// TestFaultCollectorRestart takes the collector endpoint down mid-run and
// brings it back on the same address with the same store: flushes during
// the outage spool agent-side, and the drain after restart delivers every
// record exactly once.
func TestFaultCollectorRestart(t *testing.T) {
	r := newRig(t)
	db := tracedb.New()
	col := NewCollectorWith(db, tracedb.NewAggStore())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	srv := Serve(ln, nil, col)
	sink := NewTCPSink(addr)
	defer sink.Close()
	agent := NewAgent("agent-0", r.machine, sink)
	if err := agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}

	firePacket(r, kernel.SiteUDPRecvmsg, 1)
	firePacket(r, kernel.SiteUDPRecvmsg, 2)
	if err := agent.Flush(); err != nil {
		t.Fatalf("flush before outage: %v", err)
	}

	srv.Close() // collector goes down
	firePacket(r, kernel.SiteUDPRecvmsg, 3)
	firePacket(r, kernel.SiteUDPRecvmsg, 4)
	if err := agent.Flush(); err == nil {
		t.Fatal("flush into a dead collector succeeded")
	}
	firePacket(r, kernel.SiteUDPRecvmsg, 5)
	if err := agent.Flush(); err == nil {
		t.Fatal("flush into a dead collector succeeded")
	}
	if st := agent.SpoolStats(); st.Records != 3 {
		t.Fatalf("spooled records during outage = %d, want 3", st.Records)
	}

	ln2, err := net.Listen("tcp", addr) // collector restarts on the same address
	if err != nil {
		t.Fatal(err)
	}
	srv2 := Serve(ln2, nil, col)
	defer srv2.Close()
	if err := agent.Flush(); err != nil {
		t.Fatalf("flush after restart: %v", err)
	}

	assertExactlyOnce(t, db, 1, 5)
	if st := agent.SpoolStats(); st.Batches != 0 || st.EvictedRecords != 0 {
		t.Fatalf("spool after recovery = %+v", st)
	}
	dupB, _, missing := col.DeliveryStats()
	if dupB != 0 || missing != 0 {
		t.Fatalf("delivery stats after restart = %d dups, %d missing, want 0, 0", dupB, missing)
	}
}

// TestFaultSpoolEvictionBounded: with the sink down and a spool capped at
// two records, older batches are evicted oldest-first and counted; after
// recovery the survivors land exactly once and the collector's ledger
// reports the evicted sequence numbers as missing.
func TestFaultSpoolEvictionBounded(t *testing.T) {
	r := newRig(t)
	flaky := &flakySink{next: r.collector, failures: 6}
	agent := NewAgent("agent-0", r.machine, flaky)
	agent.SetSpoolLimit(2 * core.RecordSize)
	if err := agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 6; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i))
		if err := agent.Flush(); err == nil {
			t.Fatalf("flush %d succeeded against failing sink", i)
		}
	}
	st := agent.SpoolStats()
	if st.Batches != 2 || st.Records != 2 {
		t.Fatalf("spool = %+v, want 2 batches / 2 records", st)
	}
	if st.EvictedBatches != 4 || st.EvictedRecords != 4 {
		t.Fatalf("evictions = %d batches / %d records, want 4 / 4", st.EvictedBatches, st.EvictedRecords)
	}
	if st.Bytes > st.Limit {
		t.Fatalf("spool %d bytes exceeds limit %d", st.Bytes, st.Limit)
	}

	// Sink recovers: survivors 5 and 6 drain, 1-4 are gone for good.
	if err := agent.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	tbl, ok := r.db.Table(1)
	if !ok || tbl.Len() != 2 {
		t.Fatalf("table has %d records, want the 2 surviving", tbl.Len())
	}
	for _, id := range []uint32{5, 6} {
		if len(tbl.ByTraceID(id)) != 1 {
			t.Fatalf("surviving trace %d missing", id)
		}
	}
	for _, id := range []uint32{1, 2, 3, 4} {
		if len(tbl.ByTraceID(id)) != 0 {
			t.Fatalf("evicted trace %d resurfaced", id)
		}
	}
	l, ok := r.db.Ledger("agent-0")
	if !ok || l.MissingBatches != st.EvictedBatches {
		t.Fatalf("ledger missing = %d, want %d (the evicted batches)", l.MissingBatches, st.EvictedBatches)
	}
}

// TestConcurrentFlushSerialized is the -race regression for concurrent
// Flush calls (manual + timer tick) interleaving the Ring.Drain / Drops /
// lastDrops window: the drain-and-ship section must be serialized so no
// record is lost or duplicated and drop deltas stay consistent.
func TestConcurrentFlushSerialized(t *testing.T) {
	r := newRig(t)
	if err := r.agent.Apply(ControlPackage{Install: []script.Spec{recordSpec("s1", 1, kernel.SiteUDPRecvmsg)}}); err != nil {
		t.Fatal(err)
	}
	const n = 200
	for i := 1; i <= n; i++ {
		firePacket(r, kernel.SiteUDPRecvmsg, uint32(i))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := r.agent.Flush(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	assertExactlyOnce(t, r.db, 1, n)
	_, _, drops := r.collector.Stats()
	if drops != 0 {
		t.Fatalf("phantom ring drops attributed: %d", drops)
	}
	if st := r.agent.SpoolStats(); st.Batches != 0 {
		t.Fatalf("spool not empty after concurrent flushes: %+v", st)
	}
}

// TestHeartbeatOutOfOrderBatches drives the heartbeat-regression fix
// through the collector: two batches processed out of order (as async
// ingest workers can) must leave the newer timestamp in the ledger.
func TestHeartbeatOutOfOrderBatches(t *testing.T) {
	db := tracedb.New()
	col := NewCollectorWith(db, tracedb.NewAggStore())
	col.HandleBatch(RecordBatch{Agent: "a", AgentTimeNs: 1000, Seq: 2})
	col.HandleBatch(RecordBatch{Agent: "a", AgentTimeNs: 400, Seq: 1}) // older batch, processed late
	if dead := db.DeadAgents(1100, 300); len(dead) != 0 {
		t.Fatalf("live agent declared dead: %v", dead)
	}
	l, _ := db.Ledger("a")
	if l.LastSeenNs != 1000 || l.HighWaterSeq != 2 {
		t.Fatalf("ledger = %+v", l)
	}
}
