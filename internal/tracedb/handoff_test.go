package tracedb

import "testing"

// TestHandoffRehomeExactlyOnce walks the full re-homing protocol at the
// ledger level: the old collector ingests part of the agent's sequence
// space, the state exports, the successor imports it at the advanced
// epoch, and re-shipped batches (spool retries whose acks died with the
// old collector) must come back duplicate — never double-ingested.
func TestHandoffRehomeExactlyOnce(t *testing.T) {
	old := New()
	// Epoch 1: seqs 1,2,3 ingested contiguously, 5 parked pending (4 is
	// the gap — a batch still spooled agent-side when the collector died).
	for _, seq := range []uint64{1, 2, 3, 5} {
		if got := admit(old, "a", 1, seq, 10, 100); got != BatchFresh {
			t.Fatalf("seed seq %d: got %v, want BatchFresh", seq, got)
		}
	}
	h, ok := old.ExportLedger("a")
	if !ok {
		t.Fatal("ExportLedger found no ledger")
	}
	if h.HighWater != 3 || h.MaxSeq != 5 || len(h.Pending) != 1 || h.Pending[0] != 5 {
		t.Fatalf("export: hwm=%d max=%d pending=%v, want 3/5/[5]", h.HighWater, h.MaxSeq, h.Pending)
	}

	succ := New()
	succ.ImportLedger("a", 2, h)
	l := ledger(t, succ, "a")
	if l.Epoch != 2 || l.HighWaterSeq != 3 || l.MaxSeq != 5 {
		t.Fatalf("imported ledger: epoch=%d hwm=%d max=%d, want 2/3/5", l.Epoch, l.HighWaterSeq, l.MaxSeq)
	}
	if l.MissingBatches != 1 {
		t.Fatalf("imported missing: %d, want 1 (the gap travels with the handoff)", l.MissingBatches)
	}

	// Spool re-ships arrive at the successor under the NEW epoch with
	// their ORIGINAL seqs (the agent process never restarted).
	if got := admit(succ, "a", 2, 2, 10, 200); got != BatchDuplicate {
		t.Fatalf("re-ship of ingested seq 2: got %v, want BatchDuplicate", got)
	}
	if got := admit(succ, "a", 2, 5, 10, 200); got != BatchDuplicate {
		t.Fatalf("re-ship of pending seq 5: got %v, want BatchDuplicate", got)
	}
	// The gap batch finally lands: fresh, and the hwm runs to 5.
	if got := admit(succ, "a", 2, 4, 10, 210); got != BatchFresh {
		t.Fatalf("gap seq 4: got %v, want BatchFresh", got)
	}
	l = ledger(t, succ, "a")
	if l.HighWaterSeq != 5 || l.MissingBatches != 0 || l.PendingBatches != 0 {
		t.Fatalf("after gap fill: hwm=%d missing=%d pending=%d, want 5/0/0",
			l.HighWaterSeq, l.MissingBatches, l.PendingBatches)
	}
	// The sequence space continues where it left off.
	if got := admit(succ, "a", 2, 6, 10, 220); got != BatchFresh {
		t.Fatalf("new seq 6: got %v, want BatchFresh", got)
	}

	// A straggler still carrying the pre-handoff epoch fences at the
	// successor — dedup-aware: seq 2 was ingested before the move, so it
	// adds no fenced payload.
	if got := admit(succ, "a", 1, 2, 10, 230); got != BatchFenced {
		t.Fatalf("stale-epoch seq 2: got %v, want BatchFenced", got)
	}
	l = ledger(t, succ, "a")
	if l.FencedBatches != 1 || l.FencedRecords != 0 {
		t.Fatalf("stale ingested seq: fencedBatches=%d fencedRecords=%d, want 1/0",
			l.FencedBatches, l.FencedRecords)
	}
}

// TestHandoffImportNeverRegresses: a repeated or reordered import can
// never move the high-water mark (or liveness clock) backwards, and a
// stale-epoch import is ignored outright.
func TestHandoffImportNeverRegresses(t *testing.T) {
	db := New()
	db.ImportLedger("a", 2, LedgerState{HighWater: 5, MaxSeq: 5, LastSeenNs: 500})
	// Same epoch, older view (say a retried handoff RPC): no regression.
	db.ImportLedger("a", 2, LedgerState{HighWater: 3, MaxSeq: 3, Pending: []uint64{4}, LastSeenNs: 400})
	l := ledger(t, db, "a")
	if l.HighWaterSeq != 5 || l.MaxSeq != 5 || l.PendingBatches != 0 {
		t.Fatalf("after stale same-epoch import: hwm=%d max=%d pending=%d, want 5/5/0",
			l.HighWaterSeq, l.MaxSeq, l.PendingBatches)
	}
	if l.LastSeenNs != 500 {
		t.Fatalf("LastSeenNs regressed to %d", l.LastSeenNs)
	}
	// Stale epoch: ignored entirely.
	db.ImportLedger("a", 1, LedgerState{HighWater: 99, MaxSeq: 99})
	if l = ledger(t, db, "a"); l.Epoch != 2 || l.HighWaterSeq != 5 {
		t.Fatalf("stale-epoch import applied: epoch=%d hwm=%d", l.Epoch, l.HighWaterSeq)
	}
	// Same epoch, newer view: merges forward, pending runs the hwm up.
	db.ImportLedger("a", 2, LedgerState{HighWater: 6, MaxSeq: 8, Pending: []uint64{7, 8}, LastSeenNs: 600})
	if l = ledger(t, db, "a"); l.HighWaterSeq != 8 || l.PendingBatches != 0 || l.LastSeenNs != 600 {
		t.Fatalf("merge-forward: hwm=%d pending=%d last=%d, want 8/0/600",
			l.HighWaterSeq, l.PendingBatches, l.LastSeenNs)
	}
}

// TestHandoffCloseEpochFencesStragglers: the old home's tombstone. After
// CloseAgentEpoch, stale batches fence (dedup-aware against the frozen
// pre-handoff state), stale heartbeats cannot resurrect liveness, and
// the outstanding gap is zeroed locally — it traveled with the export,
// so a cluster-wide missing sum counts it exactly once.
func TestHandoffCloseEpochFencesStragglers(t *testing.T) {
	old := New()
	// Seqs 1 and 3 ingested; 2 is the gap.
	admit(old, "a", 1, 1, 10, 100)
	admit(old, "a", 1, 3, 10, 110)
	if l := ledger(t, old, "a"); l.MissingBatches != 1 {
		t.Fatalf("pre-close missing: %d, want 1", l.MissingBatches)
	}
	old.CloseAgentEpoch("a", 2)
	l := ledger(t, old, "a")
	if l.Epoch != 2 {
		t.Fatalf("epoch after close: %d, want 2", l.Epoch)
	}
	if l.MissingBatches != 0 {
		t.Fatalf("missing after close: %d, want 0 (accounting moved with the export)", l.MissingBatches)
	}
	// Straggler retry of an already-ingested seq: fenced, no payload loss.
	if got := admit(old, "a", 1, 3, 10, 120); got != BatchFenced {
		t.Fatalf("straggler seq 3: got %v, want BatchFenced", got)
	}
	if l = ledger(t, old, "a"); l.FencedRecords != 0 {
		t.Fatalf("fenced payload for ingested straggler: %d, want 0", l.FencedRecords)
	}
	// Straggler of a never-ingested seq: its payload is confirmed fenced.
	if got := admit(old, "a", 1, 2, 10, 130); got != BatchFenced {
		t.Fatalf("straggler seq 2: got %v, want BatchFenced", got)
	}
	if l = ledger(t, old, "a"); l.FencedRecords != 10 {
		t.Fatalf("fenced payload: %d, want 10", l.FencedRecords)
	}
	// Re-closing at an older-or-equal epoch is a no-op.
	old.CloseAgentEpoch("a", 2)
	old.CloseAgentEpoch("a", 1)
	if l = ledger(t, old, "a"); l.Epoch != 2 {
		t.Fatalf("epoch after redundant closes: %d, want 2", l.Epoch)
	}
}

// TestHeartbeatEpochDoesNotResurrect: the regression the cluster fix
// pins down — after a re-homing closes an agent's epoch on the old
// collector, a heartbeat routed there under the stale lease must not
// advance the liveness clock (the old collector would otherwise keep
// reporting the agent as its own healthy tenant forever).
func TestHeartbeatEpochDoesNotResurrect(t *testing.T) {
	db := New()
	admit(db, "a", 1, 1, 10, 100)
	db.CloseAgentEpoch("a", 2)
	if got := db.AdmitBatch("a", 1, 0, 0, 9999, 0); got != BatchFenced {
		t.Fatalf("stale heartbeat: got %v, want BatchFenced", got)
	}
	l := ledger(t, db, "a")
	if l.LastSeenNs != 100 {
		t.Fatalf("stale heartbeat advanced LastSeenNs to %d", l.LastSeenNs)
	}
	if l.FencedBatches != 0 || l.FencedRecords != 0 {
		t.Fatalf("bare stale heartbeat perturbed fence counters: %d/%d", l.FencedBatches, l.FencedRecords)
	}
	// Current-epoch and unleased heartbeats still work.
	if got := db.AdmitBatch("a", 2, 0, 0, 200, 1); got != BatchFresh {
		t.Fatalf("live heartbeat: got %v, want BatchFresh", got)
	}
	if l = ledger(t, db, "a"); l.LastSeenNs != 200 || l.Degraded != 1 {
		t.Fatalf("live heartbeat: last=%d degraded=%d, want 200/1", l.LastSeenNs, l.Degraded)
	}
	if got := db.AdmitBatch("a", 0, 0, 0, 300, 0); got != BatchFresh {
		t.Fatalf("unleased heartbeat: got %v, want BatchFresh (epoch 0 never fences)", got)
	}
}

// TestMergeAggs: the cross-collector aggregate merge sums counters,
// histogram buckets, per-CPU hits, and per-5-tuple flows exactly, with
// deterministic flow ordering.
func TestMergeAggs(t *testing.T) {
	a := ScriptAgg{
		Script:   "s",
		Counters: []uint64{1, 2},
		CPUHits:  []uint64{3, 0},
		Hist:     []uint64{1, 0, 4},
		Flows: []FlowAgg{
			{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 6, Packets: 5, Bytes: 500},
		},
	}
	b := ScriptAgg{
		Script:   "s",
		Counters: []uint64{10, 0, 7},
		CPUHits:  []uint64{0, 4},
		Hist:     []uint64{0, 2},
		Flows: []FlowAgg{
			{SrcIP: 1, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 6, Packets: 1, Bytes: 100},
			{SrcIP: 9, DstIP: 2, SrcPort: 10, DstPort: 20, Proto: 17, Packets: 2, Bytes: 200},
		},
	}
	m := MergeAggs(a, b)
	wantCounters := []uint64{11, 2, 7}
	for i, w := range wantCounters {
		if m.Counters[i] != w {
			t.Fatalf("counter[%d] = %d, want %d", i, m.Counters[i], w)
		}
	}
	if m.Hist[0] != 1 || m.Hist[1] != 2 || m.Hist[2] != 4 {
		t.Fatalf("hist = %v, want [1 2 4]", m.Hist)
	}
	if len(m.Flows) != 2 {
		t.Fatalf("flows = %d, want 2", len(m.Flows))
	}
	if m.Flows[0].Packets != 6 || m.Flows[0].Bytes != 600 {
		t.Fatalf("merged flow = %+v, want 6 pkts / 600 bytes", m.Flows[0])
	}
	// Merging in the other order gives the identical result.
	m2 := MergeAggs(b, a)
	if len(m2.Flows) != 2 || m2.Flows[0] != m.Flows[0] || m2.Flows[1] != m.Flows[1] {
		t.Fatalf("merge is order-sensitive: %+v vs %+v", m.Flows, m2.Flows)
	}
}
