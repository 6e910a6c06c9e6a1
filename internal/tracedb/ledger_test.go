package tracedb

import (
	"maps"
	"testing"

	"vnettracer/internal/core"
)

// TestHeartbeatOutOfOrderKeepsMax is the regression for a heartbeat blindly
// overwriting the last-seen time: with async ingest workers batches can be
// processed out of order, and an older AgentTimeNs must not regress the
// ledger and falsely declare a live agent dead.
func TestHeartbeatOutOfOrderKeepsMax(t *testing.T) {
	db := New()
	db.AdmitBatch("a", 0, 0, 0, 1000, 0)
	db.AdmitBatch("a", 0, 0, 0, 400, 0) // older batch processed late
	if dead := db.DeadAgents(1100, 300); len(dead) != 0 {
		t.Fatalf("live agent declared dead after out-of-order heartbeat: %v", dead)
	}
	l, ok := db.Ledger("a")
	if !ok || l.LastSeenNs != 1000 {
		t.Fatalf("ledger last seen = %+v, want 1000", l)
	}
	// A genuinely newer heartbeat still advances it.
	db.AdmitBatch("a", 0, 0, 0, 2000, 0)
	if l, _ := db.Ledger("a"); l.LastSeenNs != 2000 {
		t.Fatalf("last seen = %d, want 2000", l.LastSeenNs)
	}
}

// markSeq admits an unleased, payload-free batch carrying seq and reports
// whether the ledger found it fresh.
func markSeq(db *DB, agent string, seq uint64) bool {
	return db.AdmitBatch(agent, 0, seq, 0, 0, 0) == BatchFresh
}

// TestMarkBatchSeqDedupAndReorder exercises the exactly-once ledger: fresh
// seqs accepted once, duplicates rejected, and out-of-order arrival parks
// above the high-water mark until the gap fills.
func TestMarkBatchSeqDedupAndReorder(t *testing.T) {
	db := New()
	for _, seq := range []uint64{1, 2} {
		if !markSeq(db, "a", seq) {
			t.Fatalf("fresh seq %d rejected", seq)
		}
	}
	if markSeq(db, "a", 2) {
		t.Fatal("duplicate seq 2 accepted")
	}
	if markSeq(db, "a", 1) {
		t.Fatal("duplicate seq 1 below high-water accepted")
	}
	// Out of order: 5 parks pending, then 3 and 4 fill the gap.
	if !markSeq(db, "a", 5) {
		t.Fatal("out-of-order seq 5 rejected")
	}
	l, _ := db.Ledger("a")
	if l.HighWaterSeq != 2 || l.PendingBatches != 1 || l.MaxSeq != 5 || l.MissingBatches != 2 {
		t.Fatalf("ledger after reorder = %+v", l)
	}
	if markSeq(db, "a", 5) {
		t.Fatal("duplicate pending seq 5 accepted")
	}
	if !markSeq(db, "a", 3) || !markSeq(db, "a", 4) {
		t.Fatal("gap-filling seqs rejected")
	}
	l, _ = db.Ledger("a")
	if l.HighWaterSeq != 5 || l.PendingBatches != 0 || l.MissingBatches != 0 {
		t.Fatalf("ledger after gap fill = %+v", l)
	}
	if l.DupBatches != 3 {
		t.Fatalf("dup batches = %d, want 3", l.DupBatches)
	}
	// Seq 0 is unsequenced: always fresh, never recorded.
	if !markSeq(db, "a", 0) || !markSeq(db, "a", 0) {
		t.Fatal("unsequenced batch rejected")
	}
	// Ledgers are per agent.
	if !markSeq(db, "b", 5) {
		t.Fatal("agent b's seq 5 rejected by agent a's ledger")
	}
}

// TestLedgerCountsMissing: a permanent gap (the agent evicted the batch
// from its spool) stays visible as a missing batch.
func TestLedgerCountsMissing(t *testing.T) {
	db := New()
	markSeq(db, "a", 1)
	markSeq(db, "a", 4) // 2 and 3 never arrive
	l, _ := db.Ledger("a")
	if l.MissingBatches != 2 {
		t.Fatalf("missing = %d, want 2", l.MissingBatches)
	}
	if _, ok := db.Ledger("ghost"); ok {
		t.Fatal("ledger for unknown agent")
	}
}

// TestAlignClampsAtZero is the regression for skew alignment computing
// uint64(int64(TimeNs) - skew) and wrapping to a huge timestamp when a
// large positive skew exceeds an early record's time.
func TestAlignClampsAtZero(t *testing.T) {
	db := New()
	db.Insert([]core.Record{
		{TPID: 1, TraceID: 1, TimeNs: 100},
		{TPID: 1, TraceID: 2, TimeNs: 5000},
	})
	tbl, _ := db.Table(1)
	db.SetSkew(1, 1000) // exceeds the first record's timestamp

	want := map[uint32]uint64{1: 0, 2: 4000}
	if got := alignedByID(tbl); !maps.Equal(got, want) {
		t.Fatalf("ScanAligned = %v, want %v (trace 1 clamped at 0)", got, want)
	}
}

// alignedByID maps each trace ID to its record's aligned timestamp.
func alignedByID(tbl *Table) map[uint32]uint64 {
	out := make(map[uint32]uint64)
	tbl.ScanAligned(func(r core.Record) bool {
		out[r.TraceID] = r.TimeNs
		return true
	})
	return out
}

// TestAlignNegativeSkew: a node whose clock runs *behind* the collector
// reference has a negative skew estimate; subtracting it must shift
// timestamps forward without wrapping or clamping — the clamp guards
// underflow only, and must never fire on the negative-skew side.
func TestAlignNegativeSkew(t *testing.T) {
	db := New()
	db.Insert([]core.Record{
		{TPID: 1, TraceID: 1, TimeNs: 0}, // even a zero timestamp moves forward
		{TPID: 1, TraceID: 2, TimeNs: 7000},
	})
	tbl, _ := db.Table(1)
	db.SetSkew(1, -2500)

	want := map[uint32]uint64{1: 2500, 2: 9500}
	if got := alignedByID(tbl); !maps.Equal(got, want) {
		t.Fatalf("ScanAligned = %v, want %v", got, want)
	}
}
