package tracedb

import (
	"testing"

	"vnettracer/internal/core"
)

func rec(tpid, traceID uint32, t uint64) core.Record {
	return core.Record{TPID: tpid, TraceID: traceID, TimeNs: t}
}

// collect and collectAligned materialize a table through the streaming
// interface — test-only convenience now that All/AlignedAll are gone.
func collect(t *Table) []core.Record {
	var out []core.Record
	t.Scan(func(r core.Record) bool { out = append(out, r); return true })
	return out
}

func collectAligned(t *Table) []core.Record {
	var out []core.Record
	t.ScanAligned(func(r core.Record) bool { out = append(out, r); return true })
	return out
}

func TestCreateTableAndDuplicate(t *testing.T) {
	db := New()
	if _, err := db.CreateTable(1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(1, "b"); err == nil {
		t.Fatal("duplicate table accepted")
	}
}

func TestInsertRoutesByTPID(t *testing.T) {
	db := New()
	db.CreateTable(1, "ingress")
	db.CreateTable(2, "egress")
	db.Insert([]core.Record{rec(1, 10, 100), rec(2, 10, 200), rec(1, 11, 150)})
	t1, _ := db.Table(1)
	t2, _ := db.Table(2)
	if t1.Len() != 2 || t2.Len() != 1 {
		t.Fatalf("lens = %d %d", t1.Len(), t2.Len())
	}
}

func TestInsertAutoCreatesTable(t *testing.T) {
	db := New()
	db.Insert([]core.Record{rec(9, 1, 1)})
	tbl, ok := db.Table(9)
	if !ok || tbl.Len() != 1 {
		t.Fatal("auto-created table missing")
	}
	if got := db.Tables(); len(got) != 1 || got[0] != 9 {
		t.Fatalf("Tables = %v", got)
	}
}

func TestByTraceIDIndex(t *testing.T) {
	db := New()
	db.CreateTable(1, "t")
	db.Insert([]core.Record{rec(1, 5, 10), rec(1, 6, 20), rec(1, 5, 30)})
	tbl, _ := db.Table(1)
	got := tbl.ByTraceID(5)
	if len(got) != 2 || got[0].TimeNs != 10 || got[1].TimeNs != 30 {
		t.Fatalf("ByTraceID = %+v", got)
	}
	if got := tbl.ByTraceID(99); len(got) != 0 {
		t.Fatalf("missing id found: %+v", got)
	}
	ids := Merge(tbl).TraceIDs()
	if len(ids) != 2 || ids[0] != 5 || ids[1] != 6 {
		t.Fatalf("TraceIDs = %v", ids)
	}
}

func TestSkewAlignment(t *testing.T) {
	db := New()
	db.CreateTable(1, "remote")
	db.Insert([]core.Record{rec(1, 5, 1000)})
	db.SetSkew(1, 300)
	tbl, _ := db.Table(1)
	all := collectAligned(tbl)
	if all[0].TimeNs != 700 {
		t.Fatalf("aligned scan = %d", all[0].TimeNs)
	}
	// Raw data unchanged.
	if collect(tbl)[0].TimeNs != 1000 {
		t.Fatal("Scan must return raw timestamps")
	}
}

func TestIncomplete(t *testing.T) {
	db := New()
	db.CreateTable(1, "a")
	db.CreateTable(2, "b")
	db.Insert([]core.Record{rec(1, 10, 1), rec(1, 11, 2), rec(1, 12, 3), rec(2, 10, 4), rec(2, 12, 5)})
	ta, _ := db.Table(1)
	tb, _ := db.Table(2)
	a, b := Merge(ta), Merge(tb)
	missing := a.Incomplete(b)
	if len(missing) != 1 || missing[0] != 11 {
		t.Fatalf("Incomplete = %v", missing)
	}
	if got := b.Incomplete(a); len(got) != 0 {
		t.Fatalf("reverse Incomplete = %v", got)
	}
	// Untraced records (ID 0) on one side only are not a missing packet.
	db.Insert([]core.Record{rec(2, 0, 6), rec(2, 0, 7)})
	if got := b.Incomplete(a); len(got) != 0 {
		t.Fatalf("Incomplete counts untraced records as a packet: %v", got)
	}
}

func TestHeartbeatsAndDeadAgents(t *testing.T) {
	db := New()
	db.AdmitBatch("agent-1", 0, 0, 0, 1000, 0)
	db.AdmitBatch("agent-2", 0, 0, 0, 8000, 0)
	dead := db.DeadAgents(10000, 3000)
	if len(dead) != 1 || dead[0] != "agent-1" {
		t.Fatalf("dead = %v", dead)
	}
	db.AdmitBatch("agent-1", 0, 0, 0, 9000, 0)
	if got := db.DeadAgents(10000, 3000); len(got) != 0 {
		t.Fatalf("dead after refresh = %v", got)
	}
	if got := db.Agents(); len(got) != 2 {
		t.Fatalf("agents = %v", got)
	}
}

func TestScanYieldsCopies(t *testing.T) {
	db := New()
	db.CreateTable(1, "t")
	db.Insert([]core.Record{rec(1, 5, 10)})
	tbl, _ := db.Table(1)
	all := collect(tbl)
	all[0].TimeNs = 999
	if collect(tbl)[0].TimeNs != 10 {
		t.Fatal("Scan exposed internal storage")
	}
}
