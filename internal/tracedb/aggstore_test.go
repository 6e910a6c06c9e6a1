package tracedb

import (
	"reflect"
	"testing"
)

func aggFrame(pkts, bytes uint64) []ScriptAgg {
	return []ScriptAgg{{
		Script:   "s",
		Counters: []uint64{pkts, bytes},
		Hist:     []uint64{0, pkts},
		Flows: []FlowAgg{
			{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17, Packets: pkts, Bytes: bytes},
		},
	}}
}

func TestAggStoreMergeOnIngest(t *testing.T) {
	db, s := New(), NewAggStore()
	d := Unlogged(db, s)
	if st := d.AdmitAggFrame("a", 1, 1, aggFrame(10, 1000), 5, 0); st != BatchFresh {
		t.Fatalf("first frame: %v", st)
	}
	if st := d.AdmitAggFrame("a", 1, 2, aggFrame(5, 500), 6, 0); st != BatchFresh {
		t.Fatalf("second frame: %v", st)
	}
	got, ok := s.Get("s")
	if !ok {
		t.Fatal("script missing")
	}
	want := ScriptAgg{
		Script:   "s",
		Counters: []uint64{15, 1500},
		Hist:     []uint64{0, 15},
		Flows: []FlowAgg{
			{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 17, Packets: 15, Bytes: 1500},
		},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("merged state:\n got %+v\nwant %+v", got, want)
	}
	if names := s.Scripts(); len(names) != 1 || names[0] != "s" {
		t.Fatalf("scripts: %v", names)
	}
}

func TestAggStoreDuplicateFrameNotDoubleCounted(t *testing.T) {
	db, s := New(), NewAggStore()
	d := Unlogged(db, s)
	d.AdmitAggFrame("a", 1, 1, aggFrame(10, 1000), 5, 0)
	if st := d.AdmitAggFrame("a", 1, 1, aggFrame(10, 1000), 7, 0); st != BatchDuplicate {
		t.Fatalf("retry: %v", st)
	}
	got, _ := s.Get("s")
	if got.Counters[0] != 10 {
		t.Fatalf("duplicate merged: packets = %d, want 10", got.Counters[0])
	}
	tot := s.Totals()
	if tot.FramesMerged != 1 || tot.FramesDup != 1 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestAggStoreEpochFencing(t *testing.T) {
	db, s := New(), NewAggStore()
	d := Unlogged(db, s)
	d.AdmitAggFrame("a", 1, 1, aggFrame(10, 1000), 5, 0)
	// Restarted agent: new epoch, seq restarts.
	if st := d.AdmitAggFrame("a", 2, 1, aggFrame(3, 300), 9, 0); st != BatchFresh {
		t.Fatalf("new-epoch frame: %v", st)
	}
	// Zombie from epoch 1 with a never-ingested seq: fenced, not merged.
	if st := d.AdmitAggFrame("a", 1, 2, aggFrame(99, 9900), 10, 0); st != BatchFenced {
		t.Fatalf("zombie frame: %v", st)
	}
	got, _ := s.Get("s")
	if got.Counters[0] != 13 {
		t.Fatalf("fenced frame merged: packets = %d, want 13", got.Counters[0])
	}
	led, ok := db.Ledger("a")
	if !ok || led.Epoch != 2 || led.FencedBatches != 1 {
		t.Fatalf("ledger: %+v ok=%v", led, ok)
	}
	// A frame is admitted with payload 0: FencedRecords counts records
	// only, whatever rows the zombie frame carried.
	if led.FencedRecords != 0 {
		t.Fatalf("fenced records = %d, want 0", led.FencedRecords)
	}
	if tot := s.Totals(); tot.FramesFenced != 1 {
		t.Fatalf("totals: %+v", tot)
	}
}

func TestAggStoreFlowsSortedAndIsolated(t *testing.T) {
	db, s := New(), NewAggStore()
	d := Unlogged(db, s)
	first := ScriptAgg{
		Script: "s",
		Flows: []FlowAgg{
			{SrcIP: 9, DstIP: 1, Packets: 1, Bytes: 10},
			{SrcIP: 1, DstIP: 5, Packets: 2, Bytes: 20},
			{SrcIP: 1, DstIP: 2, Packets: 3, Bytes: 30},
		},
	}
	d.AdmitAggFrame("a", 0, 1, []ScriptAgg{first}, 1, 0)
	got, _ := s.Get("s")
	if len(got.Flows) != 3 || got.Flows[0].DstIP != 2 || got.Flows[1].DstIP != 5 || got.Flows[2].SrcIP != 9 {
		t.Fatalf("flows not sorted: %+v", got.Flows)
	}
	// Mutating the snapshot must not leak into the store.
	got.Flows[0].Packets = 999
	again, _ := s.Get("s")
	if again.Flows[0].Packets != 3 {
		t.Fatalf("snapshot aliases store: %+v", again.Flows[0])
	}

	// The v5 decoder accepts flow rows that are unsorted and repeat a
	// 5-tuple. Such a frame folds like any other: Get, MergeAggs of the
	// same parts and Totals' count of distinct 5-tuples agree.
	frame, err := AppendScriptAggs(nil, []ScriptAgg{{
		Script: "s",
		Flows: []FlowAgg{
			{SrcIP: 1, DstIP: 5, Packets: 4, Bytes: 40},
			{SrcIP: 7, DstIP: 7, Packets: 1, Bytes: 1},
			{SrcIP: 1, DstIP: 5, Packets: 5, Bytes: 50},
			{SrcIP: 1, DstIP: 2, SrcPort: 1, Packets: 6, Bytes: 60},
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := DecodeScriptAggs(frame, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st := d.AdmitAggFrame("a", 0, 2, second, 2, 0); st != BatchFresh {
		t.Fatalf("second frame: %v", st)
	}
	want := []FlowAgg{
		{SrcIP: 1, DstIP: 2, Packets: 3, Bytes: 30},
		{SrcIP: 1, DstIP: 2, SrcPort: 1, Packets: 6, Bytes: 60},
		{SrcIP: 1, DstIP: 5, Packets: 11, Bytes: 110},
		{SrcIP: 7, DstIP: 7, Packets: 1, Bytes: 1},
		{SrcIP: 9, DstIP: 1, Packets: 1, Bytes: 10},
	}
	got, _ = s.Get("s")
	if !reflect.DeepEqual(got.Flows, want) {
		t.Fatalf("Get flows = %+v, want %+v", got.Flows, want)
	}
	if merged := MergeAggs(first, second[0]); !reflect.DeepEqual(merged, got) {
		t.Fatalf("MergeAggs = %+v, Get = %+v", merged, got)
	}
	if n := s.Totals().Flows; n != len(want) {
		t.Fatalf("Totals().Flows = %d, want %d distinct 5-tuples", n, len(want))
	}
}
