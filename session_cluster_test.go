package vnettracer

// The N = 1 vs N = 3 oracle: one seeded workload over three machines runs
// through a one-collector session and through a three-collector session
// that re-homes one machine's agent off a failed collector and kills and
// recovers a durable collector mid-run. Collector scale-out and both
// lifecycle faults must be invisible in every query answer.

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/tracedb"
)

var errCollectorDead = errors.New("collector process dead")

// killableSink fronts one collector incarnation; once killed it refuses
// every delivery, as a dead process would, until recovery replaces it.
type killableSink struct {
	col     *Collector
	dead    bool
	refused int
}

func (k *killableSink) HandleBatch(b RecordBatch) error {
	if k.dead {
		k.refused++
		return errCollectorDead
	}
	return k.col.HandleBatch(b)
}

func (k *killableSink) HandleAgg(b control.AggBatch) error {
	if k.dead {
		k.refused++
		return errCollectorDead
	}
	return k.col.HandleAgg(b)
}

// oracleAnswers is everything the oracle compares.
type oracleAnswers struct {
	Throughput map[string]float64
	PerFlow    map[string][]FlowStats
	Latencies  map[string][]LatencySample
	Lost       map[string]int64
	LossRate   map[string]float64
	Decompose  map[string][]Segment
	Aggregate  map[string]ScriptAgg
	Tables     map[string]tableAnswers
}

// tableAnswers is what Session.Table answers for one machine: its two
// record tables, and the IDs seen at in but never at rx.
type tableAnswers struct {
	In, Rx     tableAnswer
	Incomplete []uint32
}

// tableAnswer is one table's length, scan and per-ID lookups. Records are
// compared as multisets, sorted by a total key, because a k-way merge's
// order is not one partition's insertion order.
type tableAnswer struct {
	Len       int
	Scan      []Record
	ByTraceID map[uint32][]Record
}

// readTable takes one Session.Table answer apart.
func readTable(t *Merged) tableAnswer {
	ans := tableAnswer{Len: t.Len(), ByTraceID: map[uint32][]Record{}}
	t.Scan(func(r Record) bool {
		ans.Scan = append(ans.Scan, r)
		return true
	})
	for _, r := range ans.Scan {
		if _, done := ans.ByTraceID[r.TraceID]; !done {
			ans.ByTraceID[r.TraceID] = sortRecords(t.ByTraceID(r.TraceID))
		}
	}
	sortRecords(ans.Scan)
	return ans
}

// sortRecords orders records by their wire bytes, a total key.
func sortRecords(recs []Record) []Record {
	slices.SortFunc(recs, func(a, b Record) int {
		var ka, kb [core.RecordSize]byte
		a.MarshalTo(ka[:])
		b.MarshalTo(kb[:])
		return bytes.Compare(ka[:], kb[:])
	})
	return recs
}

var oracleMachines = []string{"m0", "m1", "m2"}

// runOracle drives the workload through s. faults, when set, runs at the
// engine times it schedules itself against.
func runOracle(t *testing.T, s *Session, faults func(eng *Engine)) oracleAnswers {
	t.Helper()
	eng := NewEngine(42)
	for i, name := range oracleMachines {
		node := NewNode(eng, NodeConfig{Name: name, NumCPU: 2, TraceIDs: true, Seed: int64(i)})
		machine, err := NewMachine(node, 64*1024)
		if err != nil {
			t.Fatal(err)
		}
		// ingress -> lossy (slow, small queue) -> local delivery, so the
		// loss metric has something to count.
		lossy := NewNetDev(eng, NetDevConfig{Name: "lossy0", Ifindex: 2, QueueCap: 6,
			ProcNs: func(*Packet) int64 { return 150 * Microsecond }, Out: node.DeliverLocal})
		ingress := NewNetDev(eng, NetDevConfig{Name: "in0", Ifindex: 1,
			ProcNs: func(*Packet) int64 { return 1000 }, Out: lossy.Receive})
		for _, d := range []*NetDev{ingress, lossy} {
			if err := machine.RegisterDevice(d); err != nil {
				t.Fatal(err)
			}
		}
		node.Egress = ingress.Receive
		if _, err := s.AddMachine(machine); err != nil {
			t.Fatal(err)
		}
		filter := Filter{Proto: ProtoUDP, DstPort: 9000}
		if _, err := s.InstallPackage(name, ControlPackage{Install: []TraceSpec{
			{Name: name + "/in", Attach: AttachPoint{Kind: AttachDevice, Device: "in0", Dir: Ingress},
				Filter: filter, Actions: []Action{ActionRecord}},
			{Name: name + "/rx", Attach: AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg},
				Filter: filter, Actions: []Action{ActionRecord}},
			{Name: name + "/agg", Attach: AttachPoint{Kind: AttachKProbe, Site: SiteUDPRecvmsg},
				Filter: filter, Actions: []Action{ActionCount, ActionCPUHist}},
		}, ShipAggregates: true}); err != nil {
			t.Fatal(err)
		}
		if err := s.SetSkew(name+"/rx", int64(i)*3*Microsecond); err != nil {
			t.Fatal(err)
		}
		srv := SockAddr{IP: MustParseIP("10.0.0.1"), Port: 9000}
		if _, err := node.Open(ProtoUDP, srv, func(*Packet) {}); err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 2; c++ {
			cli, err := node.Open(ProtoUDP, SockAddr{IP: MustParseIP("10.0.0.1"), Port: uint16(40000 + c)}, nil)
			if err != nil {
				t.Fatal(err)
			}
			for k := 0; k < 150; k++ {
				at := int64(k/10)*20*Millisecond + int64(i*7+c*3)*Microsecond // bursts of 10
				eng.Schedule(at, func() {
					if _, err := cli.Send(srv, 64+8*c); err != nil {
						t.Errorf("send: %v", err)
					}
				})
			}
		}
	}
	s.StartFlushing(5 * Millisecond)
	if faults != nil {
		faults(eng)
	}
	eng.Run(320 * Millisecond)
	for _, name := range oracleMachines {
		a, _ := s.Agent(name)
		a.StopFlushing()
	}
	for round := 0; round < 8; round++ {
		if err := s.Flush(); err != nil {
			t.Fatalf("quiesce flush: %v", err)
		}
	}

	ans := oracleAnswers{
		Throughput: map[string]float64{}, PerFlow: map[string][]FlowStats{},
		Latencies: map[string][]LatencySample{}, Lost: map[string]int64{}, LossRate: map[string]float64{},
		Decompose: map[string][]Segment{}, Aggregate: map[string]ScriptAgg{},
		Tables: map[string]tableAnswers{},
	}
	q := s.Query()
	for _, name := range oracleMachines {
		in, rx := name+"/in", name+"/rx"
		ids, err := s.tpids(in, rx)
		if err != nil {
			t.Fatal(err)
		}
		var errs [8]error
		var inT, rxT *Merged
		ans.Throughput[name], errs[0] = s.Throughput(in)
		ans.PerFlow[name], errs[1] = s.PerFlowThroughput(rx)
		ans.Latencies[name], errs[2] = q.Latencies(ids[0], ids[1])
		ans.Lost[name], ans.LossRate[name], errs[3] = q.Loss(ids[0], ids[1])
		ans.Decompose[name], errs[4] = s.Decompose(in, rx)
		agg, ok := q.Aggregate(name + "/agg")
		if !ok {
			errs[5] = fmt.Errorf("no aggregates for %s", name)
		}
		ans.Aggregate[name] = agg
		inT, errs[6] = s.Table(in)
		rxT, errs[7] = s.Table(rx)
		if err := errors.Join(errs[:]...); err != nil {
			t.Fatal(err)
		}
		ans.Tables[name] = tableAnswers{In: readTable(inT), Rx: readTable(rxT), Incomplete: inT.Incomplete(rxT)}
		if ans.Lost[name] == 0 || len(ans.Latencies[name]) == 0 {
			t.Fatalf("%s: lost %d, %d latency samples — the workload proves nothing", name, ans.Lost[name], len(ans.Latencies[name]))
		}
	}
	return ans
}

func TestSessionOneVsThreeCollectors(t *testing.T) {
	one := NewSession()
	want := runOracle(t, one, nil)

	dir := t.TempDir()
	three := NewClusterSession()
	sinks := map[string]*killableSink{}
	for c := 0; c < 3; c++ {
		sub := filepath.Join(dir, fmt.Sprintf("col-%d", c))
		if _, err := three.AddCollector(
			StoreConfig{SegmentBytes: 4096, DataDir: filepath.Join(sub, "data")},
			DurabilityConfig{Dir: filepath.Join(sub, "wal"), Fsync: tracedb.FsyncNever},
			func(name string, col *Collector) RecordSink {
				sinks[name] = &killableSink{col: col}
				return sinks[name]
			}); err != nil {
			t.Fatal(err)
		}
	}
	defer three.Close()
	var moves []control.Rehome
	var victim string
	var refused int
	var rec tracedb.RecoveryStats
	got := runOracle(t, three, func(eng *Engine) {
		eng.Schedule(90*Millisecond, func() {
			home, _ := three.Dispatcher().Home("m0")
			var err error
			if moves, err = three.FailCollector(home); err != nil {
				t.Error(err)
			}
		})
		eng.Schedule(150*Millisecond, func() {
			victim, _ = three.Dispatcher().Home("m1")
			sinks[victim].dead = true
		})
		eng.Schedule(200*Millisecond, func() {
			refused = sinks[victim].refused
			var err error
			if _, rec, err = three.RecoverCollector(victim); err != nil {
				t.Error(err)
			}
		})
	})
	if len(moves) == 0 || refused == 0 || rec.ReplayedRecords == 0 {
		t.Fatalf("faults never engaged: %d re-homes, %d refused deliveries, %d replayed records",
			len(moves), refused, rec.ReplayedRecords)
	}
	// The re-homed machine's records are split across collectors.
	m, _ := three.Query().Table(three.labels["m0/in"])
	split := 0
	for i := 0; i < m.Parts(); i++ {
		if m.Part(i).Len() > 0 {
			split++
		}
	}
	if split < 2 {
		t.Fatalf("m0's ingress records sit in %d partitions, want a split across >= 2", split)
	}

	if !reflect.DeepEqual(got, want) {
		for _, name := range oracleMachines {
			for what, eq := range map[string]bool{
				"throughput":    got.Throughput[name] == want.Throughput[name],
				"per-flow":      reflect.DeepEqual(got.PerFlow[name], want.PerFlow[name]),
				"latencies":     reflect.DeepEqual(got.Latencies[name], want.Latencies[name]),
				"loss":          got.Lost[name] == want.Lost[name] && got.LossRate[name] == want.LossRate[name],
				"decomposition": reflect.DeepEqual(got.Decompose[name], want.Decompose[name]),
				"aggregates":    reflect.DeepEqual(got.Aggregate[name], want.Aggregate[name]),
				"table":         reflect.DeepEqual(got.Tables[name], want.Tables[name]),
			} {
				if !eq {
					t.Errorf("%s: %s differs between one and three collectors", name, what)
				}
			}
		}
		t.Fatal("three collectors with a re-home and a recovery answer differently from one")
	}
}
