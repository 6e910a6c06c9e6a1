package vnettracer

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// scheduler policy behind case study II, the NAPI batch depth behind case
// study III's softirq ratio, the kernel trace-buffer size and flush
// cadence behind the paper's efficiency section, and the eBPF execution
// cost model behind the overhead figures.

import (
	"fmt"
	"testing"

	"sync/atomic"

	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/hyper"
	"vnettracer/internal/kernel"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// benchBatch builds a record batch like an agent flush produces.
func benchBatch(n int, tables uint32) control.RecordBatch {
	recs := make([]core.Record, n)
	for i := range recs {
		recs[i] = core.Record{
			TraceID: uint32(i + 1), TPID: uint32(i)%tables + 1,
			TimeNs: uint64(1000 * i), Len: 100, CPU: uint32(i % 4),
			Seq: uint64(i), SrcIP: 0x0a000001, DstIP: 0x0a000002,
			SrcPort: 40000, DstPort: 9000, Proto: 17, Dir: 1,
		}
	}
	return control.RecordBatch{Agent: "agent0", AgentTimeNs: 123456789, Records: recs, RingDrops: 3}
}

// BenchmarkBatchWireEncoding measures the v4 binary batch frame and the
// agent flush that feeds it, at the 2048-record batch of the pipeline
// benchmark's records-bulk workload:
//   - encode: AppendBatchFrame into a recycled buffer, and the bytes per
//     record on the wire (the fixed 48-byte record behind a 41-byte
//     header, so at or under 52 amortized);
//   - decode: DecodeBatchFrame of a body placed as the TCP server's
//     readBody places it, its record section aligned;
//   - agent-flush: the ring drain into the batch's record array, through
//     the spool to a sink that keeps nothing (the ring refill is outside
//     the clock).
//
// Each reports ns/record beside ns/op.
func BenchmarkBatchWireEncoding(b *testing.B) {
	const recordsPerBatch = 2048
	batch := benchBatch(recordsPerBatch, 4)
	perRecord := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/recordsPerBatch, "ns/record")
	}
	body, err := control.EncodeBatchFrame(&batch)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(body))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if buf, err = control.AppendBatchFrame(buf[:0], &batch); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
		b.ReportMetric(float64(4+len(buf))/recordsPerBatch, "wire-bytes/record")
	})

	b.Run("decode", func(b *testing.B) {
		section := len(body) - recordsPerBatch*core.RecordSize
		spare := make([]byte, len(body)+core.RecordAlign-1)
		pad := core.AlignPad(spare[section:])
		placed := spare[pad : pad+len(body)]
		copy(placed, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := control.DecodeBatchFrame(placed); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})

	b.Run("agent-flush", func(b *testing.B) {
		const cpus = 4
		node := kernel.NewNode(sim.NewEngine(1), kernel.NodeConfig{Name: "bench", NumCPU: cpus})
		machine, err := core.NewMachine(node, 64<<10)
		if err != nil {
			b.Fatal(err)
		}
		agent := control.NewAgent("agent0", machine, discardSink{})
		wire := core.RecordBytes(batch.Records)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for off := 0; off < len(wire); off += core.RecordSize {
				machine.Ring.Emit(uint32(off/core.RecordSize)%cpus, wire[off:off+core.RecordSize])
			}
			b.StartTimer()
			if err := agent.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		perRecord(b)
	})
}

// discardSink acknowledges every batch and keeps nothing.
type discardSink struct{}

func (discardSink) HandleBatch(control.RecordBatch) error { return nil }

// BenchmarkCollectorIngest measures the sharded store's ingest path over
// batches spread across several tracepoint tables: one transport
// goroutine inserting inline, many inserting concurrently (per-table
// locks — the sharding win), and the bounded queue drained by workers
// (drops under overload are reported, not hidden).
func BenchmarkCollectorIngest(b *testing.B) {
	const recordsPerBatch = 128
	batch := benchBatch(recordsPerBatch, 8)

	b.Run("inline-1producer", func(b *testing.B) {
		col := control.NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col.HandleBatch(batch)
		}
	})

	b.Run("inline-parallel", func(b *testing.B) {
		// Each producer traces a disjoint set of tracepoints, so per-table
		// locks let their inserts proceed without serializing — the case
		// the old single DB mutex forced into lockstep.
		col := control.NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
		var producer atomic.Uint32
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			p := producer.Add(1)
			mine := benchBatch(recordsPerBatch, 8)
			for i := range mine.Records {
				mine.Records[i].TPID += p * 100
			}
			for pb.Next() {
				col.HandleBatch(mine)
			}
		})
	})

	b.Run("queued-workers4", func(b *testing.B) {
		col := control.NewCollectorWith(tracedb.New(), tracedb.NewAggStore())
		col.StartIngest(4, 4096)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			col.HandleBatch(batch)
		}
		col.StopIngest()
		b.StopTimer()
		batches, _, _ := col.Stats()
		_, dropped := col.IngestStats()
		b.ReportMetric(float64(batches)/float64(batches+dropped)*100, "ingested-%")
	})
}

// BenchmarkAblationSchedulerPolicy reports the mean vCPU wake-to-run delay
// for an I/O VM sharing a core with a CPU hog under each policy — the
// quantity case study II traces.
func BenchmarkAblationSchedulerPolicy(b *testing.B) {
	cases := []struct {
		name string
		cfg  hyper.Config
		hog  bool
	}{
		{"credit2-ratelimit1000us", hyper.Config{Policy: hyper.Credit2, RatelimitNs: 1000 * sim.Microsecond, CreditInitNs: 10 * sim.Millisecond}, true},
		{"credit2-ratelimit0", hyper.Config{Policy: hyper.Credit2, RatelimitNs: 0, CreditInitNs: 10 * sim.Millisecond}, true},
		{"credit1-ratelimit1000us", hyper.Config{Policy: hyper.Credit1, RatelimitNs: 1000 * sim.Microsecond, CreditInitNs: 10 * sim.Millisecond}, true},
		{"credit1-boost-ratelimit0", hyper.Config{Policy: hyper.Credit1, RatelimitNs: 0, CreditInitNs: 10 * sim.Millisecond}, true},
		{"pinned", hyper.Config{Policy: hyper.Pinned, RatelimitNs: 1000 * sim.Microsecond, CreditInitNs: 10 * sim.Millisecond}, false},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			var mean float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(5)
				p := hyper.NewPCPU(eng, tc.cfg)
				if tc.hog {
					p.AddVCPU("hog", 256, true)
				}
				io := p.AddVCPU("io", 256, false)
				for k := 0; k < 500; k++ {
					at := int64(k) * 300 * sim.Microsecond
					eng.Schedule(at, func() { io.Submit(5*sim.Microsecond, func() {}) })
				}
				eng.Run(600 * 300 * sim.Microsecond)
				mean = float64(io.MeanWakeDelayNs()) / 1e3
			}
			b.ReportMetric(mean, "wake-delay-us")
		})
	}
}

// BenchmarkAblationNAPIBudget sweeps the NIC poll batch depth and reports
// softirq invocations per 1000 packets — the knob behind Fig 13(a)'s rate
// ratio.
func BenchmarkAblationNAPIBudget(b *testing.B) {
	for _, budget := range []int{1, 4, 7, 16, 64} {
		b.Run(fmt.Sprintf("budget%d", budget), func(b *testing.B) {
			var perK float64
			for i := 0; i < b.N; i++ {
				eng := sim.NewEngine(3)
				node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
				dev := vnet.NewNetDev(eng, vnet.NetDevConfig{Name: "eth0", Ifindex: 2})
				const pkts = 1000
				for k := 0; k < pkts; k++ {
					// 500 kpps arrival: fast enough that the CPU stays busy.
					at := int64(k) * 2 * sim.Microsecond
					eng.Schedule(at, func() {
						p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{SrcPort: 1, DstPort: 2}}
						node.SoftirqNetRXNAPI(p, dev, budget, func(*vnet.Packet) {})
					})
				}
				eng.RunUntilIdle()
				perK = float64(node.SoftirqTotal)
			}
			b.ReportMetric(perK, "softirqs-per-1000pkts")
		})
	}
}

// ablationRig fires a record script at a kprobe site n times and reports
// how many records the ring buffer kept.
func ablationRig(b *testing.B, bufferBytes int, flushEveryNs int64, events int) (kept uint64, drops uint64) {
	b.Helper()
	eng := sim.NewEngine(7)
	node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
	machine, err := core.NewMachine(node, bufferBytes)
	if err != nil {
		b.Fatal(err)
	}
	c, err := script.Compile(script.Spec{
		Name: "rec", TPID: 1, Actions: []script.Action{script.ActionRecord},
	})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := machine.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, core.DefaultCostModel()); err != nil {
		b.Fatal(err)
	}
	horizon := int64(events)*10*sim.Microsecond + sim.Millisecond
	if flushEveryNs > 0 {
		var flush func()
		flush = func() {
			machine.Ring.Drain()
			if eng.Now() < horizon {
				eng.Schedule(flushEveryNs, flush)
			}
		}
		eng.Schedule(flushEveryNs, flush)
	}
	for k := 0; k < events; k++ {
		at := int64(k) * 10 * sim.Microsecond // 100k events/s
		eng.Schedule(at, func() {
			p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{SrcPort: 1, DstPort: 2}, TraceID: 1}
			node.Probes.Fire(&kernel.ProbeCtx{Site: kernel.SiteUDPRecvmsg, Pkt: p, TimeNs: node.Clock.NowNs()})
		})
	}
	eng.Run(horizon)
	machine.Ring.Drain()
	return machine.Ring.Writes(), machine.Ring.Drops()
}

// BenchmarkAblationBufferSize sweeps the kernel trace-buffer size (the
// paper's 32 B .. 128 KiB-16 range) at a fixed 10 ms flush interval and
// reports the record drop rate at 100k events/s.
func BenchmarkAblationBufferSize(b *testing.B) {
	for _, size := range []int{core.MinBufferBytes, 1 << 10, 1 << 14, core.MaxBufferBytes} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				kept, drops := ablationRig(b, size, 10*sim.Millisecond, 20000)
				rate = float64(drops) / float64(kept+drops) * 100
			}
			b.ReportMetric(rate, "drop-%")
		})
	}
}

// BenchmarkAblationFlushInterval contrasts online (frequent flush) with
// offline (flush only at the end) collection, the trade-off of Section
// III-C.
func BenchmarkAblationFlushInterval(b *testing.B) {
	for _, tc := range []struct {
		name    string
		flushNs int64
	}{
		{"online-1ms", sim.Millisecond},
		{"online-10ms", 10 * sim.Millisecond},
		{"offline", 0},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				kept, drops := ablationRig(b, 16<<10, tc.flushNs, 20000)
				rate = float64(drops) / float64(kept+drops) * 100
			}
			b.ReportMetric(rate, "drop-%")
		})
	}
}

// BenchmarkAblationCostModel compares the per-event tracing cost charged
// to the packet path under a JIT-like model (the default), a slower
// interpreter, and a SystemTap-like heavyweight model. This is the single
// number that separates Figure 7(b)'s three curves.
func BenchmarkAblationCostModel(b *testing.B) {
	models := []struct {
		name string
		cm   core.CostModel
	}{
		{"jit", core.DefaultCostModel()},
		{"interpreter-4x", core.CostModel{BaseNs: 80, InsnNs: 8, HelperNs: 60}},
		{"systemtap-like", core.CostModel{BaseNs: 3000, InsnNs: 8, HelperNs: 60}},
	}
	for _, tc := range models {
		b.Run(tc.name, func(b *testing.B) {
			eng := sim.NewEngine(1)
			node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 1})
			machine, err := core.NewMachine(node, core.MaxBufferBytes)
			if err != nil {
				b.Fatal(err)
			}
			c, err := script.Compile(script.Spec{
				Name: "rec", TPID: 1, Actions: []script.Action{script.ActionRecord},
			})
			if err != nil {
				b.Fatal(err)
			}
			h, err := machine.Attach(c.Prog, core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg}, tc.cm)
			if err != nil {
				b.Fatal(err)
			}
			p := &vnet.Packet{IP: vnet.IPv4Header{Protocol: vnet.ProtoUDP}, UDP: &vnet.UDPHeader{}, TraceID: 1}
			pc := &kernel.ProbeCtx{Site: kernel.SiteUDPRecvmsg, Pkt: p}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				node.Probes.Fire(pc)
				if machine.Ring.Used() > core.MaxBufferBytes-core.RecordSize {
					machine.Ring.Drain()
				}
			}
			st := h.Stats()
			b.ReportMetric(float64(st.CostNs)/float64(st.Invocations), "sim-ns-per-event")
		})
	}
}

// BenchmarkAblationScriptCount measures how sockperf latency overhead
// scales with the number of trace scripts attached along the path — the
// marginal cost of each additional script is what makes vNetTracer's
// "rich set of metrics" affordable.
func BenchmarkAblationScriptCount(b *testing.B) {
	run := func(scripts int) float64 {
		eng := sim.NewEngine(9)
		node := kernel.NewNode(eng, kernel.NodeConfig{Name: "n", NumCPU: 2, TraceIDs: true})
		machine, err := core.NewMachine(node, core.MaxBufferBytes)
		if err != nil {
			b.Fatal(err)
		}
		dev := vnet.NewNetDev(eng, vnet.NetDevConfig{
			Name: "lo0", Ifindex: 1,
			ProcNs: func(*vnet.Packet) int64 { return 2000 },
			Out:    node.DeliverLocal,
		})
		if err := machine.RegisterDevice(dev); err != nil {
			b.Fatal(err)
		}
		node.Egress = dev.Receive
		for k := 0; k < scripts; k++ {
			c, err := script.Compile(script.Spec{
				Name: fmt.Sprintf("s%d", k), TPID: uint32(k + 1),
				Filter:  script.Filter{Proto: vnet.ProtoUDP, DstPort: 9000},
				Actions: []script.Action{script.ActionRecord},
			})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := machine.Attach(c.Prog,
				core.AttachPoint{Kind: core.AttachDevice, Device: "lo0", Dir: vnet.Ingress},
				core.DefaultCostModel()); err != nil {
				b.Fatal(err)
			}
		}
		var sum int64
		var got int
		if _, err := node.Open(vnet.ProtoUDP, kernel.SockAddr{Port: 9000}, func(p *vnet.Packet) {
			sum += eng.Now() - p.SentAt
			got++
		}); err != nil {
			b.Fatal(err)
		}
		cli, err := node.Open(vnet.ProtoUDP, kernel.SockAddr{IP: 1, Port: 40000}, nil)
		if err != nil {
			b.Fatal(err)
		}
		const pings = 500
		for k := 0; k < pings; k++ {
			eng.Schedule(int64(k)*100*sim.Microsecond, func() {
				cli.Send(kernel.SockAddr{IP: 2, Port: 9000}, 64)
				if machine.Ring.Used() > core.MaxBufferBytes/2 {
					machine.Ring.Drain()
				}
			})
		}
		eng.RunUntilIdle()
		return float64(sum) / float64(got)
	}
	base := run(0)
	for _, n := range []int{1, 2, 4, 8} {
		n := n
		b.Run(fmt.Sprintf("scripts%d", n), func(b *testing.B) {
			var overhead float64
			for i := 0; i < b.N; i++ {
				overhead = (run(n) - base) / base * 100
			}
			b.ReportMetric(overhead, "latency-overhead-%")
		})
	}
}
