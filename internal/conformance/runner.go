package conformance

import (
	"fmt"
	"os"
	"path/filepath"

	"vnettracer"
	"vnettracer/internal/clocksync"
	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/kernel"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
	"vnettracer/internal/vnet"
)

// Clock-sync probing: each agent exchanges syncSamples Cristian samples
// with the master (the engine's true clock) during the first
// ~syncSamples*syncSpacingNs of the run, before the workload starts.
const (
	syncSamples   = 25
	syncSpacingNs = 40 * sim.Microsecond
)

// collectorState is the harness's view of one collector of the session's
// tier: its current incarnation and the fault-injecting sink agents ship
// to, both handed over by the session's sink seam at every (re)open.
// Durable scenarios add the bookkeeping a kill/recover fault needs: the
// in-memory counters the crash destroys (monitoring state a real process
// loses, which the harness folds back into the cluster reconciliation)
// and the crash-instant snapshots the recovery-fidelity checks compare
// against.
type collectorState struct {
	name string
	col  *control.Collector
	sink *faultSink

	// failed marks the fail fault's victim, declared dead and re-homed
	// away; wasCrashed marks the kill fault fired here; recovered marks
	// the rebuild completed (the sink is fresh, so sink.crashed is false
	// again afterwards).
	failed     bool
	wasCrashed bool
	recovered  bool

	// lost* snapshot the collector's in-memory ingest counters at the
	// crash instant. Recovery rebuilds the store and ledgers from disk
	// but process-local counters legitimately restart at zero, so the
	// invariants add these back when reconciling cluster-wide totals.
	lostBatches, lostRecords, lostRingDrops uint64
	lostDupBatches, lostDupRecords          uint64
	// aggLost holds the aggregate-store counter deltas the crash dropped
	// (dup/fenced bookkeeping since the last checkpoint is deliberately
	// transient; merged totals must survive exactly).
	aggLost tracedb.AggTotals

	// Crash-instant ground truth for the recovery-fidelity checks.
	preRecords uint64
	preTotals  tracedb.AggTotals
	preLedgers map[string]tracedb.AgentLedger

	// notes collects recovery-fidelity violations found at fault time;
	// check() surfaces them with the other invariants.
	notes []string
}

// agentState is one traced machine in the simulated cluster.
type agentState struct {
	idx     int
	name    string
	machine *core.Machine
	agent   *control.Agent

	// zombie is the pre-kill agent process after a KillAtNs fault: it no
	// longer owns the machine's ring but still holds its delivery spool,
	// and anything it ships carries the stale epoch.
	zombie *control.Agent

	// unattended counts probe fires that hit a site with no program
	// attached (the kill-to-reprovision window) — ground truth the
	// pipeline legitimately never saw.
	unattended uint64

	// fencedBatches/fencedRecords mirror the collector ledger's fence
	// counters for this agent; check() fills them before the per-table
	// and metric passes so cleanliness tests can consult them.
	fencedBatches uint64
	fencedRecords uint64

	// srcTP records udp_send_skb fires, dstTP records udp_recvmsg fires;
	// TPIDs are distinct per agent, so every table belongs to exactly one
	// machine.
	srcTP, dstTP uint32

	// nextPktSeq models the sending stack's per-machine packet counter.
	nextPktSeq uint64

	offsetNs int64
	driftPPB int64

	samples []clocksync.Sample
	est     clocksync.Estimate
	// skewTolNs bounds the residual alignment error after skew
	// correction: Cristian's half-best-RTT ambiguity plus drift
	// accumulated over the horizon.
	skewTolNs int64
}

// tableTruth is the workload's ground truth for one record table.
type tableTruth struct {
	fires   uint64
	bytes   uint64 // sum of per-record payload bytes (WireLen - trace ID)
	perFlow map[metrics.FlowKey]uint64
	ids     map[uint32]uint64
	firstNs int64 // engine-truth time of first fire
	lastNs  int64
}

// pathTruth is the ground truth for one src→dst hop (path i runs from
// agent i's send probe to agent (i+1)%N's receive probe).
type pathTruth struct {
	sent    uint64
	dropped uint64
	delays  []int64 // realized transit times of delivered packets
}

type groundTruth struct {
	tables map[uint32]*tableTruth
	paths  []*pathTruth
}

func newGroundTruth(paths int) *groundTruth {
	gt := &groundTruth{tables: make(map[uint32]*tableTruth), paths: make([]*pathTruth, paths)}
	for i := range gt.paths {
		gt.paths[i] = &pathTruth{}
	}
	return gt
}

func (gt *groundTruth) table(tpid uint32) *tableTruth {
	tt, ok := gt.tables[tpid]
	if !ok {
		tt = &tableTruth{perFlow: make(map[metrics.FlowKey]uint64), ids: make(map[uint32]uint64)}
		gt.tables[tpid] = tt
	}
	return tt
}

type flowTuple struct {
	src, dst     vnet.IPv4
	sport, dport uint16
}

func (f flowTuple) key() metrics.FlowKey {
	return metrics.FlowKey{
		SrcIP:   uint32(f.src),
		DstIP:   uint32(f.dst),
		SrcPort: f.sport,
		DstPort: f.dport,
		Proto:   vnet.ProtoUDP,
	}
}

// Result is one conformance run's outcome: the replay digest, the
// per-agent accounting, and every invariant violation found at quiesce.
type Result struct {
	Scenario   Scenario
	Digest     string
	Violations []string
	Agents     []AgentReport

	// Collector-side totals, summed across the tier.
	Batches, Records, RingDrops            uint64
	DupBatches, DupRecords, MissingBatches uint64
	DeliveryAttempts, Rejected, AcksLost   uint64
	FencedBatches, FencedRecords           uint64
	UnattendedFires                        uint64
	OverloadAcks                           uint64

	// PerCollector is the per-collector ingest split (agent moves after a
	// collector failure are Dispatch.Rehomes).
	PerCollector []CollectorReport

	// Aggregate-frame totals (ShipAggregates scenarios).
	AggFramesMerged, AggFramesDup, AggFramesFenced uint64
	AggRowsMerged, AggRejected                     uint64
	// OutageSpooledFrames counts frames spooled at the last instant of a
	// sink outage: held back by it, and shipped later (checkAggregates).
	OutageSpooledFrames uint64

	// Dispatch snapshots the dispatcher's counters (pushes, retries,
	// re-provisions, re-homes) at quiesce.
	Dispatch control.DispatcherStats

	// Storage aggregates the trace store's segment accounting at quiesce
	// (after heads seal), so runs can assert on residency and spill.
	Storage tracedb.StorageStats

	// Durable-collector recovery accounting (Durable scenarios with a
	// kill/recover fault). CrashSpooled* capture the agent-side backlog
	// outstanding at the crash instant; DupAfterRecovery counts re-shipped
	// batches the recovered collector deduped against its WAL-replayed
	// ledgers; Recovery is the rebuilt collector's replay accounting.
	RecoveredCollectors int
	CrashSpooledBatches uint64
	CrashSpooledFrames  uint64
	DupAfterRecovery    uint64
	Recovery            tracedb.RecoveryStats
	// CrashRehomedTenants counts the agents the kill victim homed at the
	// crash instant because a collector failure had re-homed them there.
	CrashRehomedTenants uint64
}

// CollectorReport is one collector's share of the run.
type CollectorReport struct {
	Name    string
	Batches uint64
	Records uint64
	Agents  int  // agents homed here at quiesce
	Crashed bool // sink still dead at quiesce
	// Recovered marks a collector that crashed and was rebuilt from its
	// WAL and checkpoints mid-run (its sink is live again at quiesce).
	Recovered bool
}

// AgentReport is the per-machine accounting the invariants reconcile.
type AgentReport struct {
	Name       string
	Fires      uint64 // probe fires = emit attempts (ground truth)
	Unattended uint64 // fires against a detached probe (kill window)
	RingWrites uint64
	RingDrops  uint64
	Stored     uint64 // records landed in this machine's tables
	Spooled    uint64 // records still spooled at quiesce (live agent)
	Evicted    uint64 // records lost to the bounded spool (live agent)
	SkewEstNs  int64
	SkewTrueNs int64

	// Supervision-era accounting.
	Epoch         uint64 // ledger-observed epoch at quiesce
	FencedBatches uint64 // stale-epoch batches the collector rejected
	FencedRecords uint64 // record payload confirmed lost to fencing
	ZombieSpooled uint64 // records still held by the zombie's spool
	ZombieEvicted uint64 // records the zombie's spool evicted

	// Degradation-controller accounting.
	DegradeLevel       uint8
	FlushStretch       int
	Degradations       uint64
	Recoveries         uint64
	StretchedIntervals uint64
	SampleDrops        uint64
}

func (r *Result) violatef(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// Run executes one scenario to quiesce and returns its accounting,
// violations, and replay digest. It never calls testing APIs, so the
// seed-sweep harness and any future CLI can drive it directly.
func Run(sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	res := &Result{Scenario: sc}
	dig := newDigest()
	dig.logf("scenario name=%s seed=%d agents=%d cpus=%d ring=%d packets=%d",
		sc.Name, sc.Seed, sc.Agents, sc.CPUs, sc.RingBytes, sc.Packets)

	eng := sim.NewEngine(sc.Seed)
	dist := sim.NewDist(eng)
	fs := newFaultState(eng, sc, dig)
	spillRoot := sc.SpillDir
	if sc.Durable && spillRoot == "" {
		// Durability needs real files; provision a throwaway root when the
		// scenario didn't bring one (no path leaks into the digest, so the
		// replay fingerprint stays location-independent).
		tmp, err := os.MkdirTemp("", "vnt-conformance-")
		if err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
		}
		defer os.RemoveAll(tmp)
		spillRoot = tmp
	}
	s := vnettracer.NewClusterSession()
	defer s.Close()
	s.Dispatcher().SetJitterSeed(sc.Seed)
	cols := make([]*collectorState, sc.Collectors)
	for c := range cols {
		cs := &collectorState{}
		store, log := collectorDirs(sc, spillRoot, c)
		// Every incarnation of the collector (the first, and one per
		// recovery) comes through here before it serves traffic: the
		// harness fronts it with a fault sink, and a recovered one first
		// has its rebuilt state checked against the crash-instant snapshot.
		if _, err := s.AddCollector(store, log, func(name string, col *control.Collector) control.RecordSink {
			if cs.wasCrashed && !cs.recovered {
				cs.checkRecovery(col)
			}
			cs.name, cs.col, cs.sink = name, col, newFaultSink(name, col, fs)
			return cs.sink
		}); err != nil {
			return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
		}
		cols[c] = cs
	}

	cluster := make([]*agentState, sc.Agents)
	for i := range cluster {
		st, err := buildAgent(sc, i, eng, s)
		if err != nil {
			return nil, err
		}
		cluster[i] = st
	}

	truth := newGroundTruth(sc.Agents)
	scheduleClockSync(sc, eng, dist, cluster)
	if err := scheduleWorkload(sc, eng, dist, cluster, truth, dig); err != nil {
		return nil, err
	}
	scheduleFaults(sc, eng, s, cluster, cols, res, dig)
	scheduleCheckpoints(sc, eng, s, cols, dig)
	scheduleSupervision(sc, eng, s)

	eng.Run(sc.HorizonNs)
	quiesce(sc, cluster, fs, dig)
	estimateSkews(sc, s, cluster, res)

	res.Dispatch = s.Dispatcher().Stats()
	// Seal every head before checking: the invariants then run against
	// fully sealed (and, with SpillDir, spilled) segments, and the
	// storage accounting reflects the whole run's history.
	for _, cs := range cols {
		cs.col.DB().SealAll()
	}
	res.Storage = s.StorageStats()
	dig.logf("storage records=%d extents=%d spilled=%d stored=%d raw=%d evicted=%d readerrs=%d",
		res.Storage.Records(), res.Storage.Extents, res.Storage.SpilledExtents,
		res.Storage.StoredBytes(), res.Storage.SealedRawBytes,
		res.Storage.EvictedRecords, res.Storage.ReadErrors)
	check(sc, s, cluster, truth, cols, fs, res, dig)
	res.Digest = dig.sum()
	return res, nil
}

// collectorDirs lays out collector c's storage under the run's root. With
// more than one collector each gets its own subdirectory (extent
// filenames are per table, and a re-homed agent's table has partitions on
// two collectors). Durable collectors split theirs the way the CLI
// collector does: extents under data/, WAL and checkpoints under wal/.
func collectorDirs(sc Scenario, root string, c int) (tracedb.Config, tracedb.DurabilityConfig) {
	dir := root
	if dir != "" && sc.Collectors > 1 {
		dir = filepath.Join(dir, fmt.Sprintf("col-%d", c))
	}
	if !sc.Durable {
		return tracedb.Config{SegmentBytes: sc.SegmentBytes, DataDir: dir}, tracedb.DurabilityConfig{}
	}
	return tracedb.Config{SegmentBytes: sc.SegmentBytes, DataDir: filepath.Join(dir, "data")},
		tracedb.DurabilityConfig{Dir: filepath.Join(dir, "wal"), Fsync: tracedb.FsyncInterval}
}

func buildAgent(sc Scenario, i int, eng *sim.Engine, s *vnettracer.Session) (*agentState, error) {
	name := fmt.Sprintf("agent-%d", i)
	st := &agentState{
		idx:      i,
		name:     name,
		srcTP:    uint32(2*i + 1),
		dstTP:    uint32(2*i + 2),
		offsetNs: cycle(sc.ClockOffsetsNs, i),
		driftPPB: cycle(sc.ClockDriftsPPB, i),
		samples:  make([]clocksync.Sample, syncSamples),
	}
	node := kernel.NewNode(eng, kernel.NodeConfig{
		Name:          name,
		NumCPU:        sc.CPUs,
		ClockOffsetNs: st.offsetNs,
		ClockDriftPPB: st.driftPPB,
		TraceIDs:      true,
		Seed:          sc.Seed + int64(i),
	})
	machine, err := core.NewMachine(node, sc.RingBytes)
	if err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
	}
	st.machine = machine
	// Placement: the session homes the agent by consistent hash on one
	// collector and points it at that collector's fault-injecting sink.
	if st.agent, err = s.AddMachine(machine); err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
	}
	if sc.SpoolBytes > 0 {
		st.agent.SetSpoolLimit(sc.SpoolBytes)
	}
	// Provisioning goes through the dispatcher as one desired-state
	// change, so a later kill/reboot fault gets the same tracepoints
	// re-pushed without the harness re-declaring them. Every collector
	// carries (possibly empty) partitions of the record tables: after a
	// re-homing, records for the same tracepoint land on the successor's
	// store and queries read the merged view.
	pkg := control.ControlPackage{
		Install: []script.Spec{
			recordSpec(name+"/send", st.srcTP, kernel.SiteUDPSendSkb),
			recordSpec(name+"/recv", st.dstTP, kernel.SiteUDPRecvmsg),
		},
		FlushIntervalNs: sc.FlushEveryNs,
	}
	if sc.ShipAggregates {
		pkg.Install = append(pkg.Install, aggSpec(name+"/agg", uint32(1000+i)))
		pkg.ShipAggregates = true
	}
	if _, err := s.InstallPackage(name, pkg); err != nil {
		return nil, fmt.Errorf("conformance: %s: %w", sc.Name, err)
	}
	return st, nil
}

func recordSpec(name string, tpid uint32, site string) script.Spec {
	return script.Spec{
		Name:    name,
		TPID:    tpid,
		Attach:  core.AttachPoint{Kind: core.AttachKProbe, Site: site},
		Actions: []script.Action{script.ActionRecord},
	}
}

// aggSpec is a record-free in-probe aggregation script at the receive
// probe: every fire updates maps (event counters, per-CPU hits, a log2
// latency histogram, per-flow packet/byte sums) and emits nothing to the
// ring.
func aggSpec(name string, tpid uint32) script.Spec {
	return script.Spec{
		Name:   name,
		TPID:   tpid,
		Attach: core.AttachPoint{Kind: core.AttachKProbe, Site: kernel.SiteUDPRecvmsg},
		Actions: []script.Action{
			script.ActionCount, script.ActionCPUHist,
			script.ActionHist, script.ActionFlowCount,
		},
	}
}

func cycle(vals []int64, i int) int64 {
	if len(vals) == 0 {
		return 0
	}
	return vals[i%len(vals)]
}

// scheduleClockSync schedules each agent's Cristian probe exchanges
// against the master clock (engine truth) during the sync window. All
// randomness draws happen here, at build time, in a fixed order.
func scheduleClockSync(sc Scenario, eng *sim.Engine, dist sim.Dist, cluster []*agentState) {
	for _, st := range cluster {
		clk := st.machine.Node.Clock
		for k := 0; k < syncSamples; k++ {
			s := &st.samples[k]
			base := 10*sim.Microsecond + int64(k)*syncSpacingNs + int64(st.idx)*3*sim.Microsecond
			owd1 := 4*sim.Microsecond + dist.Uniform(0, 3*sim.Microsecond)
			proc := 1*sim.Microsecond + dist.Uniform(0, sim.Microsecond)
			owd2 := 4*sim.Microsecond + dist.Uniform(0, 3*sim.Microsecond)
			eng.Schedule(base, func() { s.T1 = eng.Now() })
			eng.Schedule(base+owd1, func() { s.T2 = clk.NowNs() })
			eng.Schedule(base+owd1+proc, func() { s.T3 = clk.NowNs() })
			eng.Schedule(base+owd1+proc+owd2, func() { s.T4 = eng.Now() })
		}
	}
}

// syncWindowEndNs is when the workload may start: after the last sync
// sample of the last agent has come back.
func syncWindowEndNs(sc Scenario) int64 {
	return 10*sim.Microsecond + syncSamples*syncSpacingNs +
		int64(sc.Agents)*3*sim.Microsecond + 50*sim.Microsecond
}

// scheduleWorkload lays out the packet schedule: packet k originates at
// agent k%N (udp_send_skb) and arrives at agent (k+1)%N (udp_recvmsg)
// after the hop delay, unless the scenario drops it on the wire.
func scheduleWorkload(sc Scenario, eng *sim.Engine, dist sim.Dist, cluster []*agentState, truth *groundTruth, dig *digest) error {
	start := syncWindowEndNs(sc)
	span := sc.HorizonNs - start - sc.HopDelayNs - sc.HopJitterNs - 5*sim.Millisecond
	if span < sim.Millisecond {
		return fmt.Errorf("conformance: %s: horizon %d too small for workload", sc.Name, sc.HorizonNs)
	}
	gap := span / int64(sc.Packets)
	if gap < 1 {
		gap = 1
	}

	// sched expands AgentWeights into a source rotation: agent i appears
	// weight(i) times per cycle. Uniform weights reduce to the plain
	// round-robin the single-collector scenarios always used.
	sched := make([]int, 0, sc.Agents)
	for i := 0; i < sc.Agents; i++ {
		w := 1
		if len(sc.AgentWeights) > 0 {
			if got := sc.AgentWeights[i%len(sc.AgentWeights)]; got > 1 {
				w = got
			}
		}
		for j := 0; j < w; j++ {
			sched = append(sched, i)
		}
	}

	fire := func(st *agentState, site string, tpid uint32, f flowTuple, id uint32, cpu int) {
		pkt := &vnet.Packet{
			Eth:     vnet.EthernetHeader{EtherType: vnet.EtherTypeIPv4},
			IP:      vnet.IPv4Header{TTL: 64, Protocol: vnet.ProtoUDP, Src: f.src, Dst: f.dst},
			UDP:     &vnet.UDPHeader{SrcPort: f.sport, DstPort: f.dport},
			Payload: make([]byte, sc.PayloadLen),
			Seq:     st.nextPktSeq,
			SentAt:  eng.Now(),
		}
		st.nextPktSeq++
		if err := pkt.PutUDPTraceID(id); err != nil {
			panic(err) // UDP by construction
		}
		// A fire against a site with no program attached (the window
		// between a kill and the dispatcher's re-provision) traces
		// nothing: it is ground truth the pipeline never saw, tracked
		// separately so conservation stays exact.
		attached := st.machine.Node.Probes.Attached(site) > 0
		st.machine.Node.Probes.Fire(&kernel.ProbeCtx{
			Site:   site,
			Pkt:    pkt,
			CPU:    cpu,
			TimeNs: st.machine.Node.Clock.NowNs(),
		})
		if !attached {
			st.unattended++
			dig.logf("fire t=%d agent=%s tp=%d id=%d cpu=%d pktseq=%d unattended",
				eng.Now(), st.name, tpid, id, cpu, pkt.Seq)
			return
		}
		tt := truth.table(tpid)
		now := eng.Now()
		if tt.fires == 0 {
			tt.firstNs = now
		}
		tt.lastNs = now
		tt.fires++
		tt.bytes += uint64(pkt.WireLen() - metrics.TraceIDBytes)
		tt.perFlow[f.key()]++
		tt.ids[id]++
		dig.logf("fire t=%d agent=%s tp=%d id=%d cpu=%d pktseq=%d", now, st.name, tpid, id, cpu, pkt.Seq)
	}

	for k := 0; k < sc.Packets; k++ {
		id := uint32(k + 1)
		srcIdx := sched[k%len(sched)]
		dstIdx := (srcIdx + 1) % sc.Agents
		src, dst := cluster[srcIdx], cluster[dstIdx]
		fl := flowOf(k % sc.Flows)
		burst := k / sc.BurstLen
		t := start + int64(burst)*gap*int64(sc.BurstLen)
		delay := sc.HopDelayNs
		if sc.HopJitterNs > 0 {
			delay += dist.Uniform(0, sc.HopJitterNs)
		}
		sendCPU := k % sc.CPUs
		recvCPU := (k / sc.CPUs) % sc.CPUs

		srcTP, dstTP := src.srcTP, dst.dstTP
		eng.Schedule(t, func() { fire(src, kernel.SiteUDPSendSkb, srcTP, fl, id, sendCPU) })

		path := truth.paths[srcIdx]
		path.sent++
		if sc.DropEvery > 0 && (k+1)%sc.DropEvery == 0 {
			path.dropped++
			continue
		}
		path.delays = append(path.delays, delay)
		eng.Schedule(t+delay, func() { fire(dst, kernel.SiteUDPRecvmsg, dstTP, fl, id, recvCPU) })
	}
	return nil
}

func flowOf(i int) flowTuple {
	return flowTuple{
		src:   vnet.IPv4(0x0a000000 + uint32(i) + 1), // 10.0.0.x
		dst:   vnet.IPv4(0x0a000100 + uint32(i) + 1), // 10.0.1.x
		sport: uint16(5000 + i),
		dport: uint16(9000 + i),
	}
}

// scheduleFaults arms the agent-restart, kill/reboot, collector-crash,
// and collector kill/recover faults (transport faults live in the sinks
// themselves).
func scheduleFaults(sc Scenario, eng *sim.Engine, s *vnettracer.Session, cluster []*agentState, cols []*collectorState, res *Result, dig *digest) {
	if sc.ShipAggregates && !sc.SinkDownForever && sc.SinkDownFromNs < sc.SinkDownUntilNs {
		eng.Schedule(sc.SinkDownUntilNs-1, func() {
			for _, st := range cluster {
				res.OutageSpooledFrames += uint64(st.agent.AggShipStats().FramesSpooled)
			}
		})
	}

	if sc.RestartAtNs > 0 && sc.RestartForNs > 0 {
		st := cluster[sc.RestartAgent%len(cluster)]
		eng.Schedule(sc.RestartAtNs, func() {
			st.agent.StopFlushing()
			dig.logf("restart-stop t=%d agent=%s", eng.Now(), st.name)
		})
		eng.Schedule(sc.RestartAtNs+sc.RestartForNs, func() {
			st.agent.StartFlushing(sc.FlushEveryNs)
			dig.logf("restart-start t=%d agent=%s", eng.Now(), st.name)
		})
	}

	if sc.KillAtNs > 0 && sc.KillRebootAfterNs > 0 {
		st := cluster[sc.KillAgent%len(cluster)]
		eng.Schedule(sc.KillAtNs, func() {
			// Process death: the flush loop dies and the kernel detaches
			// the process's probes, but the in-memory spool survives in the
			// zombie object (a real agent's spool would die with it; keeping
			// it models the worst case — a paused-then-thawed process that
			// re-ships under its stale lease).
			zombie, err := s.KillAgent(st.name)
			if err != nil {
				panic(err) // detach-only Replace cannot fail
			}
			st.zombie = zombie
			dig.logf("kill t=%d agent=%s epoch=%d", eng.Now(), st.name, st.zombie.Epoch())
		})
		eng.Schedule(sc.KillAtNs+sc.KillRebootAfterNs, func() {
			// Reboot: a fresh process takes over the machine under the next
			// epoch lease, with nothing installed and no flush loop — the
			// dispatcher's next tick must re-push the desired state. It
			// keeps the sticky home and the spool bound.
			fresh, _, err := s.RestartAgent(st.name)
			if err != nil {
				panic(err) // the home collector cannot vanish mid-reboot
			}
			st.agent = fresh
			dig.logf("reboot t=%d agent=%s epoch=%d", eng.Now(), st.name, fresh.Epoch())
		})
	}

	if sc.ZombieFlushAtNs > 0 {
		st := cluster[sc.KillAgent%len(cluster)]
		eng.Schedule(sc.ZombieFlushAtNs, func() {
			if st.zombie == nil {
				return
			}
			err := st.zombie.ShipSpooled()
			ss := st.zombie.SpoolStats()
			dig.logf("zombie-flush t=%d agent=%s err=%v leftBatches=%d", eng.Now(), st.name, err, ss.Batches)
		})
	}

	rehomed := make(map[string]bool) // agents the fail fault moved
	if sc.Collectors > 1 && sc.CollectorFailAtNs > 0 && sc.CollectorRehomeAfterNs > 0 {
		// The victim is whichever collector homes agent FailAgentHome —
		// resolved at crash time so the fault always lands on a collector
		// with tenants.
		anchor := cluster[sc.FailAgentHome%len(cluster)]
		var victim string
		eng.Schedule(sc.CollectorFailAtNs, func() {
			victim, _ = s.Dispatcher().Home(anchor.name)
			for _, cs := range cols {
				if cs.name == victim {
					cs.sink.crash()
					cs.failed = true
				}
			}
			dig.logf("collector-crash t=%d col=%s", eng.Now(), victim)
		})
		eng.Schedule(sc.CollectorFailAtNs+sc.CollectorRehomeAfterNs, func() {
			moves, err := s.FailCollector(victim)
			if err != nil {
				panic(err) // the victim exists and fails exactly once
			}
			for _, mv := range moves {
				rehomed[mv.Agent] = true
				dig.logf("rehome t=%d agent=%s from=%s to=%s epoch=%d",
					eng.Now(), mv.Agent, mv.From, mv.To, mv.Epoch)
			}
		})
	}

	if sc.Durable && sc.CollectorCrashAtNs > 0 && sc.CollectorRecoverAfterNs > 0 {
		// The victim is whichever durable collector homes agent
		// CrashAgentHome at the crash instant. The crash kills the sink
		// and snapshots the in-memory state the process loses; the
		// recovery event rebuilds everything from disk.
		anchor := cluster[sc.CrashAgentHome%len(cluster)]
		var victim *collectorState
		eng.Schedule(sc.CollectorCrashAtNs, func() {
			home, _ := s.Dispatcher().Home(anchor.name)
			for _, cs := range cols {
				if cs.name == home {
					victim = cs
				}
			}
			victim.sink.crash()
			victim.wasCrashed = true
			db := victim.col.DB()
			b, r, rd := victim.col.Stats()
			dupB, dupR, _ := victim.col.DeliveryStats()
			victim.lostBatches, victim.lostRecords, victim.lostRingDrops = b, r, rd
			victim.lostDupBatches, victim.lostDupRecords = dupB, dupR
			victim.preRecords = db.StorageTotals().Records()
			victim.preTotals = victim.col.Aggregates().Totals()
			victim.preLedgers = make(map[string]tracedb.AgentLedger)
			for _, agent := range db.Agents() {
				if l, ok := db.Ledger(agent); ok {
					victim.preLedgers[agent] = l
				}
			}
			for _, st := range cluster {
				res.CrashSpooledBatches += uint64(st.agent.SpoolStats().Batches)
				res.CrashSpooledFrames += uint64(st.agent.AggShipStats().FramesSpooled)
				if h, _ := s.Dispatcher().Home(st.name); h == victim.name && rehomed[st.name] {
					res.CrashRehomedTenants++
				}
			}
			dig.logf("collector-kill t=%d col=%s lostBatches=%d lostRecords=%d lostDup=%d stored=%d merged=%d spooled=%d/%d",
				eng.Now(), victim.name, b, r, dupB, victim.preRecords,
				victim.preTotals.FramesMerged, res.CrashSpooledBatches, res.CrashSpooledFrames)
		})
		eng.Schedule(sc.CollectorCrashAtNs+sc.CollectorRecoverAfterNs, func() {
			// The session rebuilds the collector purely from its on-disk
			// state — adopted extents, the latest checkpoint, and the WAL
			// tail — with the dead incarnation abandoned unread, and rejoins
			// it to the tier; the sink seam checks what it rebuilt first.
			moves, rec, err := s.RecoverCollector(victim.name)
			if err != nil {
				panic(fmt.Sprintf("conformance: %s: recover %s: %v", sc.Name, victim.name, err))
			}
			victim.recovered = true
			res.RecoveredCollectors++
			res.Recovery = rec
			dig.logf("collector-recover t=%d col=%s ckpt=%v ckptlsn=%d adopted=%d/%d dropped=%d replayed=%d recs=%d frames=%d dup=%d torn=%d next=%d selfmoves=%d",
				eng.Now(), victim.name, rec.CheckpointLoaded, rec.CheckpointLSN, rec.AdoptedExtents,
				rec.AdoptedRecords, rec.DroppedExtents, rec.ReplayedEntries, rec.ReplayedRecords,
				rec.ReplayedFrames, rec.ReplayedDup, rec.TornTails, rec.NextLSN, len(moves))
			for _, mv := range moves {
				dig.logf("recover-rehome t=%d agent=%s col=%s epoch=%d", eng.Now(), mv.Agent, mv.To, mv.Epoch)
			}
		})
	}
}

// checkRecovery compares a recovered incarnation, before it rejoins the
// tier, with the crash-instant snapshots: the rebuilt store must hold
// exactly what the dead incarnation had ingested, and no durable ledger
// field may regress. Dup/heartbeat bookkeeping since the last checkpoint
// is deliberately transient; its lost deltas fold into aggLost and the
// lost* counters instead. Mismatches become notes, which check()
// surfaces as invariant violations.
func (cs *collectorState) checkRecovery(col *control.Collector) {
	db := col.DB()
	if got := db.StorageTotals().Records(); got != cs.preRecords {
		cs.notes = append(cs.notes, fmt.Sprintf(
			"collector %s: recovered %d records, crashed holding %d", cs.name, got, cs.preRecords))
	}
	tot := col.Aggregates().Totals()
	if tot.FramesMerged != cs.preTotals.FramesMerged || tot.RowsMerged != cs.preTotals.RowsMerged {
		cs.notes = append(cs.notes, fmt.Sprintf(
			"collector %s: recovered aggregates merged=%d rows=%d, crashed holding merged=%d rows=%d",
			cs.name, tot.FramesMerged, tot.RowsMerged, cs.preTotals.FramesMerged, cs.preTotals.RowsMerged))
	}
	cs.aggLost = tracedb.AggTotals{
		FramesDup:    satSub(cs.preTotals.FramesDup, tot.FramesDup),
		FramesFenced: satSub(cs.preTotals.FramesFenced, tot.FramesFenced),
	}
	for agent, pre := range cs.preLedgers {
		l, ok := db.Ledger(agent)
		if !ok {
			cs.notes = append(cs.notes, fmt.Sprintf(
				"collector %s: agent %s ledger lost in recovery", cs.name, agent))
			continue
		}
		if l.HighWaterSeq != pre.HighWaterSeq || l.MaxSeq != pre.MaxSeq || l.Epoch != pre.Epoch {
			cs.notes = append(cs.notes, fmt.Sprintf(
				"collector %s: agent %s ledger regressed: hwm %d->%d maxseq %d->%d epoch %d->%d",
				cs.name, agent, pre.HighWaterSeq, l.HighWaterSeq, pre.MaxSeq, l.MaxSeq, pre.Epoch, l.Epoch))
		}
	}
}

func satSub(a, b uint64) uint64 {
	if a < b {
		return 0
	}
	return a - b
}

// scheduleCheckpoints arms the periodic checkpoint tick on every durable
// collector. A tick against a crashed collector is skipped — its process
// is dead; checkpointing resumes on the recovered incarnation.
func scheduleCheckpoints(sc Scenario, eng *sim.Engine, s *vnettracer.Session, cols []*collectorState, dig *digest) {
	if !sc.Durable || sc.CheckpointEveryNs <= 0 {
		return
	}
	for _, cs := range cols {
		cs := cs
		var tick func()
		tick = func() {
			if d := s.Durability(cs.name); d != nil && !cs.sink.crashed {
				if err := d.Checkpoint(); err != nil {
					cs.notes = append(cs.notes, fmt.Sprintf("collector %s: checkpoint: %v", cs.name, err))
				} else {
					dig.logf("checkpoint t=%d col=%s lsn=%d", eng.Now(), cs.name, d.Stats().LastCheckpointLSN)
				}
			}
			if eng.Now()+sc.CheckpointEveryNs <= sc.HorizonNs {
				eng.Schedule(sc.CheckpointEveryNs, tick)
			}
		}
		eng.Schedule(sc.CheckpointEveryNs, tick)
	}
}

// scheduleSupervision arms the periodic control-plane supervision pass.
func scheduleSupervision(sc Scenario, eng *sim.Engine, s *vnettracer.Session) {
	if sc.SuperviseEveryNs <= 0 {
		return
	}
	var tick func()
	tick = func() {
		s.Supervise(eng.Now())
		if eng.Now()+sc.SuperviseEveryNs <= sc.HorizonNs {
			eng.Schedule(sc.SuperviseEveryNs, tick)
		}
	}
	eng.Schedule(sc.SuperviseEveryNs, tick)
}

// quiesce stops the flush loops (their timers would otherwise re-arm
// forever), heals the transport unless the scenario keeps it down, and
// force-flushes until every spool drains or stops making progress.
func quiesce(sc Scenario, cluster []*agentState, fs *faultState, dig *digest) {
	for _, st := range cluster {
		st.agent.StopFlushing()
	}
	if !sc.SinkDownForever {
		fs.heal()
	}
	for round := 0; round < 64; round++ {
		pending := false
		for _, st := range cluster {
			st.agent.Flush() // a failed ship keeps records spooled for the next round
			if st.agent.SpoolStats().Batches > 0 {
				pending = true
			}
			if st.agent.AggShipStats().FramesSpooled > 0 {
				pending = true
			}
			// A zombie's leftovers must also surface before the books
			// close: shipped stale-epoch batches land as fenced counts,
			// never as records.
			if st.zombie != nil && st.zombie.SpoolStats().Batches > 0 {
				st.zombie.ShipSpooled()
				if st.zombie.SpoolStats().Batches > 0 {
					pending = true
				}
			}
		}
		if !pending || sc.SinkDownForever {
			break
		}
	}
	for _, st := range cluster {
		ss := st.agent.SpoolStats()
		as := st.agent.AggShipStats()
		dig.logf("quiesce agent=%s spooledBatches=%d spooledRecords=%d evicted=%d aggShipped=%d aggSpooled=%d aggEvicted=%d",
			st.name, ss.Batches, ss.Records, ss.EvictedRecords,
			as.FramesShipped, as.FramesSpooled, as.Evicted)
	}
}

// estimateSkews runs Cristian's estimate per agent over the samples
// collected during the sync window and installs the skew on every
// collector's partition of the machine's tables, mirroring what a real
// deployment does before cross-node metric queries.
func estimateSkews(sc Scenario, s *vnettracer.Session, cluster []*agentState, res *Result) {
	for _, st := range cluster {
		est, err := clocksync.EstimateSkew(st.samples)
		if err != nil {
			res.violatef("agent %s: clock sync failed: %v", st.name, err)
			continue
		}
		st.est = est
		for _, label := range []string{st.name + "/send", st.name + "/recv"} {
			if err := s.SetSkew(label, est.SkewNs); err != nil {
				res.violatef("agent %s: %v", st.name, err)
			}
		}
		drift := st.driftPPB
		if drift < 0 {
			drift = -drift
		}
		st.skewTolNs = est.BestRTTNs/2 + drift*sc.HorizonNs/1_000_000_000 + 2*sim.Microsecond
	}
}
