// Package conformance is a deterministic whole-pipeline harness: it
// stands up a full simulated cluster — dispatcher → N agents (per-CPU
// rings, spools, backoff) → fault-injected transport → collector (dedup
// ledger) → tracedb → metrics — on top of internal/sim's seeded engine,
// drives a scripted workload described by a declarative Scenario, and
// checks global invariants at quiesce:
//
//   - record conservation: emitted == stored + ring drops + spool
//     evictions, per agent and per flow;
//   - exactly-once delivery: no record is ever stored twice, and batch
//     sequence gaps exist only where the spool evicted;
//   - per-CPU intra-ring ordering: within one table and one CPU, record
//     timestamps are non-decreasing and packet sequence numbers strictly
//     increase;
//   - metric consistency: throughput/latency/loss computed from tracedb
//     match the ground truth injected by the workload, within
//     skew-correction bounds, whenever the relevant path was lossless.
//
// Every run is replayable: the same seed produces the identical event
// trace and the identical invariant digest (Result.Digest), so a failure
// bisects to a seed. On failure the digest plus the violated invariants
// print; re-running the named scenario with that seed reproduces the run
// bit-for-bit.
package conformance

import "vnettracer/internal/sim"

// Scenario declares one conformance run. The zero value of every field
// picks a sane default (see withDefaults), so scenarios list only what
// they exercise. All times are simulated nanoseconds.
type Scenario struct {
	Name string
	Seed int64

	// Cluster shape.
	Agents    int // number of traced machines (default 2)
	CPUs      int // simulated CPUs (= per-CPU rings) per machine (default 2)
	RingBytes int // per-CPU ring capacity in bytes (default 16 KiB)

	// Collectors scales out the collector tier (default 1). With more
	// than one, agents are placed onto collectors by consistent hashing
	// on the agent name and every invariant is checked cluster-wide:
	// per-agent tables partition across collector stores and the checks
	// run against the k-way merged view.
	Collectors int

	// AgentWeights skews the workload across agents: agent i sources a
	// packet share proportional to AgentWeights[i % len]. Empty means
	// uniform (the pre-cluster behavior). Weights below 1 clamp to 1.
	AgentWeights []int

	// Per-agent clock error, cycled across agents. Offsets must be
	// non-negative (a monotonic clock never reads negative).
	ClockOffsetsNs []int64
	ClockDriftsPPB []int64

	// Agent flush cadence and spool bound. SpoolBytes 0 keeps the
	// control-plane default; set it small to force evictions.
	FlushEveryNs int64
	SpoolBytes   int

	// Workload: Packets UDP packets, round-robined over Flows five-tuples,
	// each fired at a source agent (packet k originates at agent k%N) and,
	// HopDelayNs(+jitter) later, at the next agent's receive probe.
	Packets    int
	PayloadLen int
	Flows      int

	// Burstiness: fire BurstLen packets back-to-back at the same instant
	// every burst. BurstLen <= 1 spreads packets evenly.
	BurstLen int

	// Hop transit time and uniform jitter in [0, HopJitterNs).
	HopDelayNs  int64
	HopJitterNs int64

	// DropEvery injects packet loss on the wire: every DropEvery-th
	// packet never reaches the receive probe. 0 disables.
	DropEvery int

	// Transport faults. The sink rejects every delivery in
	// [SinkDownFromNs, SinkDownUntilNs). AckLossEvery loses the
	// acknowledgement of every n-th successful ingest — the collector
	// keeps the batch, the agent retries it, the ledger must dedup.
	SinkDownFromNs  int64
	SinkDownUntilNs int64
	AckLossEvery    int

	// SinkDownForever keeps the sink down from SinkDownFromNs through
	// quiesce: records legitimately end the run still spooled.
	SinkDownForever bool

	// Agent restart: agent RestartAgent's flush loop stops at
	// RestartAtNs and resumes RestartForNs later (emits keep landing in
	// the ring; sequence numbering must survive).
	RestartAtNs  int64
	RestartForNs int64
	RestartAgent int

	// SuperviseEveryNs arms a periodic control-plane supervision pass:
	// failed pushes past their backoff deadline are retried and restarted
	// agents (new epoch lease) get their desired tracepoints re-pushed.
	// 0 disables the timer (the initial provisioning still goes through
	// the dispatcher either way).
	SuperviseEveryNs int64

	// Agent kill: agent KillAgent's process dies at KillAtNs — probes
	// detach, the flush loop stops — and a fresh process boots
	// KillRebootAfterNs later under a new epoch lease, with nothing
	// installed until the dispatcher re-provisions it. Fires during the
	// dead window hit no probe and are counted as unattended ground
	// truth. The dead process lingers as a zombie holding its old spool.
	KillAtNs          int64
	KillRebootAfterNs int64
	KillAgent         int

	// Collector crash: the home collector of agent FailAgentHome stops
	// accepting deliveries at CollectorFailAtNs (its tenants spool and
	// back off), and CollectorRehomeAfterNs later the control plane
	// declares it dead — every tenant re-homes to its consistent-hash
	// successor under an advanced epoch lease, with the agent's ledger
	// handed off so delivery stays exactly-once across
	// the move. Requires Collectors > 1.
	CollectorFailAtNs      int64
	CollectorRehomeAfterNs int64
	FailAgentHome          int

	// ZombieFlushAtNs makes the killed agent's zombie ship its leftover
	// spool at this time (schedule it after the reboot): every batch
	// carries the stale epoch and the collector must fence it — counted,
	// never ingested.
	ZombieFlushAtNs int64

	// Durable fronts every collector's ingest with the crash-durability
	// layer: admitted batches and aggregate frames append to a per-
	// collector write-ahead log before they apply, and checkpoints
	// snapshot the ledgers and stores to disk. When SpillDir is empty the
	// harness provisions (and removes) a temporary directory per run.
	Durable bool

	// CheckpointEveryNs arms a periodic checkpoint on every durable
	// collector; each checkpoint seals the heads, snapshots ledger and
	// aggregate state, and retires the WAL generations it covers. 0
	// leaves the whole run in the WAL tail.
	CheckpointEveryNs int64

	// Collector kill/recover: the home collector of agent CrashAgentHome
	// loses its entire in-memory state at CollectorCrashAtNs — tables,
	// ledgers, aggregate store, ingest counters — and
	// CollectorRecoverAfterNs later is rebuilt purely from its data
	// directory, checkpoints, and WAL tail, then rejoins the tier via
	// RecoverCollector. Deliveries during the dead window fail and spool
	// agent-side. Requires Durable; composes with the
	// CollectorFailAtNs re-homing fault (crash first, re-home the
	// tenants, then recover the empty shell).
	CollectorCrashAtNs      int64
	CollectorRecoverAfterNs int64
	CrashAgentHome          int

	// Collector overload: in [OverloadFromNs, OverloadUntilNs) every
	// acknowledgement reports an ingest queue of OverloadDepth out of
	// OverloadCap, driving the agents' adaptive degradation (stretched
	// flush cadence, then ring head-drop sampling). Outside the window
	// acks report an empty queue of the same capacity, so agents recover.
	// OverloadCap 0 disables the backpressure channel entirely.
	OverloadFromNs  int64
	OverloadUntilNs int64
	OverloadDepth   int
	OverloadCap     int

	// ShipAggregates installs a record-free in-probe aggregation script
	// (counters, per-CPU hits, latency histogram, per-flow sums) on every
	// agent's receive probe and turns on the agents' periodic aggregate
	// drain. At quiesce the collector's merged aggregates must equal the
	// attended-fire ground truth exactly — aggregation bypasses the ring,
	// so even ring drops and transport faults may not perturb it.
	ShipAggregates bool

	// Storage: SegmentBytes is the trace store's head-seal threshold in
	// raw record bytes (default 4096, small enough that every scenario
	// exercises sealed segments); SpillDir, when set, spills sealed
	// extents to disk so queries cross head + resident + spilled
	// segments.
	SegmentBytes int
	SpillDir     string

	// HorizonNs is the simulated end of the run; quiesce happens there.
	HorizonNs int64
}

func (s Scenario) withDefaults() Scenario {
	if s.Agents <= 0 {
		s.Agents = 2
	}
	if s.CPUs <= 0 {
		s.CPUs = 2
	}
	if s.RingBytes <= 0 {
		s.RingBytes = 16 * 1024
	}
	if s.Collectors <= 0 {
		s.Collectors = 1
	}
	if s.FlushEveryNs <= 0 {
		s.FlushEveryNs = sim.Millisecond
	}
	if s.Packets <= 0 {
		s.Packets = 200
	}
	if s.PayloadLen <= 0 {
		s.PayloadLen = 512
	}
	if s.Flows <= 0 {
		s.Flows = 4
	}
	if s.BurstLen <= 0 {
		s.BurstLen = 1
	}
	if s.HopDelayNs <= 0 {
		s.HopDelayNs = 200 * sim.Microsecond
	}
	if s.SegmentBytes <= 0 {
		s.SegmentBytes = 4096
	}
	if s.HorizonNs <= 0 {
		s.HorizonNs = 100 * sim.Millisecond
	}
	return s
}

// Corpus is the scenario suite spanning the fault matrix: clean paths,
// ring overflow, clock skew, transport outages, lost acks, agent
// restarts, spool eviction, injected packet loss, and their combination.
// Every scenario must pass Run with zero violations and replay to the
// same digest.
func Corpus() []Scenario {
	return []Scenario{
		{
			// The clean path: no faults, ample buffers. Conservation must
			// be exact and metric checks all apply.
			Name: "baseline-steady",
			Seed: 1,
		},
		{
			// Three agents, more traffic, more flows — still clean.
			Name:       "three-agent-mesh",
			Seed:       2,
			Agents:     3,
			CPUs:       4,
			Packets:    600,
			Flows:      9,
			PayloadLen: 200,
		},
		{
			// Bursts against small rings: flush cadence can't keep up
			// inside a burst, so rings overflow and drops must be counted
			// exactly.
			Name:      "bursty-emit-ring-drops",
			Seed:      3,
			RingBytes: 480, // 10 records per CPU
			BurstLen:  40,
			Packets:   400,
		},
		{
			// Large clock offsets and drift on every agent; metric checks
			// must still land inside the skew-correction bounds.
			Name:           "skewed-clocks",
			Seed:           4,
			Agents:         3,
			ClockOffsetsNs: []int64{0, 3 * sim.Millisecond, 7 * sim.Millisecond},
			ClockDriftsPPB: []int64{0, 12000, -9000},
			HopJitterNs:    20 * sim.Microsecond,
		},
		{
			// Transport outage window mid-run: agents spool and back off,
			// then drain; nothing may be lost or duplicated.
			Name:            "flaky-sink-window",
			Seed:            5,
			SinkDownFromNs:  30 * sim.Millisecond,
			SinkDownUntilNs: 60 * sim.Millisecond,
		},
		{
			// Every third ack lost: the collector ingests, the agent
			// retries, the ledger dedups. Stored records stay exact.
			Name:         "ack-loss",
			Seed:         6,
			AckLossEvery: 3,
		},
		{
			// Agent 0's flush loop pauses for a third of the run; its ring
			// keeps filling and its Seq stream must survive the restart.
			Name:         "agent-restart",
			Seed:         7,
			Agents:       3,
			RestartAtNs:  25 * sim.Millisecond,
			RestartForNs: 35 * sim.Millisecond,
			RestartAgent: 0,
		},
		{
			// Long outage against a tiny spool: evictions are the only
			// permitted loss, and seq gaps must equal evicted batches.
			Name:            "spool-overflow",
			Seed:            8,
			SpoolBytes:      4 * 1024,
			SinkDownFromNs:  20 * sim.Millisecond,
			SinkDownUntilNs: 80 * sim.Millisecond,
			Packets:         400,
		},
		{
			// Injected wire loss: every 5th packet vanishes between the
			// probes. metrics.Loss must read exactly the injected count.
			Name:      "wire-loss",
			Seed:      9,
			DropEvery: 5,
			Packets:   500,
		},
		{
			// Sink dies and never recovers: at quiesce the spool still
			// holds records, and conservation must account for them.
			Name:            "sink-down-forever",
			Seed:            10,
			SinkDownFromNs:  50 * sim.Millisecond,
			SinkDownForever: true,
		},
		{
			// Agent 1's process dies mid-run and reboots 10ms later under a
			// new epoch lease with nothing installed; the dispatcher must
			// re-push its tracepoints within a tick. Fires during the dead
			// window hit no probe and are counted as unattended — the only
			// capture loss this scenario permits.
			Name:              "agent-restart-reprovision",
			Seed:              12,
			Agents:            3,
			SuperviseEveryNs:  2 * sim.Millisecond,
			KillAtNs:          30 * sim.Millisecond,
			KillRebootAfterNs: 10 * sim.Millisecond,
			KillAgent:         1,
		},
		{
			// The sink goes down, agent 0 spools, then dies before the sink
			// heals. Its successor re-provisions under epoch 2 while the
			// zombie still holds the spooled epoch-1 batches — which it
			// ships mid-run after the reboot. Every one must be fenced by
			// the collector: counted as fenced loss, never ingested, never
			// advancing the live incarnation's liveness.
			Name:              "zombie-epoch-fencing",
			Seed:              13,
			SuperviseEveryNs:  2 * sim.Millisecond,
			SinkDownFromNs:    20 * sim.Millisecond,
			SinkDownUntilNs:   45 * sim.Millisecond,
			KillAtNs:          40 * sim.Millisecond,
			KillRebootAfterNs: 5 * sim.Millisecond,
			KillAgent:         0,
			ZombieFlushAtNs:   70 * sim.Millisecond,
		},
		{
			// The collector reports a nearly full ingest queue for 30ms:
			// agents must stretch their flush cadence, cross the high-water
			// mark into ring head-drop sampling, and — once the queue
			// empties — recover to full capture with every sampled-away
			// record exactly counted as a ring drop.
			Name:             "collector-overload-degrade",
			Seed:             14,
			SuperviseEveryNs: 2 * sim.Millisecond,
			Packets:          600,
			OverloadFromNs:   30 * sim.Millisecond,
			OverloadUntilNs:  60 * sim.Millisecond,
			OverloadDepth:    95,
			OverloadCap:      100,
		},
		{
			// In-probe aggregation under faults: bursts overflow the tiny
			// rings (records legitimately drop) while an outage window and
			// lost acks batter the transport — yet the merged aggregates at
			// the collector must match the fired ground truth exactly,
			// because map updates bypass the ring and the ledger dedups
			// every retried frame.
			Name:            "in-probe-aggregation",
			Seed:            15,
			Agents:          3,
			Packets:         600,
			Flows:           6,
			RingBytes:       480, // 10 records per CPU
			BurstLen:        60,
			ShipAggregates:  true,
			AckLossEvery:    4,
			SinkDownFromNs:  30 * sim.Millisecond,
			SinkDownUntilNs: 55 * sim.Millisecond,
		},
		{
			// One of three collectors crashes mid-traffic: its tenants spool
			// against the dead sink, then re-home to their consistent-hash
			// successors under advanced epoch leases. Exactly-once must hold
			// across the handoff — spool re-ships (including aggregate
			// frames whose acks died with the old collector) dedup against
			// the imported ledgers, and conservation closes cluster-wide.
			Name:                   "collector-crash-rehome",
			Seed:                   16,
			Agents:                 5,
			Collectors:             3,
			Packets:                600,
			Flows:                  6,
			AckLossEvery:           4,
			ShipAggregates:         true,
			CollectorFailAtNs:      35 * sim.Millisecond,
			CollectorRehomeAfterNs: 8 * sim.Millisecond,
		},
		{
			// Consistent hashing under a 10:1 agent load skew: the collector
			// owning the hot agent ingests a visibly larger share, every
			// collector still sees work, and all cluster-wide invariants
			// (conservation, exactly-once, merged-view metrics) stay exact.
			Name:         "skewed-agent-load",
			Seed:         17,
			Agents:       6,
			Collectors:   3,
			Packets:      600,
			Flows:        6,
			AgentWeights: []int{10, 1, 1, 1, 1, 1},
		},
		{
			// The lone collector's process dies mid-traffic with spooled
			// record batches and aggregate frames outstanding (an outage
			// window guarantees backlog at the crash instant), taking every
			// in-memory structure with it. Twenty milliseconds later it is
			// rebuilt from its last checkpoint plus the WAL tail and the
			// agents re-attach at a fresh epoch. Conservation must close
			// including every WAL-replayed record, and spool re-ships of
			// batches whose acks died with the crash must dedup against the
			// replayed high-water marks — zero double ingests.
			Name:                    "collector-kill-recover",
			Seed:                    18,
			Agents:                  3,
			Packets:                 600,
			Flows:                   6,
			Durable:                 true,
			CheckpointEveryNs:       10 * sim.Millisecond,
			ShipAggregates:          true,
			AckLossEvery:            3,
			SinkDownFromNs:          33 * sim.Millisecond,
			SinkDownUntilNs:         40 * sim.Millisecond,
			CollectorCrashAtNs:      37 * sim.Millisecond,
			CollectorRecoverAfterNs: 20 * sim.Millisecond,
		},
		{
			// Recovery composed with re-homing: one of three collectors
			// crashes; the ring declares it dead and re-homes its tenants to
			// the survivors (spool re-ships dedup against the exported
			// ledgers there); then the crashed collector recovers from disk
			// while its agents live elsewhere. Its replayed ledgers must
			// turn into fences — no ledger regression, no double ingest —
			// and the cluster-wide merged view must stay exact.
			Name:                    "recover-vs-rehome",
			Seed:                    19,
			Agents:                  5,
			Collectors:              3,
			Packets:                 600,
			Flows:                   6,
			Durable:                 true,
			CheckpointEveryNs:       12 * sim.Millisecond,
			ShipAggregates:          true,
			AckLossEvery:            4,
			CollectorFailAtNs:       35 * sim.Millisecond,
			CollectorRehomeAfterNs:  8 * sim.Millisecond,
			CollectorCrashAtNs:      35 * sim.Millisecond,
			CollectorRecoverAfterNs: 20 * sim.Millisecond,
		},
		{
			// Everything at once: four skewed agents, bursts, ack loss, an
			// outage window, a restart, and injected wire loss.
			Name:            "kitchen-sink",
			Seed:            11,
			Agents:          4,
			CPUs:            3,
			Packets:         800,
			Flows:           8,
			BurstLen:        20,
			ClockOffsetsNs:  []int64{0, 2 * sim.Millisecond, 5 * sim.Millisecond, 1 * sim.Millisecond},
			ClockDriftsPPB:  []int64{4000, -3000, 8000, 0},
			HopJitterNs:     30 * sim.Microsecond,
			DropEvery:       7,
			AckLossEvery:    5,
			SinkDownFromNs:  40 * sim.Millisecond,
			SinkDownUntilNs: 55 * sim.Millisecond,
			RestartAtNs:     60 * sim.Millisecond,
			RestartForNs:    20 * sim.Millisecond,
			RestartAgent:    2,
		},
		{
			// Re-provisioning must not drop what the maps counted since
			// the last drain: the recovered collector's fresh epoch makes
			// the dispatcher re-push each agent's scripts as a Replace,
			// which must spool the unloaded maps as a frame first.
			Name:                    "reprovision-drains-aggregates",
			Seed:                    1,
			Agents:                  2,
			Durable:                 true,
			ShipAggregates:          true,
			SuperviseEveryNs:        2 * sim.Millisecond,
			CollectorCrashAtNs:      28 * sim.Millisecond,
			CollectorRecoverAfterNs: 19 * sim.Millisecond,
		},
		{
			// An agent reboots while its collector is down and restarts
			// its sequence space, so the replayed ledger (at its old
			// lease) must not carry its high-water mark into the
			// self-handoff, or the new stream is deduped, never stored.
			Name:                    "recover-after-agent-reboot",
			Seed:                    18,
			Agents:                  3,
			Durable:                 true,
			SuperviseEveryNs:        2 * sim.Millisecond,
			KillAgent:               0,
			KillAtNs:                27 * sim.Millisecond,
			KillRebootAfterNs:       14 * sim.Millisecond,
			CollectorCrashAtNs:      38 * sim.Millisecond,
			CollectorRecoverAfterNs: 6 * sim.Millisecond,
		},
		{
			// A re-homed agent's new home crashes before any checkpoint:
			// the ledger it imported in the handoff must survive the
			// crash, or its recovery stores the agent's spool re-ships a
			// second time and regresses the ledger.
			Name:                    "rehome-then-successor-crash",
			Seed:                    20,
			Agents:                  5,
			Collectors:              3,
			Packets:                 600,
			Flows:                   6,
			Durable:                 true,
			AckLossEvery:            4,
			CollectorFailAtNs:       30 * sim.Millisecond,
			CollectorRehomeAfterNs:  5 * sim.Millisecond,
			CollectorCrashAtNs:      42 * sim.Millisecond,
			CollectorRecoverAfterNs: 10 * sim.Millisecond,
		},
	}
}
