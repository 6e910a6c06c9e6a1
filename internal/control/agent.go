package control

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"unsafe"

	"vnettracer/internal/core"
	"vnettracer/internal/script"
	"vnettracer/internal/sim"
	"vnettracer/internal/tracedb"
)

// DefaultSpoolBytes bounds the in-agent delivery spool: records drained
// from the ring whose batch could not be shipped wait here for retry. The
// default holds several full ring buffers (~21k records), so a transient
// collector outage costs latency, not data.
const DefaultSpoolBytes = 1 << 20

// maxBackoffTicks caps the exponential retry backoff, in flush intervals:
// after repeated ship failures the agent skips at most this many periodic
// flush ticks between attempts, bounding both the retry pressure on a
// struggling collector and the heartbeat silence it self-inflicts. Each
// armed backoff adds a per-agent deterministic jitter of up to half the
// base skip count, so a fleet that lost its collector together does not
// retry in lockstep when it comes back.
const maxBackoffTicks = 8

// Degradation thresholds and knobs. The collector's ack reports its
// ingest-queue depth/cap; the agent maps the fill ratio to a level:
//
//	>= pressureHigh  level 2: ring head-drop sampling on, flush stretched
//	>= pressureLow   level 1: sampling off, flush stretched
//	<  pressureClear level 0: full recovery (stretch 1, sampling off)
//
// Between pressureClear and pressureLow the current level holds —
// hysteresis, so a queue hovering at a boundary does not flap the mode.
// Each ack at or above pressureLow doubles the flush-interval stretch up
// to maxFlushStretch; at level 2 the rings admit one write in
// degradedSampleEvery, counting the rest as (exactly tallied) drops.
const (
	pressureHigh        = 0.85
	pressureLow         = 0.5
	pressureClear       = 0.25
	maxFlushStretch     = 8
	degradedSampleEvery = 4
)

// Agent is the per-machine daemon: it applies control packages (compiling
// specs through the script compiler and the eBPF verifier), periodically
// drains the kernel ring buffer, and ships batches to the collector. The
// paper: "the agents are daemon processes, which are woken up once
// receiving new tracing scripts".
//
// Delivery is lossless up to a bounded spool: a drained record batch or
// aggregate frame that fails to ship is re-queued and retried (oldest
// first, with exponential backoff across flush ticks) until it is
// delivered or evicted to make room for newer data. Every data-carrying
// delivery of either kind gets the next number of one monotonically
// increasing sequence so the collector can drop transport-level re-sends
// — together: no loss while the spool has capacity, and no duplicates
// ever.
type Agent struct {
	name    string
	machine *core.Machine
	sink    RecordSink

	mu           sync.Mutex
	loaded       map[string]*loadedScript
	flushTimer   *sim.Timer
	flushEvery   int64
	flushErrs    uint64
	lastFlushErr error

	// lastRingDrops holds the previous flush's per-CPU-ring drop
	// snapshot; dropSnap is the reused scratch for the current one.
	// Summing per-ring deltas (rather than diffing a global counter)
	// keeps per-batch RingDrops exact: each ring's counter is monotonic
	// and diffed independently, so totals telescope with no loss or
	// double count even while other CPUs keep dropping mid-snapshot.
	// Guarded by flushMu.
	lastRingDrops []uint64
	dropSnap      []uint64

	// flushMu serializes the drain-and-ship section: concurrent Flush
	// calls (manual + timer tick) must not interleave DrainInto with the
	// per-ring drop snapshot window, or drop deltas get mis-attributed
	// and spool order breaks.
	flushMu sync.Mutex

	// spool state (guarded by mu; only mutated under flushMu): record
	// batches and aggregate frames, oldest first, under one byte bound.
	spool          []spooledBatch
	spoolBytes     int
	spoolLimit     int
	nextSeq        uint64
	evictedBatches uint64
	evictedRecords uint64
	retries        uint64
	carryDrops     uint64
	backoffSkips   int        // remaining flush ticks to skip before retrying
	backoffNext    int        // skip count after the next failure
	jitterRNG      *rand.Rand // per-agent deterministic backoff jitter

	// epoch is the dispatcher's registration lease, stamped into every
	// shipped batch; the collector fences batches from older epochs.
	epoch uint64

	// Aggregate shipping state (guarded by mu; mutated under flushMu).
	// When shipAggs is set, each flush snapshot-and-resets the loaded
	// scripts' aggregation maps and spools the drain as one v5 frame
	// behind the flush's record batch. Off by default: draining resets
	// the maps, so direct map readers (ReadCounter et al.) and aggregate
	// shipping are mutually exclusive consumers.
	shipAggs    bool
	aggShipped  uint64
	aggShipErrs uint64
	aggRejected uint64
	aggEvicted  uint64
	// flowsRefused sums the flow increments full flow maps refused, as
	// folded in at each drain.
	flowsRefused uint64

	// Degradation state (guarded by mu): flushStretch multiplies the
	// periodic flush interval; degradeLevel is 0 (full capture),
	// 1 (stretched flush), or 2 (stretched + ring sampling).
	flushStretch       int
	degradeLevel       uint8
	degradations       uint64
	recoveries         uint64
	stretchedIntervals uint64

	// Batches counts flushes that carried at least one record.
	Batches uint64
}

// spooledBatch is one drained-but-unshipped delivery: a record batch, or
// an aggregate frame when scripts is non-nil. Its drain timestamp and
// sequence number stay stable across retries for the collector's ledger;
// bytes is its charge against the spool bound.
type spooledBatch struct {
	seq      uint64
	timeNs   int64
	drops    uint64
	recs     []core.Record
	scripts  []tracedb.ScriptAgg
	bytes    int
	attempts int
}

// aggRowBytes is a frame row's charge against the spool bound, so sizing
// a frame needs no encode: the size of a flow row, the widest kind.
const aggRowBytes = int(unsafe.Sizeof(tracedb.FlowAgg{}))

// SpoolStats reports the agent-side delivery state: what is waiting for
// retry and what was confirmed lost to the bounded spool. Batches,
// Records and the evictions count record batches; AggShipStats reports
// the spool's aggregate frames.
type SpoolStats struct {
	// Batches and Records count spooled record batches not yet delivered.
	Batches int
	Records int
	// Bytes is the spooled payload of both kinds (records at their wire
	// size, frames at aggRowBytes a row); Limit is the eviction bound.
	Bytes int
	Limit int
	// EvictedBatches/EvictedRecords count record data evicted when the
	// spool overflowed — the agent's confirmed-loss counter (these
	// sequence numbers will surface as gaps in the collector's ledger).
	EvictedBatches uint64
	EvictedRecords uint64
	// Retries counts ship attempts of deliveries that had already failed
	// at least once.
	Retries uint64
	// NextSeq is the next unassigned sequence number.
	NextSeq uint64
}

type loadedScript struct {
	compiled *script.Compiled
	handle   *core.AttachHandle
	// flowsRefused is the flow map's Refused count at the last drain.
	flowsRefused uint64
}

// NewAgent creates an agent for a machine, shipping records to sink.
func NewAgent(name string, machine *core.Machine, sink RecordSink) *Agent {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &Agent{
		name:        name,
		machine:     machine,
		sink:        sink,
		loaded:      make(map[string]*loadedScript),
		spoolLimit:  DefaultSpoolBytes,
		nextSeq:     1,
		backoffNext: 1,
		// Seeding jitter from the agent's name keeps runs replayable
		// (same cluster, same schedules) while guaranteeing different
		// agents de-synchronize their retries.
		jitterRNG:    rand.New(rand.NewSource(int64(h.Sum64()))),
		flushStretch: 1,
		// Snapshot the rings' current drop counters rather than starting
		// from zero: an agent taking over a machine from a previous
		// incarnation must not re-report drops the predecessor already
		// shipped.
		lastRingDrops: machine.Ring.AppendPerRingDrops(make([]uint64, 0, machine.Ring.NumRings())),
		dropSnap:      make([]uint64, 0, machine.Ring.NumRings()),
	}
}

// SetEpoch installs the dispatcher's registration lease; every batch and
// heartbeat shipped from now on carries it. Zero (the default) means
// unleased — such batches are never fenced.
func (a *Agent) SetEpoch(epoch uint64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epoch = epoch
}

// Retarget atomically swaps the agent's delivery sink and epoch lease —
// the cluster re-homing path. Unlike a restart, the process survives: it
// keeps its spool and its sequence space, so spooled batches ship
// to the new collector under the new epoch with their original sequence
// numbers, and the successor's imported ledger dedups any the failed
// collector already ingested. The retry backoff resets so the spool
// starts draining toward the new home on the next flush instead of
// serving out a penalty earned against the dead one. A nil sink keeps
// the current one (epoch-only retarget).
func (a *Agent) Retarget(sink RecordSink, epoch uint64) {
	// Lock order matches flush: flushMu first (a.sink is read under
	// flushMu without a.mu on the ship path), then a.mu.
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	if sink != nil {
		a.sink = sink
	}
	a.epoch = epoch
	a.backoffSkips = 0
	a.backoffNext = 1
}

// Epoch returns the agent's current registration lease.
func (a *Agent) Epoch() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.epoch
}

// Name returns the agent's identity.
func (a *Agent) Name() string { return a.name }

// Machine returns the machine under management.
func (a *Agent) Machine() *core.Machine { return a.machine }

// Apply implements ControlClient: uninstalls, then installs, then re-arms
// flushing. Installation is atomic per script; a failing spec leaves
// earlier scripts of the same package installed and returns the error;
// an unknown Uninstall name fails the package before anything changes.
// A Replace package first detaches everything currently installed, making
// it an idempotent full-desired-state declaration — the dispatcher's
// retry and re-provision pushes use it because the agent's current state
// is unknown to them.
func (a *Agent) Apply(pkg ControlPackage) error {
	// Unloading drains maps into the spool: flushMu first, as in flush.
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	a.mu.Lock()
	defer a.mu.Unlock()
	var unload []string
	if pkg.Replace {
		unload = a.namesLocked()
	}
	for _, name := range pkg.Uninstall {
		// A Replace already unloads every script, so a name it also
		// uninstalls is unknown by then, as is a name listed twice.
		if _, ok := a.loaded[name]; !ok || slices.Contains(unload, name) {
			return fmt.Errorf("control: agent %s: uninstall unknown script %q", a.name, name)
		}
		unload = append(unload, name)
	}
	a.unloadLocked(unload)
	if pkg.Replace {
		a.shipAggs = pkg.ShipAggregates
	} else if pkg.ShipAggregates {
		a.shipAggs = true
	}
	for _, spec := range pkg.Install {
		if _, dup := a.loaded[spec.Name]; dup {
			return fmt.Errorf("control: agent %s: script %q already installed", a.name, spec.Name)
		}
		compiled, err := script.Compile(spec)
		if err != nil {
			return fmt.Errorf("control: agent %s: %w", a.name, err)
		}
		handle, err := a.machine.Attach(compiled.Prog, spec.Attach, core.DefaultCostModel())
		if err != nil {
			return fmt.Errorf("control: agent %s: %w", a.name, err)
		}
		a.loaded[spec.Name] = &loadedScript{compiled: compiled, handle: handle}
	}
	if pkg.FlushIntervalNs > 0 {
		a.startFlushingLocked(pkg.FlushIntervalNs)
	}
	return nil
}

// unloadLocked detaches the named scripts and forgets them; an agent that
// ships aggregates first spools what their maps counted as one frame, so
// no count is lost. Callers hold a.flushMu and a.mu.
func (a *Agent) unloadLocked(names []string) {
	for _, name := range names {
		a.loaded[name].handle.Detach()
	}
	if a.shipAggs {
		a.drainAggLocked(names, a.machine.Node.Clock.NowNs())
	}
	for _, name := range names {
		delete(a.loaded, name)
	}
}

// namesLocked lists the installed script names, unsorted (holding a.mu).
func (a *Agent) namesLocked() []string {
	out := make([]string, 0, len(a.loaded))
	for name := range a.loaded {
		out = append(out, name)
	}
	return out
}

// Script returns an installed script's compiled form, giving callers
// access to its maps (counters, CPU histograms).
func (a *Agent) Script(name string) (*script.Compiled, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	ls, ok := a.loaded[name]
	if !ok {
		return nil, false
	}
	return ls.compiled, true
}

// Installed lists installed script names in sorted order, so two agents
// with the same scripts report identically regardless of install order.
func (a *Agent) Installed() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := a.namesLocked()
	sort.Strings(out)
	return out
}

// Flush drains the ring buffer (and, when the agent ships aggregates, the
// scripts' maps) into the spool and attempts to ship every spooled
// delivery, oldest first (also serving as the heartbeat — an empty flush
// still announces liveness). A sink failure leaves the drained
// records spooled for retry; Flush always attempts delivery, bypassing
// any retry backoff the periodic tick is observing.
func (a *Agent) Flush() error {
	return a.flush(true)
}

// flushTick is the periodic-timer entry point: like Flush, but it honors
// the exponential retry backoff — during a backoff window it still drains
// the ring (so the bounded kernel buffer never overflows just because the
// collector is down) but skips the ship attempt.
func (a *Agent) flushTick() error {
	return a.flush(false)
}

func (a *Agent) flush(force bool) error {
	if a.sink == nil {
		return errors.New("control: agent has no sink")
	}
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	// The ring drains into the one array the batch keeps: the drained
	// bytes are the records, viewed in place, not decoded. Each batch gets
	// its own array, since a sink may hold the batch after it returns.
	ring := a.machine.Ring
	recs, err := core.ViewRecords(ring.DrainInto(make([]byte, 0, ring.Used())))
	if err != nil {
		return fmt.Errorf("control: agent %s: corrupt ring: %w", a.name, err)
	}
	a.dropSnap = a.machine.Ring.AppendPerRingDrops(a.dropSnap[:0])
	now := a.machine.Node.Clock.NowNs()
	a.mu.Lock()
	var delta uint64
	for i, d := range a.dropSnap {
		delta += d - a.lastRingDrops[i]
		a.lastRingDrops[i] = d
	}
	if len(recs) > 0 || delta > 0 || a.carryDrops > 0 {
		drops := delta + a.carryDrops
		a.carryDrops = 0
		a.enqueueLocked(spooledBatch{timeNs: now, drops: drops, recs: recs, bytes: len(recs) * core.RecordSize})
	}
	if a.shipAggs {
		a.drainAggLocked(a.namesLocked(), now)
	}
	if !force && a.backoffSkips > 0 {
		a.backoffSkips--
		a.mu.Unlock()
		return nil
	}
	a.mu.Unlock()
	return a.ship(now)
}

// drainAggLocked snapshot-and-resets the named scripts' aggregation maps
// and spools the non-empty result as one frame. The map drains transfer
// counts atomically, so probe invocations racing the drain land in
// exactly one frame. Callers hold a.mu and a.flushMu.
func (a *Agent) drainAggLocked(names []string, now int64) {
	sort.Strings(names)
	var scripts []tracedb.ScriptAgg
	rows := 0
	for _, name := range names {
		ls := a.loaded[name]
		c := ls.compiled
		if !c.HasAggregates() {
			continue
		}
		if c.Flows != nil {
			refused := c.Flows.Refused()
			a.flowsRefused += refused - ls.flowsRefused
			ls.flowsRefused = refused
		}
		sa := tracedb.ScriptAgg{Script: name}
		c.DrainAggregates(&sa)
		if !sa.Empty() {
			scripts = append(scripts, sa)
			rows += sa.Rows()
		}
	}
	if len(scripts) == 0 {
		// Nothing aggregated since the last drain: no frame, no sequence
		// number consumed — an idle script costs zero wire bytes.
		return
	}
	a.enqueueLocked(spooledBatch{timeNs: now, scripts: scripts, bytes: rows * aggRowBytes})
}

var errNoAggSink = errors.New("control: sink does not support aggregate frames")

// AggShipStats reports the aggregate frames of the agent's one spool, for
// shutdown summaries and tests.
type AggShipStats struct {
	// Enabled mirrors the drain-loop switch.
	Enabled bool
	// FramesShipped counts delivered frames; FramesSpooled is the current
	// retry backlog.
	FramesShipped uint64
	FramesSpooled int
	// ShipErrs counts failed frame ship attempts.
	ShipErrs uint64
	// Rejected counts frames dropped because the far end (or the local
	// sink) cannot ingest aggregates; Evicted counts frames lost to the
	// bounded spool. Both surface as sequence gaps at the collector.
	Rejected uint64
	Evicted  uint64
	// FlowsRefused counts flow-row increments the probe could not apply
	// because a script's flow map held MaxFlows live flows: counts lost
	// before any frame. Each drain folds them in, so a script's last
	// drain on Replace or Uninstall keeps its count.
	FlowsRefused uint64
}

// AggShipStats snapshots the aggregate delivery state.
func (a *Agent) AggShipStats() AggShipStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := AggShipStats{
		Enabled:       a.shipAggs,
		FramesShipped: a.aggShipped,
		ShipErrs:      a.aggShipErrs,
		Rejected:      a.aggRejected,
		Evicted:       a.aggEvicted,
		FlowsRefused:  a.flowsRefused,
	}
	for _, sb := range a.spool {
		if sb.scripts != nil {
			st.FramesSpooled++
		}
	}
	return st
}

// enqueueLocked appends a freshly drained delivery to the spool,
// assigning it the next sequence number, and evicts the oldest entries,
// of either kind, while the spool exceeds its byte bound. Ring-drop
// counts from evicted record batches are carried forward so the
// collector's drop totals stay exact even under eviction. Callers hold
// a.mu (and a.flushMu).
func (a *Agent) enqueueLocked(sb spooledBatch) {
	sb.seq = a.nextSeq
	a.nextSeq++
	a.spool = append(a.spool, sb)
	a.spoolBytes += sb.bytes
	for a.spoolBytes > a.spoolLimit && len(a.spool) > 0 {
		old := a.spool[0]
		a.spool[0] = spooledBatch{}
		a.spool = a.spool[1:]
		a.spoolBytes -= old.bytes
		if old.scripts != nil {
			a.aggEvicted++
			continue
		}
		a.evictedBatches++
		a.evictedRecords += uint64(len(old.recs))
		a.carryDrops += old.drops
	}
}

// ship delivers spooled entries oldest-first, each by its kind, then a
// bare heartbeat if nothing stamped at the current flush time shipped.
// The first transport failure stops the pass, arms the exponential
// backoff, and leaves the rest spooled. A frame the far end cannot ingest
// (no AggSink, or a remote rejection) is dropped as counted loss instead,
// since retrying a deterministic rejection would only evict newer data;
// the pass goes on and returns the rejection if nothing failed after it.
// Callers hold a.flushMu but not a.mu.
func (a *Agent) ship(now int64) error {
	shippedNow := false
	var rejected error
	for {
		a.mu.Lock()
		if len(a.spool) == 0 {
			a.mu.Unlock()
			break
		}
		sb := a.spool[0]
		if sb.attempts > 0 {
			a.retries++
		}
		epoch, degraded := a.epoch, a.degradeLevel
		a.mu.Unlock()
		var err error
		if sb.scripts == nil {
			err = a.deliver(RecordBatch{Agent: a.name, AgentTimeNs: sb.timeNs, Records: sb.recs,
				RawRecords: core.RecordBytes(sb.recs), RingDrops: sb.drops, Seq: sb.seq, Epoch: epoch, Degraded: degraded})
		} else if aggSink, ok := a.sink.(AggSink); ok {
			err = aggSink.HandleAgg(AggBatch{Agent: a.name, AgentTimeNs: sb.timeNs, Scripts: sb.scripts,
				Seq: sb.seq, Epoch: epoch, Degraded: degraded})
		} else {
			err = errNoAggSink
		}
		a.mu.Lock()
		atHead := len(a.spool) > 0 && a.spool[0].seq == sb.seq
		reject := false
		if err != nil && sb.scripts != nil {
			a.aggShipErrs++
			// Declared here, the errors.As target escapes to the heap
			// only when a frame failed.
			var remote *RemoteError
			reject = errors.Is(err, errNoAggSink) || errors.As(err, &remote)
		}
		if err != nil && !reject {
			if atHead {
				a.spool[0].attempts++
			}
			a.noteShipLocked(err)
			a.mu.Unlock()
			return err
		}
		if atHead {
			a.spoolBytes -= sb.bytes
			a.spool[0] = spooledBatch{}
			a.spool = a.spool[1:]
		}
		switch {
		case reject:
			a.aggRejected++
			rejected = err
		case sb.scripts != nil:
			a.aggShipped++
		case len(sb.recs) > 0:
			a.Batches++
		}
		if err == nil {
			// A frame carries no ack, so while degraded the heartbeat's ack
			// must still come to tell the agent the queue cleared.
			shippedNow = shippedNow || sb.timeNs == now && (sb.scripts == nil || degraded == 0)
			a.noteShipLocked(nil)
		}
		a.mu.Unlock()
	}
	if !shippedNow {
		// A bare heartbeat advances the collector's liveness clock while
		// the spool retries old deliveries (or is empty). Unsequenced, so
		// re-sending it is harmless.
		a.mu.Lock()
		hb := RecordBatch{Agent: a.name, AgentTimeNs: now, Epoch: a.epoch, Degraded: a.degradeLevel}
		a.mu.Unlock()
		err := a.deliver(hb)
		a.mu.Lock()
		a.noteShipLocked(err)
		a.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return rejected
}

// deliver ships one batch, preferring the acking sink so the collector's
// backpressure telemetry reaches the degradation controller. Callers must
// not hold a.mu.
func (a *Agent) deliver(b RecordBatch) error {
	if acking, ok := a.sink.(AckingRecordSink); ok {
		ack, err := acking.HandleBatchAck(b)
		if err == nil {
			a.observeAck(ack)
		}
		return err
	}
	return a.sink.HandleBatch(b)
}

// observeAck runs the degradation state machine over the collector's
// backpressure report; see the threshold constants for the level map.
// Callers must not hold a.mu.
func (a *Agent) observeAck(ack BatchAck) {
	if ack.QueueCap <= 0 {
		return // synchronous collector: no pressure signal
	}
	pressure := float64(ack.QueueDepth) / float64(ack.QueueCap)
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case pressure >= pressureHigh:
		if a.degradeLevel < 2 {
			a.degradations++
			a.degradeLevel = 2
			a.machine.Ring.SetSampleEvery(degradedSampleEvery)
		}
		a.growStretchLocked()
	case pressure >= pressureLow:
		if a.degradeLevel == 2 {
			a.machine.Ring.SetSampleEvery(0)
		}
		if a.degradeLevel < 1 {
			a.degradations++
		}
		a.degradeLevel = 1
		a.growStretchLocked()
	case pressure < pressureClear:
		if a.degradeLevel > 0 {
			a.recoveries++
			a.degradeLevel = 0
			a.machine.Ring.SetSampleEvery(0)
		}
		a.flushStretch = 1
	}
	// Between pressureClear and pressureLow the current state holds.
}

// growStretchLocked doubles the flush-interval stretch up to the cap.
// Callers hold a.mu.
func (a *Agent) growStretchLocked() {
	a.flushStretch *= 2
	if a.flushStretch > maxFlushStretch {
		a.flushStretch = maxFlushStretch
	}
}

// DegradeStats reports the overload-degradation state: the current level
// and flush stretch, how often the agent entered a degraded mode and
// fully recovered, how many periodic flushes ran on a stretched
// interval, and how many ring writes sampling mode rejected.
type DegradeStats struct {
	Level              uint8
	FlushStretch       int
	Degradations       uint64
	Recoveries         uint64
	StretchedIntervals uint64
	SampleDrops        uint64
}

// DegradeStats snapshots the degradation controller.
func (a *Agent) DegradeStats() DegradeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return DegradeStats{
		Level:              a.degradeLevel,
		FlushStretch:       a.flushStretch,
		Degradations:       a.degradations,
		Recoveries:         a.recoveries,
		StretchedIntervals: a.stretchedIntervals,
		SampleDrops:        a.machine.Ring.SampleDrops(),
	}
}

// ShipSpooled attempts to deliver the spooled backlog without draining
// the ring — the retry path of a process that no longer owns its machine
// (a zombie after a restart handed the ring to its successor). The live
// flush loop covers the normal case; this exists for explicit drains.
func (a *Agent) ShipSpooled() error {
	a.flushMu.Lock()
	defer a.flushMu.Unlock()
	return a.ship(a.machine.Node.Clock.NowNs())
}

// noteShipLocked updates error/backoff state after a ship attempt.
// Callers hold a.mu.
func (a *Agent) noteShipLocked(err error) {
	a.lastFlushErr = err
	if err == nil {
		a.backoffSkips = 0
		a.backoffNext = 1
		return
	}
	a.flushErrs++
	// Jitter: skip the base count plus up to half of it again, drawn from
	// the per-agent seeded RNG — deterministic per agent, divergent
	// across a fleet, so collector recovery is not met by a thundering
	// herd of synchronized retries.
	a.backoffSkips = a.backoffNext + a.jitterRNG.Intn(a.backoffNext/2+1)
	a.backoffNext *= 2
	if a.backoffNext > maxBackoffTicks {
		a.backoffNext = maxBackoffTicks
	}
}

// BackoffSkips reports the currently armed retry delay in flush ticks
// (for observability and the jitter-divergence test).
func (a *Agent) BackoffSkips() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.backoffSkips
}

// FlushErrors reports how many ship attempts failed and the most recent
// failure (nil once a later attempt succeeded). Failed flushes do not
// stop the flush loop — a transient collector outage must not silence the
// heartbeat forever — and since the spool re-queues their records, they
// cost retry latency, not data.
func (a *Agent) FlushErrors() (uint64, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flushErrs, a.lastFlushErr
}

// SetSpoolLimit bounds the delivery spool to the given payload bytes
// (default DefaultSpoolBytes). Shrinking it below the current contents
// evicts oldest batches on the next enqueue.
func (a *Agent) SetSpoolLimit(bytes int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.spoolLimit = bytes
}

// RingStats reports the machine's per-CPU trace rings as the agent sees
// them: one cumulative drop counter per ring plus totals. The per-ring
// counters are the ground truth behind the RingDrops field shipped with
// every batch — their sum always equals the sum of all shipped (and
// still-spooled) batch drop counts.
type RingStats struct {
	// Rings is the ring count (the machine's CPU count).
	Rings int
	// PerRingDrops is each ring's cumulative rejected-write counter, in
	// CPU order.
	PerRingDrops []uint64
	// Drops is the sum of PerRingDrops.
	Drops uint64
	// Writes counts successful ring writes across all rings.
	Writes uint64
	// UsedBytes is the currently buffered (not yet drained) byte count.
	UsedBytes int
}

// RingStats snapshots the per-CPU ring buffers.
func (a *Agent) RingStats() RingStats {
	ring := a.machine.Ring
	st := RingStats{
		Rings:        ring.NumRings(),
		PerRingDrops: ring.AppendPerRingDrops(nil),
		Writes:       ring.Writes(),
		UsedBytes:    ring.Used(),
	}
	for _, d := range st.PerRingDrops {
		st.Drops += d
	}
	return st
}

// SpoolStats snapshots the delivery spool.
func (a *Agent) SpoolStats() SpoolStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := SpoolStats{
		Bytes:          a.spoolBytes,
		Limit:          a.spoolLimit,
		EvictedBatches: a.evictedBatches,
		EvictedRecords: a.evictedRecords,
		Retries:        a.retries,
		NextSeq:        a.nextSeq,
	}
	for _, sb := range a.spool {
		if sb.scripts == nil {
			st.Batches++
			st.Records += len(sb.recs)
		}
	}
	return st
}

// StartFlushing schedules periodic flushes on the machine's simulation
// engine.
func (a *Agent) StartFlushing(intervalNs int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.startFlushingLocked(intervalNs)
}

func (a *Agent) startFlushingLocked(intervalNs int64) {
	if a.flushTimer != nil {
		a.flushTimer.Cancel()
	}
	a.flushEvery = intervalNs
	eng := a.machine.Node.Engine()
	var tick func()
	tick = func() {
		// Keep flushing on error: the flush doubles as the heartbeat, and a
		// dead loop would make the collector wrongly declare this agent
		// dead after one transient sink failure. Failed batches stay
		// spooled; the error surfaces through FlushErrors.
		a.flushTick()
		a.mu.Lock()
		next := a.flushEvery
		if a.flushStretch > 1 {
			// Overload degradation: stretch the flush cadence so a
			// pressured collector sees fewer, larger batches.
			next *= int64(a.flushStretch)
			a.stretchedIntervals++
		}
		a.flushTimer = eng.Schedule(next, tick)
		a.mu.Unlock()
	}
	a.flushTimer = eng.Schedule(intervalNs, tick)
}

// StopFlushing cancels the periodic flush.
func (a *Agent) StopFlushing() {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.flushTimer != nil {
		a.flushTimer.Cancel()
		a.flushTimer = nil
	}
}
