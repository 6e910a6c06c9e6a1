package control

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"vnettracer/internal/script"
)

// The dispatcher's retry backoff bounds: the first failed push retries
// after DefaultRetryBackoffNs, doubling (plus jitter) up to
// DefaultMaxRetryBackoffNs.
const (
	DefaultRetryBackoffNs    = 100e6 // 100ms
	DefaultMaxRetryBackoffNs = 5e9   // 5s
)

// Dispatcher is the control data dispatcher on the master node: it keeps a
// roster of agents and converges each one to its desired state. TPID
// allocation is centralized here so tracepoint tables never collide across
// agents, and each registration carries an epoch lease: a monotonically
// increasing per-agent counter that lets the collector fence batches from
// a zombie pre-restart process. Desired state is pushed as an idempotent
// Replace package; a failed push is retried with capped exponential
// backoff plus jitter, and an agent whose lease advances (it restarted and
// lost its tracepoints) is re-provisioned. Drive retries with Tick.
type Dispatcher struct {
	mu     sync.Mutex
	agents map[string]*rosterEntry
	nextTP uint32
	rng    *rand.Rand
	stats  DispatcherStats
}

// rosterEntry is everything the dispatcher knows of one agent: its
// control client and epoch lease, the state it should run, and how far
// the last push got toward it.
type rosterEntry struct {
	client ControlClient // nil until Register
	epoch  uint64        // current lease; 0 = never granted

	specs           map[string]script.Spec // desired scripts; nil until Desire
	order           []string               // install order, kept stable across re-pushes
	flushIntervalNs int64
	shipAggregates  bool // desired aggregate-drain mode, survives re-pushes

	applied      bool   // desired state successfully pushed at appliedEpoch
	appliedEpoch uint64 // epoch the last successful push targeted
	failures     int    // consecutive push failures
	nextRetryNs  int64  // earliest time for the next push attempt
}

// DispatcherStats reports the dispatcher's push work.
type DispatcherStats struct {
	// Desired counts agents with recorded desired state.
	Desired int
	// Pushes counts every push attempt; Failures the ones that errored;
	// Retries the attempts that followed at least one failure.
	Pushes   uint64
	Failures uint64
	Retries  uint64
	// Reprovisions counts full desired-state re-pushes triggered by an
	// epoch advance — agents that restarted and got their tracepoints
	// re-attached without operator action.
	Reprovisions uint64
	// PendingRetries counts agents currently out of sync (failed push or
	// unhealed epoch advance) awaiting their next attempt.
	PendingRetries int
}

// NewDispatcher returns an empty dispatcher. The jitter RNG is
// deterministically seeded so simulations replay; SetJitterSeed reseeds
// it.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{
		agents: make(map[string]*rosterEntry),
		nextTP: 1,
		rng:    rand.New(rand.NewSource(1)),
	}
}

// entryLocked returns the agent's roster entry, creating an empty one.
// Callers hold d.mu.
func (d *Dispatcher) entryLocked(name string) *rosterEntry {
	e, ok := d.agents[name]
	if !ok {
		e = &rosterEntry{}
		d.agents[name] = e
	}
	return e
}

// Register adds an agent to the roster, granting it epoch lease 1.
// Registering a name twice is an error; a restarted agent re-joins with
// Reregister, which bumps the lease.
func (d *Dispatcher) Register(name string, client ControlClient) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(name)
	if e.client != nil {
		return fmt.Errorf("control: dispatcher: agent %q already registered", name)
	}
	e.client = client
	e.epoch++
	return nil
}

// Reregister replaces an agent's control client and grants it the next
// epoch lease — the restart path: the new incarnation's batches carry the
// new epoch, and the old incarnation's are fenced at the collector. An
// unknown name registers fresh (epoch 1). The granted epoch is returned
// for the caller to stamp into the agent.
func (d *Dispatcher) Reregister(name string, client ControlClient) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(name)
	e.client = client
	e.epoch++
	return e.epoch
}

// AdvanceEpoch bumps an agent's epoch lease without replacing its
// control client — the re-homing path: the same agent process gets a new
// lease when its home collector fails, so batches still in flight toward
// the old collector are fenced while the agent itself keeps running (and
// keeps its sequence space). The granted epoch is returned for the caller
// to stamp into the agent and the successor collector's ledger.
func (d *Dispatcher) AdvanceEpoch(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(name)
	e.epoch++
	return e.epoch
}

// Epoch returns the agent's current epoch lease (0 = never registered).
func (d *Dispatcher) Epoch(name string) uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.agents[name]; ok {
		return e.epoch
	}
	return 0
}

// AllocTPID reserves a fresh tracepoint ID.
func (d *Dispatcher) AllocTPID() uint32 {
	d.mu.Lock()
	defer d.mu.Unlock()
	id := d.nextTP
	d.nextTP++
	return id
}

// SetJitterSeed reseeds the backoff jitter source (deterministic replay).
func (d *Dispatcher) SetJitterSeed(seed int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rng = rand.New(rand.NewSource(seed))
}

// Desire merges pkg into the agent's desired state and pushes the full
// state immediately. Install specs add to (or, by name, update) the
// desired set; Uninstall names leave it; a positive FlushIntervalNs
// updates the desired flush cadence. The push error is returned so
// synchronous mistakes (a spec that doesn't compile) surface to the
// caller — but the state is recorded first, and a failed push (an agent
// not yet registered included) is retried by Tick with backoff either way.
func (d *Dispatcher) Desire(agent string, pkg ControlPackage, nowNs int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(agent)
	if e.specs == nil {
		e.specs = make(map[string]script.Spec)
	}
	for _, name := range pkg.Uninstall {
		if _, had := e.specs[name]; had {
			delete(e.specs, name)
			for i, n := range e.order {
				if n == name {
					e.order = append(e.order[:i], e.order[i+1:]...)
					break
				}
			}
		}
	}
	for _, spec := range pkg.Install {
		if _, had := e.specs[spec.Name]; !had {
			e.order = append(e.order, spec.Name)
		}
		e.specs[spec.Name] = spec
	}
	if pkg.FlushIntervalNs > 0 {
		e.flushIntervalNs = pkg.FlushIntervalNs
	}
	if pkg.ShipAggregates {
		e.shipAggregates = true
	}
	e.applied = false // state changed: must re-push even if it was in sync
	return d.pushLocked(agent, e, nowNs)
}

// Desired returns the full desired-state package for an agent (what a
// push would send), and whether any state is recorded.
func (d *Dispatcher) Desired(agent string) (ControlPackage, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	e, ok := d.agents[agent]
	if !ok || e.specs == nil {
		return ControlPackage{}, false
	}
	return e.packageLocked(), true
}

// packageLocked builds the idempotent full-state push for this agent.
func (e *rosterEntry) packageLocked() ControlPackage {
	pkg := ControlPackage{Replace: true, FlushIntervalNs: e.flushIntervalNs, ShipAggregates: e.shipAggregates}
	for _, name := range e.order {
		pkg.Install = append(pkg.Install, e.specs[name])
	}
	return pkg
}

// pending reports whether the agent's desired state is not applied at its
// current lease.
func (e *rosterEntry) pending() bool {
	return !e.applied || e.appliedEpoch < e.epoch
}

// pushLocked attempts the full desired-state push and updates retry and
// reprovision bookkeeping. Callers hold d.mu.
func (d *Dispatcher) pushLocked(agent string, e *rosterEntry, nowNs int64) error {
	reprovision := e.applied && e.appliedEpoch > 0 && e.appliedEpoch < e.epoch
	d.stats.Pushes++
	if e.failures > 0 {
		d.stats.Retries++
	}
	var err error
	if e.client == nil {
		err = fmt.Errorf("control: dispatcher: push to %q: unknown agent", agent)
	} else if aerr := e.client.Apply(e.packageLocked()); aerr != nil {
		err = fmt.Errorf("control: dispatcher: push to %q: %w", agent, aerr)
	}
	if err != nil {
		e.failures++
		d.stats.Failures++
		backoff := int64(DefaultRetryBackoffNs)
		for i := 1; i < e.failures && backoff < DefaultMaxRetryBackoffNs; i++ {
			backoff *= 2
		}
		if backoff > DefaultMaxRetryBackoffNs {
			backoff = DefaultMaxRetryBackoffNs
		}
		// Jitter of up to half the backoff keeps a fleet of failed
		// pushes from re-converging on the dispatcher in lockstep.
		e.nextRetryNs = nowNs + backoff + d.rng.Int63n(backoff/2+1)
		return err
	}
	e.applied = true
	e.appliedEpoch = e.epoch
	e.failures = 0
	e.nextRetryNs = 0
	if reprovision {
		d.stats.Reprovisions++
	}
	return nil
}

// Tick runs one supervision pass at the given time: any agent whose
// desired state is not applied at its current epoch — a failed push past
// its backoff deadline, or an epoch advance from a restart — gets the
// full desired state re-pushed. Agents are visited in name order, so
// simulated runs replay deterministically.
func (d *Dispatcher) Tick(nowNs int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	names := make([]string, 0, len(d.agents))
	for name, e := range d.agents {
		if e.specs != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		e := d.agents[name]
		if !e.pending() || nowNs < e.nextRetryNs {
			continue
		}
		// Errors are retried on a later tick; they already count in
		// stats.Failures and remain visible through Stats.
		_ = d.pushLocked(name, e, nowNs)
	}
}

// Stats snapshots the push counters.
func (d *Dispatcher) Stats() DispatcherStats {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := d.stats
	for _, e := range d.agents {
		if e.specs == nil {
			continue
		}
		st.Desired++
		if e.pending() {
			st.PendingRetries++
		}
	}
	return st
}
