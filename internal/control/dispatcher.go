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
// roster of agents, homes each one on a collector, and converges each one
// to its desired state. TPID allocation is centralized here so tracepoint
// tables never collide across agents, and each registration carries an
// epoch lease: a monotonically increasing per-agent counter that lets the
// collector fence batches from a zombie pre-restart process. Desired state
// is pushed as an idempotent Replace package; a failed push is retried
// with capped exponential backoff plus jitter, and an agent whose lease
// advances (it restarted and lost its tracepoints) is re-provisioned.
// Drive retries with Tick.
type Dispatcher struct {
	mu     sync.Mutex
	agents map[string]*rosterEntry
	// cols is the collector tier; ring places agents on its live members.
	cols   map[string]*member
	ring   *HashRing
	nextTP uint32
	rng    *rand.Rand
	stats  DispatcherStats
}

// AgentClient is the dispatcher's handle on one agent: control pushes,
// and retargets of its delivery under a lease. *Agent implements it.
type AgentClient interface {
	ControlClient
	Retarget(sink RecordSink, epoch uint64)
}

// rosterEntry is everything the dispatcher knows of one agent: its
// client, epoch lease and home collector, the state it should run, and
// how far the last push got toward it.
type rosterEntry struct {
	client   AgentClient // nil until Register
	epoch    uint64      // current lease; 0 = never granted
	regEpoch uint64      // lease of the last (re)registration: this incarnation's seqs start there
	home     string      // collector the agent ships to; "" until Register

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
	// Rehomes counts agent moves across all collector failures.
	Rehomes uint64
}

// NewDispatcher returns an empty dispatcher. The jitter RNG is
// deterministically seeded so simulations replay; SetJitterSeed reseeds
// it.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{
		agents: make(map[string]*rosterEntry),
		cols:   make(map[string]*member),
		ring:   NewHashRing(),
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

// Register adds an agent to the roster, granting it epoch lease 1, homes
// it on a collector and retargets client at that collector. Registering a
// name twice is an error; a restarted agent re-joins with Reregister,
// which bumps the lease.
func (d *Dispatcher) Register(name string, client AgentClient) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	e := d.entryLocked(name)
	if e.client != nil {
		return fmt.Errorf("control: dispatcher: agent %q already registered", name)
	}
	return d.joinLocked(name, e, client)
}

// Reregister replaces an agent's client and grants it the next epoch
// lease — the restart path: the new incarnation keeps the agent's home,
// is retargeted there under the new lease and starts its sequence space
// over, and the old incarnation's batches are fenced at the collector. An
// unknown name registers fresh (epoch 1).
func (d *Dispatcher) Reregister(name string, client AgentClient) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.joinLocked(name, d.entryLocked(name), client)
}

// joinLocked grants client the agent's next lease, homes the agent if it
// has no home yet (consistent hash of the name over the live collectors;
// a home is sticky across restarts) and points client at the home's sink
// under the new lease. Callers hold d.mu.
func (d *Dispatcher) joinLocked(name string, e *rosterEntry, client AgentClient) error {
	if e.home == "" {
		h, ok := d.ring.Owner(name)
		if !ok {
			return fmt.Errorf("control: dispatcher: no live collector to home agent %q", name)
		}
		e.home = h
	}
	e.client = client
	e.epoch++
	e.regEpoch = e.epoch
	client.Retarget(d.cols[e.home].sink, e.epoch)
	return nil
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
