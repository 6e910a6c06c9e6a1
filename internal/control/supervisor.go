package control

import (
	"math/rand"
	"sort"
	"sync"

	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// The supervisor's retry backoff bounds: the first failed push retries
// after DefaultRetryBackoffNs, doubling (plus jitter) up to
// DefaultMaxRetryBackoffNs.
const (
	DefaultRetryBackoffNs    = 100e6 // 100ms
	DefaultMaxRetryBackoffNs = 5e9   // 5s
)

// LedgerSource is where the supervisor observes agent epochs from the
// data path: the collector's heartbeat ledger (tracedb.DB implements it).
// A restarted agent announces its new lease through its very first
// heartbeat, so the supervisor notices restarts even when the restart
// didn't go through Dispatcher.Reregister on this node.
type LedgerSource interface {
	Ledger(agent string) (tracedb.AgentLedger, bool)
}

// Supervisor turns the dispatcher's fire-and-forget pushes into converged
// desired state. It remembers the full ControlPackage set each agent is
// supposed to run, pushes it as an idempotent Replace package, retries
// failures with capped exponential backoff plus jitter, and re-provisions
// an agent automatically when its epoch advances (the agent restarted and
// lost its tracepoints). Drive it with Tick from a periodic timer.
type Supervisor struct {
	mu      sync.Mutex
	disp    *Dispatcher
	ledger  LedgerSource
	desired map[string]*desiredState
	rng     *rand.Rand
	stats   SupervisorStats
}

// desiredState is the supervisor's record of what one agent should run.
type desiredState struct {
	specs           map[string]script.Spec
	order           []string // install order, kept stable across re-pushes
	flushIntervalNs int64
	shipAggregates  bool   // desired aggregate-drain mode, survives re-pushes
	applied         bool   // desired state successfully pushed at appliedEpoch
	appliedEpoch    uint64 // epoch the last successful push targeted
	failures        int    // consecutive push failures
	nextRetryNs     int64  // earliest time for the next push attempt
}

// SupervisorStats reports the supervision loop's work.
type SupervisorStats struct {
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

// NewSupervisor wraps a dispatcher. The jitter RNG is deterministically
// seeded so simulations replay; SetJitterSeed reseeds it.
func NewSupervisor(disp *Dispatcher) *Supervisor {
	return &Supervisor{
		disp:    disp,
		desired: make(map[string]*desiredState),
		rng:     rand.New(rand.NewSource(1)),
	}
}

// SetLedger points the supervisor at the collector's heartbeat ledger so
// epoch advances observed on the data path trigger re-provisioning.
func (s *Supervisor) SetLedger(ls LedgerSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger = ls
}

// SetJitterSeed reseeds the backoff jitter source (deterministic replay).
func (s *Supervisor) SetJitterSeed(seed int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.rng = rand.New(rand.NewSource(seed))
}

// Desire merges pkg into the agent's desired state and pushes the full
// state immediately. Install specs add to (or, by name, update) the
// desired set; Uninstall names leave it; a positive FlushIntervalNs
// updates the desired flush cadence. The push error is returned so
// synchronous mistakes (a spec that doesn't compile) surface to the
// caller — but the state is recorded first, and a failed push is retried
// by Tick with backoff either way.
func (s *Supervisor) Desire(agent string, pkg ControlPackage, nowNs int64) error {
	s.mu.Lock()
	ds, ok := s.desired[agent]
	if !ok {
		ds = &desiredState{specs: make(map[string]script.Spec)}
		s.desired[agent] = ds
	}
	for _, name := range pkg.Uninstall {
		if _, had := ds.specs[name]; had {
			delete(ds.specs, name)
			for i, n := range ds.order {
				if n == name {
					ds.order = append(ds.order[:i], ds.order[i+1:]...)
					break
				}
			}
		}
	}
	for _, spec := range pkg.Install {
		if _, had := ds.specs[spec.Name]; !had {
			ds.order = append(ds.order, spec.Name)
		}
		ds.specs[spec.Name] = spec
	}
	if pkg.FlushIntervalNs > 0 {
		ds.flushIntervalNs = pkg.FlushIntervalNs
	}
	if pkg.ShipAggregates {
		ds.shipAggregates = true
	}
	ds.applied = false // state changed: must re-push even if it was in sync
	err := s.pushLocked(agent, ds, nowNs)
	s.mu.Unlock()
	return err
}

// Desired returns the full desired-state package for an agent (what a
// push would send), and whether any state is recorded.
func (s *Supervisor) Desired(agent string) (ControlPackage, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ds, ok := s.desired[agent]
	if !ok {
		return ControlPackage{}, false
	}
	return ds.packageLocked(), true
}

// packageLocked builds the idempotent full-state push for this agent.
func (ds *desiredState) packageLocked() ControlPackage {
	pkg := ControlPackage{Replace: true, FlushIntervalNs: ds.flushIntervalNs, ShipAggregates: ds.shipAggregates}
	for _, name := range ds.order {
		pkg.Install = append(pkg.Install, ds.specs[name])
	}
	return pkg
}

// targetEpochLocked resolves the epoch the agent should be at: the newer
// of the dispatcher's granted lease and the lease last heard on the data
// path. Callers hold s.mu.
func (s *Supervisor) targetEpochLocked(agent string) uint64 {
	epoch := s.disp.Epoch(agent)
	if s.ledger != nil {
		if l, ok := s.ledger.Ledger(agent); ok && l.Epoch > epoch {
			epoch = l.Epoch
		}
	}
	return epoch
}

// pushLocked attempts the full desired-state push and updates retry and
// reprovision bookkeeping. Callers hold s.mu.
func (s *Supervisor) pushLocked(agent string, ds *desiredState, nowNs int64) error {
	target := s.targetEpochLocked(agent)
	reprovision := ds.applied && ds.appliedEpoch > 0 && ds.appliedEpoch < target
	s.stats.Pushes++
	if ds.failures > 0 {
		s.stats.Retries++
	}
	err := s.disp.Push(agent, ds.packageLocked())
	if err != nil {
		ds.failures++
		s.stats.Failures++
		backoff := int64(DefaultRetryBackoffNs)
		for i := 1; i < ds.failures && backoff < DefaultMaxRetryBackoffNs; i++ {
			backoff *= 2
		}
		if backoff > DefaultMaxRetryBackoffNs {
			backoff = DefaultMaxRetryBackoffNs
		}
		// Jitter of up to half the backoff keeps a fleet of failed
		// pushes from re-converging on the dispatcher in lockstep.
		ds.nextRetryNs = nowNs + backoff + s.rng.Int63n(backoff/2+1)
		return err
	}
	ds.applied = true
	ds.appliedEpoch = target
	ds.failures = 0
	ds.nextRetryNs = 0
	if reprovision {
		s.stats.Reprovisions++
	}
	return nil
}

// Tick runs one supervision pass at the given time: any agent whose
// desired state is not applied at its current epoch — a failed push past
// its backoff deadline, or an epoch advance observed from a restart —
// gets the full desired state re-pushed. Agents are visited in name
// order, so simulated runs replay deterministically.
func (s *Supervisor) Tick(nowNs int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.desired))
	for name := range s.desired {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ds := s.desired[name]
		if ds.applied && ds.appliedEpoch >= s.targetEpochLocked(name) {
			continue
		}
		if nowNs < ds.nextRetryNs {
			continue
		}
		// Errors are retried on a later tick; they already count in
		// stats.Failures and remain visible through Stats.
		_ = s.pushLocked(name, ds, nowNs)
	}
}

// Stats snapshots the supervision counters.
func (s *Supervisor) Stats() SupervisorStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Desired = len(s.desired)
	for name, ds := range s.desired {
		if !ds.applied || ds.appliedEpoch < s.targetEpochLocked(name) {
			st.PendingRetries++
		}
	}
	return st
}
