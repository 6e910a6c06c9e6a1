package vnettracer

import (
	"errors"
	"fmt"
	"sort"

	"vnettracer/internal/control"
	"vnettracer/internal/metrics"
	"vnettracer/internal/tracedb"
)

// Session is a complete in-process tracer deployment: a dispatcher, a
// collector over a fresh trace database, and one agent per monitored
// machine. It is the programmatic equivalent of running the vnettracer
// CLI's dispatcher, agents, and collector against a set of machines.
type Session struct {
	db         *tracedb.DB
	collector  *control.Collector
	dispatcher *control.Dispatcher
	supervisor *control.Supervisor
	// query is the one-partition cluster view over db: the session answers
	// every table-level metric through the same layer a scaled-out tier
	// does.
	query  *ClusterQuery
	agents map[string]*control.Agent
	labels map[string]uint32
	// flushNs is the interval StartFlushing armed, kept so a restarted
	// agent gets the same timer.
	flushNs int64
}

// NewSession creates an empty session with default in-memory storage.
func NewSession() *Session { return NewSessionWith(StoreConfig{}) }

// NewSessionWith creates an empty session whose trace database uses the
// given segment-store configuration (segment size, spill directory,
// retention budget).
func NewSessionWith(cfg StoreConfig) *Session {
	db := tracedb.NewWith(cfg)
	disp := control.NewDispatcher()
	sup := control.NewSupervisor(disp)
	// The collector's heartbeat ledger doubles as the supervisor's epoch
	// observer: a restarted agent announces its new lease through its
	// first heartbeat and gets its tracepoints re-pushed.
	sup.SetLedger(db)
	return &Session{
		db:         db,
		collector:  control.NewCollector(db),
		dispatcher: disp,
		supervisor: sup,
		query:      NewClusterQuery().AddDB(db),
		agents:     make(map[string]*control.Agent),
		labels:     make(map[string]uint32),
	}
}

// DB returns the session's trace database.
func (s *Session) DB() *DB { return s.db }

// StorageStats returns the trace database's aggregate segment-store
// accounting (resident vs spilled bytes, compression ratio, evictions).
func (s *Session) StorageStats() StorageStats { return s.db.StorageTotals() }

// Dispatcher returns the session's control dispatcher.
func (s *Session) Dispatcher() *Dispatcher { return s.dispatcher }

// Collector returns the session's raw data collector.
func (s *Session) Collector() *Collector { return s.collector }

// Supervisor returns the session's control-plane supervisor: the
// desired-state layer that retries failed pushes and re-provisions
// restarted agents.
func (s *Session) Supervisor() *control.Supervisor { return s.supervisor }

// Supervise runs one supervision pass at the given time: failed pushes
// past their backoff deadline are retried, and agents observed at a new
// epoch (restarted) get their full desired state re-pushed. Call it
// periodically (e.g. from an engine timer).
func (s *Session) Supervise(nowNs int64) { s.supervisor.Tick(nowNs) }

// AddMachine registers a machine under a new agent named after its node.
func (s *Session) AddMachine(m *Machine) (*Agent, error) {
	name := m.Node.Name
	if _, dup := s.agents[name]; dup {
		return nil, fmt.Errorf("vnettracer: machine %q already in session", name)
	}
	agent := control.NewAgent(name, m, s.collector)
	if err := s.dispatcher.Register(name, agent); err != nil {
		return nil, err
	}
	agent.SetEpoch(s.dispatcher.Epoch(name))
	s.agents[name] = agent
	return agent, nil
}

// RestartAgent models an agent-process restart: the machine gets a fresh
// agent with the next epoch lease and the session's periodic flush, the
// dispatcher's roster points at it, and the next supervision pass
// re-pushes the desired state so its tracepoints re-attach. The previous
// agent object (the "zombie") is returned: anything it still ships
// carries the old epoch and is fenced by the collector.
func (s *Session) RestartAgent(machine string) (*Agent, *Agent, error) {
	old, ok := s.agents[machine]
	if !ok {
		return nil, nil, fmt.Errorf("vnettracer: machine %q not in session", machine)
	}
	// Process death: the flush loop dies and the kernel detaches the
	// process's probes; only the spool survives in the zombie.
	old.StopFlushing()
	if err := old.Apply(ControlPackage{Replace: true}); err != nil {
		return nil, nil, err
	}
	agent := control.NewAgent(machine, old.Machine(), s.collector)
	agent.SetEpoch(s.dispatcher.Reregister(machine, agent))
	if s.flushNs > 0 {
		agent.StartFlushing(s.flushNs)
	}
	s.agents[machine] = agent
	return agent, old, nil
}

// nowNs reads a machine's simulated clock for supervision bookkeeping
// (retry deadlines); unknown machines read as time zero.
func (s *Session) nowNs(machine string) int64 {
	if a, ok := s.agents[machine]; ok {
		return a.Machine().Node.Clock.NowNs()
	}
	return 0
}

// Agent returns a machine's agent by node name.
func (s *Session) Agent(machine string) (*Agent, bool) {
	a, ok := s.agents[machine]
	return a, ok
}

// Install pushes a full trace spec to a machine's agent, allocating a TPID
// if the spec has none and creating the record table when the spec records.
// It returns the spec's TPID.
func (s *Session) Install(machine string, spec TraceSpec) (uint32, error) {
	if spec.TPID == 0 {
		spec.TPID = s.dispatcher.AllocTPID(spec.Name)
	}
	s.labels[spec.Name] = spec.TPID
	for _, a := range spec.Actions {
		if a == ActionRecord {
			if _, err := s.db.CreateTable(spec.TPID, spec.Name); err != nil {
				return 0, err
			}
			break
		}
	}
	if err := s.supervisor.Desire(machine, ControlPackage{Install: []TraceSpec{spec}}, s.nowNs(machine)); err != nil {
		return 0, err
	}
	return spec.TPID, nil
}

// InstallRecord is shorthand for installing a record-action script under a
// label.
func (s *Session) InstallRecord(machine, label string, at AttachPoint, filter Filter) (uint32, error) {
	return s.Install(machine, TraceSpec{
		Name:    label,
		Attach:  at,
		Filter:  filter,
		Actions: []Action{ActionRecord},
	})
}

// Uninstall removes a script from a machine at runtime: the label leaves
// the supervisor's desired state and the reduced state is re-pushed.
func (s *Session) Uninstall(machine, label string) error {
	if desired, ok := s.supervisor.Desired(machine); ok {
		for _, spec := range desired.Install {
			if spec.Name == label {
				return s.supervisor.Desire(machine,
					ControlPackage{Uninstall: []string{label}}, s.nowNs(machine))
			}
		}
	}
	return fmt.Errorf("vnettracer: machine %q has no script %q installed", machine, label)
}

// agentNames returns the registered machine names in sorted order so
// flush timers and error lists are deterministic across runs.
func (s *Session) agentNames() []string {
	names := make([]string, 0, len(s.agents))
	for name := range s.agents {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// StartFlushing arms periodic ring-buffer flushes on every agent, and on
// every agent a later RestartAgent creates. Call after installing
// scripts; without it long runs overflow the bounded kernel buffer (the
// paper dumps the buffer periodically for the same reason).
func (s *Session) StartFlushing(intervalNs int64) {
	s.flushNs = intervalNs
	for _, name := range s.agentNames() {
		s.agents[name].StartFlushing(intervalNs)
	}
}

// Flush drains every agent's ring buffer to the collector. Every agent is
// flushed even if some fail; failures come back joined. Records from a
// failed flush stay in that agent's delivery spool for retry.
func (s *Session) Flush() error {
	var errs []error
	for _, name := range s.agentNames() {
		if err := s.agents[name].Flush(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// tpids resolves script labels to their tracepoint IDs.
func (s *Session) tpids(labels ...string) ([]uint32, error) {
	out := make([]uint32, len(labels))
	for i, l := range labels {
		tpid, ok := s.labels[l]
		if !ok {
			return nil, fmt.Errorf("vnettracer: unknown script label %q", l)
		}
		out[i] = tpid
	}
	return out, nil
}

// Table returns the record table behind a script label.
func (s *Session) Table(label string) (*Table, error) {
	ids, err := s.tpids(label)
	if err != nil {
		return nil, err
	}
	t, ok := s.db.Table(ids[0])
	if !ok {
		return nil, fmt.Errorf("vnettracer: no table for %q", label)
	}
	return t, nil
}

// ScanTable streams a label's records in insertion order without copying
// the table; fn returns false to stop early. Inserts arriving concurrently
// are not blocked and not visited.
func (s *Session) ScanTable(label string, fn func(Record) bool) error {
	t, err := s.Table(label)
	if err != nil {
		return err
	}
	t.Scan(fn)
	return nil
}

// Throughput computes one-pass throughput over a label's table (the
// paper's sum(S_i - S_ID) / (T_N - T_1)).
func (s *Session) Throughput(label string) (float64, error) {
	ids, err := s.tpids(label)
	if err != nil {
		return 0, err
	}
	return s.query.Throughput(ids[0])
}

// PerFlowThroughput computes one-pass per-flow throughput over a label's
// table.
func (s *Session) PerFlowThroughput(label string) ([]metrics.FlowStats, error) {
	ids, err := s.tpids(label)
	if err != nil {
		return nil, err
	}
	return s.query.PerFlowThroughput(ids[0])
}

// SetSkew records a clock-offset correction (e.g. from Cristian's
// algorithm) for a label's tracepoint; subsequent analyses align its
// timestamps.
func (s *Session) SetSkew(label string, skewNs int64) error {
	ids, err := s.tpids(label)
	if err != nil {
		return err
	}
	s.db.SetSkew(ids[0], skewNs)
	return nil
}

// Decompose splits end-to-end latency across a path of script labels,
// returning one segment per consecutive pair (the paper's latency
// decomposition). Tables are skew-aligned before joining.
func (s *Session) Decompose(labels ...string) ([]metrics.Segment, error) {
	ids, err := s.tpids(labels...)
	if err != nil {
		return nil, err
	}
	return s.query.Decompose(ids...)
}

// Script returns an installed script's compiled form (for reading its
// counter and histogram maps).
func (s *Session) Script(machine, label string) (*Compiled, bool) {
	a, ok := s.agents[machine]
	if !ok {
		return nil, false
	}
	return a.Script(label)
}
