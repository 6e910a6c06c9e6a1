package vnettracer

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"vnettracer/internal/control"
	"vnettracer/internal/metrics"
	"vnettracer/internal/tracedb"
)

// Session is a complete in-process tracer deployment: a dispatcher, a
// supervisor, a collector tier of one or more collectors, and one agent
// per monitored machine. It is the programmatic equivalent of running the
// vnettracer CLI's dispatcher, agents, and collectors against a set of
// machines. One collector is a cluster of one: agents are placed on their
// home collector by consistent hashing on the machine name, every record
// table has a (possibly empty) partition on every collector, and every
// metric is answered through the merged ClusterQuery view.
type Session struct {
	dispatcher *control.Dispatcher
	cluster    *control.Cluster
	supervisor *control.Supervisor
	cols       []*sessionCollector
	// query merges every collector's database and aggregate store, in
	// collector order; a recovery swaps the new incarnation's in.
	query  *ClusterQuery
	agents map[string]*control.Agent
	labels map[string]uint32
	// tables keeps each record table's name and skew for collectors that
	// join or recover later.
	tables map[uint32]*tableMeta
	// flushNs is the interval StartFlushing armed, kept so a restarted
	// agent gets the same timer.
	flushNs int64
}

// sessionCollector is one collector of the tier: its current incarnation
// and what reopens it after a crash.
type sessionCollector struct {
	idx   int
	name  string
	col   *control.Collector
	dur   *tracedb.Durability // nil when unlogged
	store StoreConfig
	log   DurabilityConfig
	wrap  SinkWrapper
}

type tableMeta struct {
	name string
	skew int64
}

// SinkWrapper interposes on a collector's delivery path: agents homed on
// the collector ship to what it returns instead of to the collector
// itself. It is called with each incarnation (at AddCollector and again at
// RecoverCollector). Fault-injection harnesses use it; deployments pass nil.
type SinkWrapper func(name string, col *Collector) RecordSink

// NewSession creates a session of one collector with default in-memory
// storage.
func NewSession() *Session { return NewSessionWith(StoreConfig{}) }

// NewSessionWith creates a session of one unlogged collector whose trace
// database uses the given segment-store configuration (segment size,
// spill directory, retention budget).
func NewSessionWith(cfg StoreConfig) *Session {
	s := NewClusterSession()
	if _, err := s.AddCollector(cfg, DurabilityConfig{}, nil); err != nil {
		panic(err) // an unlogged collector opens without I/O
	}
	return s
}

// NewClusterSession creates a session with an empty collector tier: add
// collectors with AddCollector before adding machines.
func NewClusterSession() *Session {
	disp := control.NewDispatcher()
	clu := control.NewCluster(disp)
	sup := control.NewSupervisor(disp)
	// The home collectors' heartbeat ledgers double as the supervisor's
	// epoch observer: a restarted agent announces its new lease through its
	// first heartbeat and gets its tracepoints re-pushed.
	sup.SetLedger(clu)
	return &Session{
		dispatcher: disp,
		cluster:    clu,
		supervisor: sup,
		query:      NewClusterQuery(),
		agents:     make(map[string]*control.Agent),
		labels:     make(map[string]uint32),
		tables:     make(map[uint32]*tableMeta),
	}
}

// AddCollector opens a collector (control.OpenCollector: an empty log.Dir
// means unlogged, otherwise startup recovers from the directories) and
// joins it to the tier as col-<i>, i counting from 0. It gets a partition
// of every record table. Placement is sticky: agents already homed
// elsewhere stay there.
func (s *Session) AddCollector(store StoreConfig, log DurabilityConfig, wrap SinkWrapper) (string, error) {
	i := len(s.cols)
	sc := &sessionCollector{idx: i, name: fmt.Sprintf("col-%d", i), store: store, log: log, wrap: wrap}
	sink, _, err := s.open(sc)
	if err != nil {
		return "", err
	}
	if err := s.cluster.AddCollector(sc.name, sc.col, sink); err != nil {
		return "", err
	}
	s.cols = append(s.cols, sc)
	s.query.AddCollector(sc.col)
	return sc.name, nil
}

// open starts a new incarnation of a collector from its configuration and
// readies it to serve, returning the sink its agents ship to.
func (s *Session) open(sc *sessionCollector) (RecordSink, tracedb.RecoveryStats, error) {
	col, dur, rec, err := control.OpenCollector(sc.store, sc.log)
	if err != nil {
		return nil, rec, fmt.Errorf("vnettracer: open collector %s: %w", sc.name, err)
	}
	sc.col, sc.dur = col, dur
	s.prepare(col.DB())
	if sc.wrap == nil {
		return col, rec, nil
	}
	return sc.wrap(sc.name, col), rec, nil
}

// prepare gives a collector's database, before it serves traffic, its
// partition of every record table, name and skew included (a table a
// recovery rebuilt from the WAL alone knows only its TPID).
func (s *Session) prepare(db *DB) {
	for id, meta := range s.tables {
		t, ok := db.Table(id)
		if !ok {
			t, _ = db.CreateTable(id, meta.name) // cannot fail: the table is absent
		}
		t.Name = meta.name
		db.SetSkew(id, meta.skew)
	}
}

func (s *Session) collector(name string) (*sessionCollector, error) {
	for _, sc := range s.cols {
		if sc.name == name {
			return sc, nil
		}
	}
	return nil, fmt.Errorf("vnettracer: no collector %q in session", name)
}

// FailCollector declares a collector dead and re-homes its agents onto
// their consistent-hash successors (control.Cluster.FailCollector). What
// it ingested before failing stays in the merged query view.
func (s *Session) FailCollector(name string) ([]control.Rehome, error) {
	return s.cluster.FailCollector(name)
}

// RecoverCollector rebuilds a crashed durable collector purely from its
// directories — adopted extents, the latest checkpoint and the WAL tail —
// and rejoins it to the tier (control.Cluster.RecoverCollector). The dead
// incarnation is abandoned unread, and the merged query view reads the
// new one.
func (s *Session) RecoverCollector(name string) ([]control.Rehome, tracedb.RecoveryStats, error) {
	sc, err := s.collector(name)
	if err != nil {
		return nil, tracedb.RecoveryStats{}, err
	}
	if sc.log.Dir == "" {
		return nil, tracedb.RecoveryStats{}, fmt.Errorf("vnettracer: collector %q has no write-ahead log to recover from", name)
	}
	if sc.dur != nil {
		sc.dur.Close() // the dead incarnation's log handle
		sc.dur = nil
	}
	sink, rec, err := s.open(sc)
	if err != nil {
		return nil, rec, err
	}
	moves, err := s.cluster.RecoverCollector(name, sc.col, sink)
	if err != nil {
		return nil, rec, err
	}
	s.query.dbs[sc.idx], s.query.aggs[sc.idx] = sc.col.DB(), sc.col.Aggregates()
	return moves, rec, nil
}

// Durability returns a collector's write-ahead log and checkpointer; nil
// when the collector is unlogged or unknown.
func (s *Session) Durability(name string) *tracedb.Durability {
	if sc, err := s.collector(name); err == nil {
		return sc.dur
	}
	return nil
}

// Close syncs and closes every durable collector's write-ahead log.
func (s *Session) Close() error {
	var errs []error
	for _, sc := range s.cols {
		if sc.dur != nil {
			errs = append(errs, sc.dur.Close())
		}
	}
	return errors.Join(errs...)
}

// DB returns the first collector's trace database (with one collector,
// the whole store).
func (s *Session) DB() *DB { return s.cols[0].col.DB() }

// StorageStats returns the segment-store accounting (resident vs spilled
// bytes, compression ratio, evictions) summed over the tier.
func (s *Session) StorageStats() StorageStats {
	var st StorageStats
	for _, sc := range s.cols {
		st.Add(sc.col.DB().StorageTotals())
	}
	return st
}

// Dispatcher returns the session's control dispatcher.
func (s *Session) Dispatcher() *Dispatcher { return s.dispatcher }

// Collector returns the first collector (with one collector, the only
// one).
func (s *Session) Collector() *Collector { return s.cols[0].col }

// Cluster returns the collector tier's placement layer, for reading agent
// homes, ledgers and re-home counts.
func (s *Session) Cluster() *control.Cluster { return s.cluster }

// Query returns the merged read view over every collector.
func (s *Session) Query() *ClusterQuery { return s.query }

// Supervisor returns the session's control-plane supervisor: the
// desired-state layer that retries failed pushes and re-provisions
// restarted agents.
func (s *Session) Supervisor() *control.Supervisor { return s.supervisor }

// Supervise runs one supervision pass at the given time: failed pushes
// past their backoff deadline are retried, and agents observed at a new
// epoch (restarted) get their full desired state re-pushed. Call it
// periodically (e.g. from an engine timer).
func (s *Session) Supervise(nowNs int64) { s.supervisor.Tick(nowNs) }

// AddMachine registers a machine under a new agent named after its node
// and places it on its home collector.
func (s *Session) AddMachine(m *Machine) (*Agent, error) {
	name := m.Node.Name
	if _, dup := s.agents[name]; dup {
		return nil, fmt.Errorf("vnettracer: machine %q already in session", name)
	}
	agent := control.NewAgent(name, m, nil)
	if err := s.dispatcher.Register(name, agent); err != nil {
		return nil, err
	}
	if err := s.place(agent, s.dispatcher.Epoch(name)); err != nil {
		return nil, err
	}
	s.agents[name] = agent
	return agent, nil
}

// place homes an agent (sticky across restarts) and points it at its
// home's sink under the given lease.
func (s *Session) place(agent *Agent, epoch uint64) error {
	_, sink, err := s.cluster.Register(agent.Name(), agent)
	if err != nil {
		return err
	}
	agent.Retarget(sink, epoch)
	return nil
}

// KillAgent models an agent-process death: the flush loop dies and the
// kernel detaches the process's probes. The dead agent keeps its spool
// and stays the machine's agent until RestartAgent replaces it.
func (s *Session) KillAgent(machine string) (*Agent, error) {
	a, ok := s.agents[machine]
	if !ok {
		return nil, fmt.Errorf("vnettracer: machine %q not in session", machine)
	}
	a.StopFlushing()
	return a, a.Apply(ControlPackage{Replace: true})
}

// RestartAgent models an agent-process restart (killing the running one
// first if KillAgent has not): the machine gets a fresh agent with the
// next epoch lease, the previous one's spool bound and the session's
// periodic flush, homed where the machine was; the dispatcher's roster
// points at it, and the next supervision pass re-pushes the desired state
// so its tracepoints re-attach. The previous agent object (the "zombie")
// is returned: anything it still ships carries the old epoch and is
// fenced by the collector.
func (s *Session) RestartAgent(machine string) (*Agent, *Agent, error) {
	old, err := s.KillAgent(machine)
	if err != nil {
		return nil, nil, err
	}
	agent := control.NewAgent(machine, old.Machine(), nil)
	agent.SetSpoolLimit(old.SpoolStats().Limit)
	if err := s.place(agent, s.dispatcher.Reregister(machine, agent)); err != nil {
		return nil, nil, err
	}
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
	ids, err := s.InstallPackage(machine, ControlPackage{Install: []TraceSpec{spec}})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InstallPackage makes a whole control package one desired-state change
// for a machine: specs without a TPID get one, every recording spec's
// table gets a partition on every collector, and the supervisor pushes
// the package. It returns the specs' TPIDs in order. A machine not in the
// session is refused before anything is allocated.
func (s *Session) InstallPackage(machine string, pkg ControlPackage) ([]uint32, error) {
	if _, ok := s.agents[machine]; !ok {
		return nil, fmt.Errorf("vnettracer: machine %q not in session", machine)
	}
	pkg.Install = append([]TraceSpec(nil), pkg.Install...)
	ids := make([]uint32, len(pkg.Install))
	for i := range pkg.Install {
		spec := &pkg.Install[i]
		if spec.TPID == 0 {
			spec.TPID = s.dispatcher.AllocTPID(spec.Name)
		}
		ids[i] = spec.TPID
		s.labels[spec.Name] = spec.TPID
		if !slices.Contains(spec.Actions, ActionRecord) {
			continue
		}
		for _, sc := range s.cols {
			if _, err := sc.col.DB().CreateTable(spec.TPID, spec.Name); err != nil {
				return nil, err
			}
		}
		s.tables[spec.TPID] = &tableMeta{name: spec.Name}
	}
	if err := s.supervisor.Desire(machine, pkg, s.nowNs(machine)); err != nil {
		return nil, err
	}
	return ids, nil
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

// Flush drains every agent's ring buffer to its home collector. Every
// agent is flushed even if some fail; failures come back joined. Records
// from a failed flush stay in that agent's delivery spool for retry.
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

// Table returns the first collector's partition of the record table
// behind a script label (with one collector, the whole table; Query
// merges every collector's).
func (s *Session) Table(label string) (*Table, error) {
	ids, err := s.tpids(label)
	if err != nil {
		return nil, err
	}
	t, ok := s.DB().Table(ids[0])
	if !ok {
		return nil, fmt.Errorf("vnettracer: no table for %q", label)
	}
	return t, nil
}

// ScanTable streams a label's records in the first collector's partition
// in insertion order without copying the table; fn returns false to stop
// early. Inserts arriving concurrently are not blocked and not visited.
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
// algorithm) for a label's tracepoint on every collector's partition;
// subsequent analyses align its timestamps.
func (s *Session) SetSkew(label string, skewNs int64) error {
	ids, err := s.tpids(label)
	if err != nil {
		return err
	}
	if t, ok := s.tables[ids[0]]; ok {
		t.skew = skewNs
	}
	for _, sc := range s.cols {
		sc.col.DB().SetSkew(ids[0], skewNs)
	}
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
