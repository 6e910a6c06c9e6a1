package control

import (
	"fmt"
	"sort"
	"sync"

	"vnettracer/internal/tracedb"
)

// Retargeter is the agent-side hook a re-homing drives: swap the
// delivery sink to the successor collector and adopt the new epoch
// lease. *Agent implements it.
type Retargeter interface {
	Retarget(sink RecordSink, epoch uint64)
}

// Cluster scales the collector tier out: agents are assigned to
// collectors by consistent hashing on the agent name, and a collector
// failure re-homes its agents onto the survivors with an epoch-fenced
// ledger handoff. Each agent's record and aggregate ledgers stay local
// to its current home; the high-water marks travel in the handoff so
// delivery stays exactly-once across the move.
//
// The dispatcher keeps global duties (roster, TPID allocation, epoch
// leases); the cluster adds placement on top of it.
type Cluster struct {
	disp *Dispatcher

	mu     sync.Mutex
	ring   *HashRing
	cols   map[string]*member
	homes  map[string]string // agent -> collector name
	agents map[string]Retargeter
	moves  uint64
}

// member is one collector slot: the collector, the sink agents ship to
// (usually the collector itself; the harness substitutes a fault
// injector), and whether it has failed.
type member struct {
	name   string
	col    *Collector
	sink   RecordSink
	failed bool
}

// NewCluster wraps a dispatcher with collector placement.
func NewCluster(disp *Dispatcher) *Cluster {
	return &Cluster{
		disp:   disp,
		ring:   NewHashRing(0),
		cols:   make(map[string]*member),
		homes:  make(map[string]string),
		agents: make(map[string]Retargeter),
	}
}

// AddCollector joins a collector to the tier under a unique name. The
// sink is what re-homed agents are retargeted at; nil means the
// collector itself. Adding collectors after agents registered is legal
// but does not move existing agents (placement is sticky until a
// failure; rebalance-on-join is a policy choice left to the operator).
func (c *Cluster) AddCollector(name string, col *Collector, sink RecordSink) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.cols[name]; dup {
		return fmt.Errorf("control: cluster: collector %q already added", name)
	}
	if sink == nil {
		sink = col
	}
	c.cols[name] = &member{name: name, col: col, sink: sink}
	c.ring.Add(name)
	return nil
}

// Register places an agent on its home collector (consistent hash of
// the agent name over the live collector set) and returns the home's
// name and sink for the caller to wire into the agent. Registering a
// name again just refreshes the retargeter — the restart path, where a
// new Agent value takes over the name.
func (c *Cluster) Register(agent string, rt Retargeter) (home string, sink RecordSink, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.cols) == 0 {
		return "", nil, fmt.Errorf("control: cluster: no collectors")
	}
	c.agents[agent] = rt
	if h, ok := c.homes[agent]; ok {
		return h, c.cols[h].sink, nil
	}
	h, ok := c.ring.Owner(agent)
	if !ok {
		return "", nil, fmt.Errorf("control: cluster: no live collectors")
	}
	c.homes[agent] = h
	return h, c.cols[h].sink, nil
}

// Home names the collector currently owning an agent.
func (c *Cluster) Home(agent string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	h, ok := c.homes[agent]
	return h, ok
}

// Collectors lists live (non-failed) collector names, sorted.
func (c *Cluster) Collectors() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.cols))
	for name, m := range c.cols {
		if !m.failed {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Rehome is one agent's move during a collector failure.
type Rehome struct {
	Agent string
	From  string
	To    string
	Epoch uint64
}

// FailCollector marks a collector dead and re-homes its agents onto
// the survivors. Per agent, in name order:
//
//  1. the dispatcher advances the epoch lease (same process, new
//     lease — in-flight batches toward the dead collector are fenced);
//  2. the dead collector's ledgers export, and it closes the agent's
//     epoch so stragglers fence instead of resurrecting the assignment;
//  3. the consistent-hash successor imports the ledgers AT the new
//     epoch — the agent keeps its sequence space, so the imported
//     high-water mark dedups spool re-ships of batches whose acks died
//     with the old collector;
//  4. the agent retargets: new sink, new epoch, spool intact.
//
// Agents homed elsewhere do not move — the consistent-hash property the
// ring tests pin down.
func (c *Cluster) FailCollector(name string) ([]Rehome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.cols[name]
	if !ok {
		return nil, fmt.Errorf("control: cluster: unknown collector %q", name)
	}
	if m.failed {
		return nil, fmt.Errorf("control: cluster: collector %q already failed", name)
	}
	m.failed = true
	c.ring.Remove(name)
	var moving []string
	for agent, home := range c.homes {
		if home == name {
			moving = append(moving, agent)
		}
	}
	sort.Strings(moving)
	var out []Rehome
	for _, agent := range moving {
		succ, ok := c.ring.Owner(agent)
		if !ok {
			return out, fmt.Errorf("control: cluster: no surviving collector for agent %q", agent)
		}
		epoch := c.disp.AdvanceEpoch(agent)
		h := m.col.ExportAgent(agent)
		m.col.FenceAgent(agent, epoch)
		nm := c.cols[succ]
		nm.col.ImportAgent(agent, epoch, h)
		c.homes[agent] = succ
		if rt := c.agents[agent]; rt != nil {
			rt.Retarget(nm.sink, epoch)
		}
		c.moves++
		out = append(out, Rehome{Agent: agent, From: name, To: succ, Epoch: epoch})
	}
	return out, nil
}

// RecoverCollector brings a crashed collector back into the tier with a
// freshly recovered Collector (built over tracedb.Recover's output). It
// is the unplanned-failure complement to FailCollector, and the two
// compose in either order:
//
//   - agents still homed on the recovered collector (the crash was never
//     declared, or the ring had no survivor to take them) are re-imported
//     from the collector's own recovered ledgers AT a fresh epoch — a
//     handoff to self. The import's never-regress semantics make this
//     safe even if a concurrent planned handoff raced it, and the fresh
//     epoch fences any delivery still in flight toward the pre-crash
//     incarnation. The agent retargets to the recovered sink and keeps
//     its sequence space, so spool re-ships of batches whose acks died
//     with the crash dedup against the replayed high-water mark.
//
//   - agents the ring re-homed to survivors during the outage stay
//     where they are; the recovered collector closes their epochs so its
//     replayed ledgers turn into fences — a WAL-replayed ledger can never
//     regress the survivor's state or double-ingest a moved agent.
//
// If the collector had been declared failed, it rejoins the ring for
// future placements (existing homes are sticky, like AddCollector).
func (c *Cluster) RecoverCollector(name string, col *Collector, sink RecordSink) ([]Rehome, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.cols[name]
	if !ok {
		return nil, fmt.Errorf("control: cluster: unknown collector %q", name)
	}
	if sink == nil {
		sink = col
	}
	if m.failed {
		m.failed = false
		c.ring.Add(name)
	}
	m.col, m.sink = col, sink
	var agents []string
	for agent := range c.homes {
		agents = append(agents, agent)
	}
	sort.Strings(agents)
	var out []Rehome
	for _, agent := range agents {
		if c.homes[agent] != name {
			// Re-homed away during the outage: fence the recovered
			// ledgers at the agent's current lease so stragglers and
			// replayed state cannot resurrect the old assignment.
			col.FenceAgent(agent, c.disp.Epoch(agent))
			continue
		}
		epoch := c.disp.AdvanceEpoch(agent)
		h := col.ExportAgent(agent)
		col.ImportAgent(agent, epoch, h)
		if rt := c.agents[agent]; rt != nil {
			rt.Retarget(sink, epoch)
		}
		out = append(out, Rehome{Agent: agent, From: name, To: name, Epoch: epoch})
	}
	return out, nil
}

// Rehomes counts agent moves across all collector failures.
func (c *Cluster) Rehomes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.moves
}

// Ledger implements LedgerSource by routing to the agent's home
// collector — the supervisor reads lease state from wherever the agent
// currently lives.
func (c *Cluster) Ledger(agent string) (tracedb.AgentLedger, bool) {
	c.mu.Lock()
	h, ok := c.homes[agent]
	if !ok {
		c.mu.Unlock()
		return tracedb.AgentLedger{}, false
	}
	db := c.cols[h].col.DB()
	c.mu.Unlock()
	return db.Ledger(agent)
}
