package control

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"vnettracer/internal/tracedb"
)

// member is one collector slot: the collector, the sink agents ship to
// (usually the collector itself; the harness substitutes a fault
// injector), and whether it has failed.
type member struct {
	col    *Collector
	sink   RecordSink
	failed bool
}

// AddCollector joins a collector to the tier under a unique name. The
// sink is what agents homed there are pointed at; nil means the
// collector itself. Adding collectors after agents registered is legal
// but does not move existing agents (placement is sticky until a
// failure; rebalance-on-join is a policy choice left to the operator).
func (d *Dispatcher) AddCollector(name string, col *Collector, sink RecordSink) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.cols[name]; dup {
		return fmt.Errorf("control: dispatcher: collector %q already added", name)
	}
	if sink == nil {
		sink = col
	}
	d.cols[name] = &member{col: col, sink: sink}
	d.ring.Add(name)
	return nil
}

// Home names the collector currently owning an agent.
func (d *Dispatcher) Home(agent string) (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.agents[agent]; ok && e.home != "" {
		return e.home, true
	}
	return "", false
}

// homedLocked lists, in name order, the agents homed on collector col,
// or every homed agent when col is "". Callers hold d.mu.
func (d *Dispatcher) homedLocked(col string) []string {
	var out []string
	for agent, e := range d.agents {
		if e.home != "" && (col == "" || e.home == col) {
			out = append(out, agent)
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
// the survivors. Each agent's one ledger (record batches and aggregate
// frames share its sequence space) lives at its home, so per agent, in
// name order:
//
//  1. the agent's epoch lease advances (same process, new lease —
//     in-flight batches toward the dead collector are fenced);
//  2. the dead collector's ledger exports, and it closes the agent's
//     epoch so stragglers fence instead of resurrecting the assignment;
//  3. the consistent-hash successor imports the ledger AT the new
//     epoch — the agent keeps its sequence space, so the imported
//     high-water mark dedups spool re-ships of batches whose acks died
//     with the old collector;
//  4. the agent retargets: new sink, new epoch, spool intact.
//
// No WAL entry records an import, so each logged successor then
// checkpoints once: a crash before its next checkpoint would otherwise
// recover without the imported ledgers, store the spool re-ships again
// and count false gaps. A failed checkpoint is returned; the moves stand.
//
// Agents homed elsewhere do not move — the consistent-hash property the
// ring tests pin down.
func (d *Dispatcher) FailCollector(name string) ([]Rehome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.cols[name]
	if !ok {
		return nil, fmt.Errorf("control: dispatcher: unknown collector %q", name)
	}
	if m.failed {
		return nil, fmt.Errorf("control: dispatcher: collector %q already failed", name)
	}
	m.failed = true
	d.ring.Remove(name)
	var out []Rehome
	var importers []string
	for _, agent := range d.homedLocked(name) {
		succ, ok := d.ring.Owner(agent)
		if !ok {
			return out, fmt.Errorf("control: dispatcher: no surviving collector for agent %q", agent)
		}
		e := d.agents[agent]
		e.epoch++
		h, ok := m.col.DB().ExportLedger(agent)
		m.col.DB().CloseAgentEpoch(agent, e.epoch)
		nm := d.cols[succ]
		if ok {
			nm.col.DB().ImportLedger(agent, e.epoch, h)
			if !slices.Contains(importers, succ) {
				importers = append(importers, succ)
			}
		}
		e.home = succ
		e.client.Retarget(nm.sink, e.epoch)
		d.stats.Rehomes++
		out = append(out, Rehome{Agent: agent, From: name, To: succ, Epoch: e.epoch})
	}
	var errs []error
	for _, succ := range importers {
		if fd := d.cols[succ].col.frontDoor(); fd.Stats().Dir != "" {
			if err := fd.Checkpoint(); err != nil {
				errs = append(errs, fmt.Errorf("control: dispatcher: checkpoint %s after re-homing: %w", succ, err))
			}
		}
	}
	return out, errors.Join(errs...)
}

// RecoverCollector brings a crashed collector back into the tier with a
// freshly recovered Collector (built over tracedb.Recover's output). It
// is the unplanned-failure complement to FailCollector, and the two
// compose in either order:
//
//   - agents still homed on the recovered collector (the crash was never
//     declared, or the ring had no survivor to take them) are re-imported
//     from the collector's own recovered ledger AT a fresh epoch — a
//     handoff to self. The import's never-regress semantics make this
//     safe even if a concurrent planned handoff raced it, and the fresh
//     epoch fences any delivery still in flight toward the pre-crash
//     incarnation. The agent retargets to the recovered sink and keeps
//     its sequence space, so spool re-ships of batches whose acks died
//     with the crash dedup against the replayed high-water mark. A
//     replayed ledger older than the lease the agent registered under
//     counted a sequence space the agent has since restarted, so the
//     ledger instead advances to the fresh epoch as admission does on a
//     newer lease. (The lease held at the crash cannot tell: an earlier
//     self-handoff advanced it in memory only.)
//
//   - agents the ring re-homed to survivors during the outage stay
//     where they are; the recovered collector closes their epochs so its
//     replayed ledgers turn into fences — a WAL-replayed ledger can never
//     regress the survivor's state or double-ingest a moved agent.
//
// If the collector had been declared failed, it rejoins the ring for
// future placements (existing homes are sticky, like AddCollector).
func (d *Dispatcher) RecoverCollector(name string, col *Collector, sink RecordSink) ([]Rehome, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, ok := d.cols[name]
	if !ok {
		return nil, fmt.Errorf("control: dispatcher: unknown collector %q", name)
	}
	if sink == nil {
		sink = col
	}
	if m.failed {
		m.failed = false
		d.ring.Add(name)
	}
	m.col, m.sink = col, sink
	var out []Rehome
	for _, agent := range d.homedLocked("") {
		e := d.agents[agent]
		if e.home != name {
			// Re-homed away during the outage: fence the recovered
			// ledgers at the agent's current lease so stragglers and
			// replayed state cannot resurrect the old assignment.
			col.DB().CloseAgentEpoch(agent, e.epoch)
			continue
		}
		e.epoch++
		if h, ok := col.DB().ExportLedger(agent); ok && h.Epoch >= e.regEpoch {
			col.DB().ImportLedger(agent, e.epoch, h)
		} else if ok {
			col.DB().AdmitBatch(agent, e.epoch, 0, 0, 0, h.Degraded)
		}
		e.client.Retarget(sink, e.epoch)
		out = append(out, Rehome{Agent: agent, From: name, To: name, Epoch: e.epoch})
	}
	return out, nil
}

// Ledger reads the agent's delivery ledger from its home collector, so
// lease and heartbeat state follow the agent wherever it currently lives.
func (d *Dispatcher) Ledger(agent string) (tracedb.AgentLedger, bool) {
	d.mu.Lock()
	e, ok := d.agents[agent]
	if !ok || e.home == "" {
		d.mu.Unlock()
		return tracedb.AgentLedger{}, false
	}
	db := d.cols[e.home].col.DB()
	d.mu.Unlock()
	return db.Ledger(agent)
}
