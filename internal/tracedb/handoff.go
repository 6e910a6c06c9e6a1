package tracedb

// This file implements ledger handoff: the state that travels when an
// agent is re-homed from a failed collector to a survivor. The agent
// process itself outlives the collector, so unlike a restart its sequence
// space continues — the importing collector must know the exporter's
// high-water mark or it would re-ingest every spooled batch the old
// collector already has. Ownership rules:
//
//   - the agent's one ledger (record batches and aggregate frames share
//     its sequence space) lives only on its current home collector;
//   - re-homing advances the agent's epoch; the new home imports the old
//     ledger state AT the new epoch (seqs continue), while the old home
//     closes the epoch with a tombstone that fences stragglers;
//   - gap accounting (missing batches) travels with the export and is
//     zeroed in the tombstone, so a cluster-wide sum never double-counts
//     a missing batch.

// importHandoff installs exported state at the given (newer) epoch,
// never regressing what this ledger already knows. On an epoch advance
// the imported sequence state becomes both the current state (the agent
// keeps its sequence space across a re-homing, so retried batches the
// exporter already ingested must dedup here) and the frozen
// previous-epoch view (so batches still carrying the pre-handoff epoch
// dedup-aware fence instead of double-counting). At an equal epoch the
// import merges monotonically — repeated handoffs cannot move the
// high-water mark backwards. Callers hold the ledger mutex.
func (l *agentLedger) importHandoff(epoch uint64, h LedgerState) {
	if epoch < l.epoch {
		return // stale import: this ledger has already moved on
	}
	if epoch > l.epoch {
		// Close out whatever this ledger held (normally nothing: the
		// importer never owned the agent, or closed it on a prior move).
		l.missingPrior += l.gap() + h.MissingPrior
		l.startEpoch(epoch, h.MaxSeq, h.HighWater, seqSet(h.Pending))
		l.hwm = h.HighWater
		l.maxSeq = h.MaxSeq
		l.pending = seqSet(h.Pending)
		l.dups += h.Dups
		l.degraded = h.Degraded
	} else {
		// Same epoch (a repeated handoff): merge without regressing.
		if h.HighWater > l.hwm {
			l.hwm = h.HighWater
		}
		if h.MaxSeq > l.maxSeq {
			l.maxSeq = h.MaxSeq
		}
		for _, seq := range h.Pending {
			if seq > l.hwm {
				l.pending[seq] = struct{}{}
			}
		}
		for seq := range l.pending {
			if seq <= l.hwm {
				delete(l.pending, seq)
			}
		}
		l.advance()
	}
	if h.LastSeenNs > l.lastSeenNs {
		l.lastSeenNs = h.LastSeenNs
	}
}

// closeEpoch is the exporter-side tombstone after a handoff: like the
// epoch-advance branch of admit it freezes the old sequence state for
// dedup-aware fencing and resets the live counters, but it does NOT fold
// the outstanding gap into missingPrior — that accounting traveled with
// the export, and counting it on both collectors would double every
// missing batch in cluster-wide sums. Callers hold the ledger mutex.
func (l *agentLedger) closeEpoch(epoch uint64) {
	if epoch <= l.epoch {
		return
	}
	l.startEpoch(epoch, l.maxSeq, l.hwm, l.pending)
	l.hwm, l.maxSeq = 0, 0
	l.pending = make(map[uint64]struct{})
	l.missingPrior = 0
}

func seqSet(seqs []uint64) map[uint64]struct{} {
	m := make(map[uint64]struct{}, len(seqs))
	for _, s := range seqs {
		m[s] = struct{}{}
	}
	return m
}

// MergeAggs folds script-aggregate snapshots of the same script into one
// with the fold AggStore merges frames by: counters, per-CPU hits, and
// histogram buckets sum slot-wise; flows sum per 5-tuple, sorted by
// CompareFlows. This is the cross-collector merge for a partitioned
// tier, where an agent's frames may have landed on different collectors
// across a re-homing; it is exact because every frame was merged exactly
// once on exactly one collector.
func MergeAggs(parts ...ScriptAgg) ScriptAgg {
	var sum scriptAgg
	for i := range parts {
		sum.add(&parts[i])
	}
	return sum.snapshot()
}
