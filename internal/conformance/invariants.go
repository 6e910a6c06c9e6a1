package conformance

import (
	"sort"

	"vnettracer"
	"vnettracer/internal/control"
	"vnettracer/internal/core"
	"vnettracer/internal/metrics"
	"vnettracer/internal/script"
	"vnettracer/internal/tracedb"
)

// check reconciles the whole pipeline against the workload's ground
// truth. Conservation and ordering invariants hold unconditionally and
// cluster-wide: per-agent tables partition across collector stores, so
// stored counts, fence counters, and gap accounting sum over the tier.
// Metric-consistency checks apply only where the record path was
// verifiably lossless (no ring drops, no evictions, nothing still
// spooled), because a lossy path legitimately stores fewer records than
// the ground truth injected.
func check(sc Scenario, s *vnettracer.Session, cluster []*agentState, truth *groundTruth, cols []*collectorState, fs *faultState, res *Result, dig *digest) {
	var totalStored, totalEvictedBatches, totalSpooledBatches uint64
	disp, q := s.Dispatcher(), s.Query()

	perColAgents := make(map[string]int)
	for _, st := range cluster {
		if h, ok := disp.Home(st.name); ok {
			perColAgents[h]++
		}
	}

	for _, st := range cluster {
		rs := st.agent.RingStats()
		ss := st.agent.SpoolStats()
		var zs control.SpoolStats
		var zas control.AggShipStats
		if st.zombie != nil {
			zs, zas = st.zombie.SpoolStats(), st.zombie.AggShipStats()
		}
		// Both kinds share one sequence space: a gap is either's eviction.
		evictedBatches := ss.EvictedBatches + zs.EvictedBatches + st.agent.AggShipStats().Evicted + zas.Evicted
		ds := st.agent.DegradeStats()
		// The home collector holds the live lease; after a re-homing, the
		// fence and gap accounting may be spread across collectors, so
		// those sum over every ledger the agent ever touched.
		led, ledOK := disp.Ledger(st.name)
		lease := disp.Epoch(st.name)
		var fencedB, fencedR, missing uint64
		for _, cs := range cols {
			l, _ := cs.col.DB().Ledger(st.name) // zero where never seen
			fencedB += l.FencedBatches
			fencedR += l.FencedRecords
			missing += l.MissingBatches
			// Every epoch an agent stamps is a lease this dispatcher
			// granted, so no ledger reads ahead of it: the dispatcher's
			// roster alone tells an epoch advance.
			if l.Epoch > lease {
				res.violatef("agent %s: collector %s ledger at epoch %d, ahead of the dispatcher's lease %d",
					st.name, cs.name, l.Epoch, lease)
			}
		}
		st.fencedBatches, st.fencedRecords = fencedB, fencedR
		fires := truth.table(st.srcTP).fires + truth.table(st.dstTP).fires
		var stored uint64
		for _, tpid := range []uint32{st.srcTP, st.dstTP} {
			if m, ok := q.Table(tpid); ok {
				stored += uint64(m.Len())
			}
		}
		rep := AgentReport{
			Name:               st.name,
			Fires:              fires,
			Unattended:         st.unattended,
			RingWrites:         rs.Writes,
			RingDrops:          rs.Drops,
			Stored:             stored,
			Spooled:            uint64(ss.Records),
			Evicted:            ss.EvictedRecords,
			SkewEstNs:          st.est.SkewNs,
			SkewTrueNs:         st.offsetNs,
			Epoch:              led.Epoch,
			FencedBatches:      fencedB,
			FencedRecords:      fencedR,
			ZombieSpooled:      uint64(zs.Records),
			ZombieEvicted:      zs.EvictedRecords,
			DegradeLevel:       ds.Level,
			FlushStretch:       ds.FlushStretch,
			Degradations:       ds.Degradations,
			Recoveries:         ds.Recoveries,
			StretchedIntervals: ds.StretchedIntervals,
			SampleDrops:        ds.SampleDrops,
		}
		res.Agents = append(res.Agents, rep)
		res.UnattendedFires += st.unattended
		totalStored += stored
		totalEvictedBatches += evictedBatches
		totalSpooledBatches += uint64(ss.Batches + zs.Batches)

		// Emit conservation: every attended probe fire either landed in
		// the ring or was counted as a drop — nothing vanishes between the
		// eBPF program and the ring. (Unattended fires never reached a
		// program and are excluded from fires by construction.)
		if fires != rs.Writes+rs.Drops {
			res.violatef("agent %s: fires %d != ring writes %d + ring drops %d",
				st.name, fires, rs.Writes, rs.Drops)
		}
		// Quiesce drained the rings completely.
		if rs.UsedBytes != 0 {
			res.violatef("agent %s: %d bytes left in ring after quiesce", st.name, rs.UsedBytes)
		}
		// Delivery conservation: every record drained from the ring is
		// stored, still spooled (by the live agent or a zombie), confirmed
		// evicted, or confirmed fenced — the four terminal states, summing
		// exactly.
		if rs.Writes != stored+uint64(ss.Records+zs.Records)+ss.EvictedRecords+zs.EvictedRecords+fencedR {
			res.violatef("agent %s: ring writes %d != stored %d + spooled %d+%d + evicted %d+%d + fenced %d",
				st.name, rs.Writes, stored, ss.Records, zs.Records,
				ss.EvictedRecords, zs.EvictedRecords, fencedR)
		}
		// Ledger gap accounting: once the spools drain, sequence gaps at
		// the collector exist exactly where a spool evicted (fenced gap
		// batches have already moved from missing to fenced). While the
		// sink is still down, spooled batches haven't surfaced as gaps
		// yet, so only the bound applies.
		if !ledOK || led.LastSeenNs <= 0 {
			res.violatef("agent %s: no heartbeat ever reached the collector", st.name)
		} else if !sc.SinkDownForever {
			if ss.Batches != 0 {
				res.violatef("agent %s: %d batches still spooled after quiesce with a healthy sink",
					st.name, ss.Batches)
			}
			if zs.Batches != 0 {
				res.violatef("agent %s: zombie still holds %d batches after quiesce with a healthy sink",
					st.name, zs.Batches)
			}
			if missing != evictedBatches {
				res.violatef("agent %s: ledger missing %d batches, spools evicted %d",
					st.name, missing, evictedBatches)
			}
		} else if missing > evictedBatches {
			res.violatef("agent %s: ledger missing %d batches exceeds evicted %d",
				st.name, missing, evictedBatches)
		}

		checkTable(sc, st, st.srcTP, truth, q, res)
		checkTable(sc, st, st.dstTP, truth, q, res)
	}

	// Collector totals, summed across the tier, agree with the tables. A
	// recovered collector's process-local counters restarted at zero at
	// the crash, so the snapshots the harness took at the crash instant
	// are added back — the records themselves are in the recovered store
	// and the per-table checks above already counted them.
	var colBatches, colRecords, colRingDrops uint64
	var dup, dupRecs, missing uint64
	var fencedB, fencedR uint64
	for _, cs := range cols {
		b, r, rd := cs.col.Stats()
		d, dr, m := cs.col.DeliveryStats()
		if cs.recovered {
			res.DupAfterRecovery += d
		}
		b += cs.lostBatches
		r += cs.lostRecords
		rd += cs.lostRingDrops
		d += cs.lostDupBatches
		dr += cs.lostDupRecords
		colBatches += b
		colRecords += r
		colRingDrops += rd
		dup += d
		dupRecs += dr
		missing += m
		fb, fr := cs.col.FencedStats()
		fencedB += fb
		fencedR += fr
		res.Violations = append(res.Violations, cs.notes...)
		res.PerCollector = append(res.PerCollector, CollectorReport{
			Name:      cs.name,
			Batches:   b,
			Records:   r,
			Agents:    perColAgents[cs.name],
			Crashed:   cs.sink.crashed,
			Recovered: cs.recovered,
		})
	}
	if colRecords != totalStored {
		res.violatef("collectors ingested %d records, tables hold %d", colRecords, totalStored)
	}
	res.Batches, res.Records, res.RingDrops = colBatches, colRecords, colRingDrops
	res.DupBatches, res.DupRecords, res.MissingBatches = dup, dupRecs, missing
	res.DeliveryAttempts, res.Rejected, res.AcksLost = fs.attempts, fs.rejected, fs.acksLost
	res.FencedBatches, res.FencedRecords = fencedB, fencedR
	res.OverloadAcks = fs.overloadAcks

	// The epoch fence fires only when a kill fault created a zombie; any
	// fenced batch outside that is the ledger fencing a live agent.
	if sc.KillAtNs <= 0 && res.FencedBatches != 0 {
		res.violatef("collector fenced %d batches with no kill fault injected", res.FencedBatches)
	}

	// Exactly-once at batch granularity: every lost acknowledgement on a
	// sequenced batch causes exactly one duplicate delivery, which the
	// ledger must absorb — and nothing else may ever duplicate. A batch
	// evicted after its ack was lost never redelivers, so under spool
	// pressure only the upper bound applies.
	if totalEvictedBatches == 0 && uint64(totalSpooledBatches) == 0 {
		if dup != fs.acksLostSeq {
			res.violatef("collectors deduped %d batches, %d sequenced acks were lost", dup, fs.acksLostSeq)
		}
	} else if dup > fs.acksLostSeq {
		res.violatef("collectors deduped %d batches, only %d sequenced acks were lost", dup, fs.acksLostSeq)
	}
	if sc.AckLossEvery == 0 && fs.acksLost == 0 && dup != 0 {
		res.violatef("collectors saw %d duplicate batches with no ack loss injected", dup)
	}
	if !sc.SinkDownForever && missing != totalEvictedBatches {
		res.violatef("collectors missing %d batches, agents evicted %d", missing, totalEvictedBatches)
	}

	checkMetrics(sc, cluster, truth, q, res)
	checkSupervision(sc, cluster, cols, res)
	checkAggregates(sc, cluster, truth, cols, q, fs, res, dig)

	// Fold the final accounting into the digest so a run that delivers
	// the same event trace but different statistics still diverges.
	for _, rep := range res.Agents {
		dig.logf("account agent=%s fires=%d unattended=%d writes=%d drops=%d stored=%d spooled=%d evicted=%d skew=%d epoch=%d fenced=%d/%d zspool=%d degr=%d/%d lvl=%d sdrops=%d",
			rep.Name, rep.Fires, rep.Unattended, rep.RingWrites, rep.RingDrops, rep.Stored, rep.Spooled,
			rep.Evicted, rep.SkewEstNs, rep.Epoch, rep.FencedBatches, rep.FencedRecords, rep.ZombieSpooled,
			rep.Degradations, rep.Recoveries, rep.DegradeLevel, rep.SampleDrops)
	}
	for _, pc := range res.PerCollector {
		dig.logf("account collector=%s batches=%d records=%d agents=%d crashed=%v recovered=%v",
			pc.Name, pc.Batches, pc.Records, pc.Agents, pc.Crashed, pc.Recovered)
	}
	dig.logf("account collector records=%d dup=%d missing=%d attempts=%d rejected=%d ackslost=%d fenced=%d/%d overloadacks=%d rehomes=%d",
		colRecords, dup, missing, fs.attempts, fs.rejected, fs.acksLost,
		res.FencedBatches, res.FencedRecords, res.OverloadAcks, res.Dispatch.Rehomes)
	dig.logf("account supervisor pushes=%d failures=%d retries=%d reprovisions=%d pending=%d",
		res.Dispatch.Pushes, res.Dispatch.Failures, res.Dispatch.Retries,
		res.Dispatch.Reprovisions, res.Dispatch.PendingRetries)
}

// checkSupervision verifies the control-plane supervision mechanisms a
// scenario arms actually engaged and converged: a killed agent ends the
// run re-provisioned at a newer epoch, a zombie's late flush is fenced in
// full, collector faults struck the collectors they resolved, and
// overload degradation both triggers and fully recovers.
func checkSupervision(sc Scenario, cluster []*agentState, cols []*collectorState, res *Result) {
	if sc.KillAtNs > 0 && sc.KillRebootAfterNs > 0 {
		st := cluster[sc.KillAgent%len(cluster)]
		if st.zombie == nil {
			res.violatef("agent %s: kill fault never engaged", st.name)
			return
		}
		if got := st.agent.Epoch(); got < 2 {
			res.violatef("agent %s: epoch %d after reboot, want >= 2", st.name, got)
		}
		if res.Dispatch.Reprovisions == 0 {
			res.violatef("dispatcher recorded no re-provision after an agent reboot")
		}
		// Re-provisioning must have restored the full desired state on the
		// fresh process: both tracepoints back, before the horizon.
		if n := len(st.agent.Installed()); n != 2 {
			res.violatef("agent %s: %d scripts installed after re-provision, want 2", st.name, n)
		}
		if st.unattended == 0 {
			res.violatef("agent %s: no unattended fires in the kill window — the dead window proved nothing", st.name)
		}
	}
	if sc.ZombieFlushAtNs > 0 {
		st := cluster[sc.KillAgent%len(cluster)]
		if st.fencedBatches == 0 || st.fencedRecords == 0 {
			res.violatef("agent %s: zombie flush fenced %d batches / %d records, want both > 0",
				st.name, st.fencedBatches, st.fencedRecords)
		}
	}
	if sc.Collectors > 1 && sc.CollectorFailAtNs > 0 && sc.CollectorRehomeAfterNs > 0 {
		if res.Dispatch.Rehomes == 0 {
			res.violatef("collector crash re-homed no agents")
		}
		crashed := 0
		for _, pc := range res.PerCollector {
			// A collector that crashed and later recovered still counts as
			// the fault's one victim; only a still-dead one must have shed
			// every tenant (re-homing never moves agents back).
			if pc.Crashed || pc.Recovered {
				crashed++
			}
			if pc.Crashed && pc.Agents != 0 {
				res.violatef("crashed collector %s still homes %d agents at quiesce", pc.Name, pc.Agents)
			}
		}
		// The fail fault strikes one collector, and a kill fault that
		// resolved another victim strikes a second.
		want := 1
		for _, cs := range cols {
			if cs.wasCrashed && !cs.failed {
				want = 2
			}
		}
		if crashed != want {
			res.violatef("%d collectors crashed, faults inject exactly %d", crashed, want)
		}
	}
	if sc.Durable && sc.CollectorCrashAtNs > 0 && sc.CollectorRecoverAfterNs > 0 {
		if res.RecoveredCollectors != 1 {
			res.violatef("%d collectors recovered, kill/recover fault injects exactly 1", res.RecoveredCollectors)
		}
		if res.Recovery.ReplayedEntries == 0 && !res.Recovery.CheckpointLoaded {
			res.violatef("recovery replayed nothing and loaded no checkpoint — the crash hit an empty collector")
		}
	}
	if sc.OverloadCap > 0 {
		if res.OverloadAcks == 0 {
			res.violatef("overload window injected no pressured acks")
		}
		for _, st := range cluster {
			ds := st.agent.DegradeStats()
			if ds.Degradations == 0 {
				res.violatef("agent %s: never entered a degraded mode under overload", st.name)
				continue
			}
			if ds.StretchedIntervals == 0 {
				res.violatef("agent %s: degraded but never stretched a flush interval", st.name)
			}
			if ds.SampleDrops == 0 {
				res.violatef("agent %s: high-water overload never engaged ring sampling", st.name)
			}
			if ds.Recoveries == 0 {
				res.violatef("agent %s: never recovered after the overload cleared", st.name)
			}
			if ds.Level != 0 || ds.FlushStretch != 1 {
				res.violatef("agent %s: still degraded at quiesce (level %d, stretch %d)",
					st.name, ds.Level, ds.FlushStretch)
			}
		}
	}
}

// checkAggregates reconciles the collector's merged in-probe aggregates
// against the attended-fire ground truth. Unlike records, aggregation
// never touches the ring or the spool-eviction path, so the check is
// exact even on scenarios whose record path drops: every attended fire
// at the receive probe must appear in the merged counters, the per-CPU
// and latency histograms, and the per-flow sums — and a retried frame
// (lost ack) must never double any of them.
func checkAggregates(sc Scenario, cluster []*agentState, truth *groundTruth, cols []*collectorState, q *vnettracer.ClusterQuery, fs *faultState, res *Result, dig *digest) {
	if !sc.ShipAggregates {
		return
	}
	// Frame accounting sums over the tier; a re-homed agent's frames merge
	// on two collectors and dedup wherever the retry lands.
	var tot tracedb.AggTotals
	for _, cs := range cols {
		t := cs.col.Aggregates().Totals()
		tot.FramesMerged += t.FramesMerged
		// Dup/fenced bookkeeping since a recovered collector's last
		// checkpoint died with its process; the crash-instant deltas the
		// harness snapshotted complete the cluster-wide reconciliation.
		tot.FramesDup += t.FramesDup + cs.aggLost.FramesDup
		tot.FramesFenced += t.FramesFenced + cs.aggLost.FramesFenced
		tot.RowsMerged += t.RowsMerged
	}
	res.AggFramesMerged, res.AggFramesDup, res.AggFramesFenced = tot.FramesMerged, tot.FramesDup, tot.FramesFenced
	res.AggRowsMerged, res.AggRejected = tot.RowsMerged, fs.aggRejected

	for _, st := range cluster {
		name := st.name + "/agg"
		as := st.agent.AggShipStats()
		if as.Evicted != 0 {
			res.violatef("agent %s: %d aggregate frames evicted — conservation broken by scenario shape", st.name, as.Evicted)
		}
		if sc.SinkDownForever {
			continue
		}
		if as.FramesSpooled != 0 {
			res.violatef("agent %s: %d aggregate frames still spooled after quiesce with a healthy sink",
				st.name, as.FramesSpooled)
		}
		tt := truth.table(st.dstTP)
		// The queryable aggregate is the cross-collector merge of every
		// store's view of this script.
		agg, ok := q.Aggregate(name)
		if tt.fires == 0 {
			if ok && counterAt(agg.Counters, script.SlotPackets) != 0 {
				res.violatef("agent %s: aggregates report %d packets, ground truth fired none",
					st.name, counterAt(agg.Counters, script.SlotPackets))
			}
			continue
		}
		if !ok {
			res.violatef("agent %s: no merged aggregates for %s after %d fires", st.name, name, tt.fires)
			continue
		}
		if got := counterAt(agg.Counters, script.SlotPackets); got != tt.fires {
			res.violatef("agent %s: aggregated packets %d, ground truth %d", st.name, got, tt.fires)
		}
		// The in-probe byte counter sums wire lengths; table truth tracks
		// payload net of the embedded trace ID.
		wantBytes := tt.bytes + uint64(metrics.TraceIDBytes)*tt.fires
		if got := counterAt(agg.Counters, script.SlotBytes); got != wantBytes {
			res.violatef("agent %s: aggregated bytes %d, ground truth %d", st.name, got, wantBytes)
		}
		if n := metrics.HistCount(agg.Hist); n != tt.fires {
			res.violatef("agent %s: latency histogram holds %d samples, ground truth %d fires", st.name, n, tt.fires)
		}
		if n := metrics.HistCount(agg.CPUHits); n != tt.fires {
			res.violatef("agent %s: per-CPU hits sum to %d, ground truth %d fires", st.name, n, tt.fires)
		}
		gotFlows := make(map[metrics.FlowKey]uint64, len(agg.Flows))
		for _, fl := range agg.Flows {
			gotFlows[metrics.FlowKey{SrcIP: fl.SrcIP, DstIP: fl.DstIP, SrcPort: fl.SrcPort, DstPort: fl.DstPort, Proto: fl.Proto}] = fl.Packets
		}
		for _, key := range sortedFlowKeys(tt.perFlow) {
			if gotFlows[key] != tt.perFlow[key] {
				res.violatef("agent %s flow %v: aggregated %d packets, ground truth %d",
					st.name, key, gotFlows[key], tt.perFlow[key])
			}
		}
		if len(gotFlows) != len(tt.perFlow) {
			res.violatef("agent %s: aggregates hold %d flows, ground truth %d", st.name, len(gotFlows), len(tt.perFlow))
		}
	}

	// Exactly-once at frame granularity mirrors the record-batch check:
	// with no evictions (asserted above), every lost aggregate ack causes
	// exactly one duplicate frame, which the ledger must absorb.
	if !sc.SinkDownForever && tot.FramesDup != fs.aggAcksLost {
		res.violatef("ledger deduped %d aggregate frames, %d aggregate acks were lost", tot.FramesDup, fs.aggAcksLost)
	}
	if sc.KillAtNs <= 0 && tot.FramesFenced != 0 {
		res.violatef("ledger fenced %d aggregate frames with no kill fault injected", tot.FramesFenced)
	}
	dig.logf("account aggregates merged=%d dup=%d fenced=%d rows=%d attempts=%d rejected=%d ackslost=%d",
		tot.FramesMerged, tot.FramesDup, tot.FramesFenced, tot.RowsMerged,
		fs.aggAttempts, fs.aggRejected, fs.aggAcksLost)
}

// counterAt reads a dense counter slot, 0 when the slice is short.
func counterAt(counters []uint64, slot int) uint64 {
	if slot < len(counters) {
		return counters[slot]
	}
	return 0
}

// checkTable verifies per-table invariants across the table's collector
// partitions: exactly-once per trace ID cluster-wide, per-flow
// conservation, per-(partition, CPU) intra-ring ordering, and the merge
// layer losing nothing.
func checkTable(sc Scenario, st *agentState, tpid uint32, truth *groundTruth, q *vnettracer.ClusterQuery, res *Result) {
	merged, ok := q.Table(tpid)
	if !ok {
		res.violatef("agent %s: table %d missing on every collector", st.name, tpid)
		return
	}
	tt := truth.table(tpid)
	clean := machineClean(st)

	storedIDs := make(map[uint32]uint64)
	storedFlows := make(map[metrics.FlowKey]uint64)
	type cpuCursor struct {
		timeNs uint64
		pktSeq uint64
		seen   bool
	}
	stored := 0
	for i := 0; i < merged.Parts(); i++ {
		tbl := merged.Part(i)
		stored += tbl.Len()
		// Cursors are per partition: a re-homed agent's stream splits at
		// the handoff point, and each partition preserves emit order for
		// its own span.
		cursors := make(map[uint32]*cpuCursor)
		tbl.Scan(func(r core.Record) bool {
			storedIDs[r.TraceID]++
			storedFlows[flowKeyOfRecord(r)]++
			cur := cursors[r.CPU]
			if cur == nil {
				cur = &cpuCursor{}
				cursors[r.CPU] = cur
			}
			if cur.seen {
				// Within one partition and one CPU the ring preserves emit
				// order: timestamps never run backwards and the machine's
				// packet sequence strictly increases.
				if r.TimeNs < cur.timeNs {
					res.violatef("table %d cpu %d: time %d after %d — intra-ring order broken",
						tpid, r.CPU, r.TimeNs, cur.timeNs)
					return false
				}
				if r.Seq <= cur.pktSeq {
					res.violatef("table %d cpu %d: pkt seq %d after %d — intra-ring order broken",
						tpid, r.CPU, r.Seq, cur.pktSeq)
					return false
				}
			}
			cur.seen = true
			cur.timeNs = r.TimeNs
			cur.pktSeq = r.Seq
			return true
		})
	}

	// The k-way merged view loses nothing: it streams exactly the union
	// of the partitions.
	mergedCount := 0
	merged.ScanAligned(func(core.Record) bool {
		mergedCount++
		return true
	})
	if mergedCount != stored {
		res.violatef("table %d: merged view streams %d records, partitions hold %d", tpid, mergedCount, stored)
	}

	// Exactly-once: no trace ID may be stored more often than it was
	// emitted (each ID fires once per table); a clean machine stores
	// every emitted ID exactly once.
	for _, id := range sortedIDKeys(storedIDs) {
		n := storedIDs[id]
		want := tt.ids[id]
		if n > want {
			res.violatef("table %d: trace ID %d stored %d times, emitted %d — duplicate records",
				tpid, id, n, want)
		}
	}
	if clean {
		for _, id := range sortedIDKeys(tt.ids) {
			if storedIDs[id] != tt.ids[id] {
				res.violatef("table %d: trace ID %d stored %d times, emitted %d on a lossless path",
					tpid, id, storedIDs[id], tt.ids[id])
			}
		}
	}

	// Per-flow conservation mirrors the per-ID check at flow granularity.
	for _, key := range sortedFlowKeys(storedFlows) {
		if storedFlows[key] > tt.perFlow[key] {
			res.violatef("table %d flow %v: stored %d > emitted %d",
				tpid, key, storedFlows[key], tt.perFlow[key])
		}
	}
	if clean {
		for _, key := range sortedFlowKeys(tt.perFlow) {
			if storedFlows[key] != tt.perFlow[key] {
				res.violatef("table %d flow %v: stored %d, emitted %d on a lossless path",
					tpid, key, storedFlows[key], tt.perFlow[key])
			}
		}
	}
}

// checkMetrics recomputes the paper's metrics from the trace DB and
// reconciles them with the injected ground truth, within the
// skew-correction bounds. Only lossless paths qualify: a drop anywhere on
// the path changes the metric legitimately.
func checkMetrics(sc Scenario, cluster []*agentState, truth *groundTruth, q *vnettracer.ClusterQuery, res *Result) {
	for i, src := range cluster {
		dst := cluster[(i+1)%len(cluster)]
		path := truth.paths[i]
		if path.sent == 0 {
			continue
		}
		srcClean := machineClean(src) && src.skewTolNs > 0
		dstClean := machineClean(dst) && dst.skewTolNs > 0
		_, srcOK := q.Table(src.srcTP)
		_, dstOK := q.Table(dst.dstTP)
		if !srcOK || !dstOK {
			continue // table-missing violations already reported
		}
		// Queries run through the session's k-way merged cross-collector
		// view — the same layer vntquery's cluster mode uses. Both tables
		// exist, so the join queries below cannot fail.

		// Throughput at the send probe: bytes on the true time span vs
		// bytes on the skew-aligned span.
		if srcClean {
			tt := truth.table(src.srcTP)
			span := tt.lastNs - tt.firstNs
			if span > 0 {
				want := float64(tt.bytes) * 8 * 1e9 / float64(span)
				got, err := q.Throughput(src.srcTP)
				if err != nil {
					res.violatef("path %d: throughput: %v", i, err)
				} else {
					tol := 2*float64(src.skewTolNs)/float64(span) + 0.001
					if relErr(got, want) > tol {
						res.violatef("path %d: throughput %.0f bps, ground truth %.0f bps (rel err %.4f > %.4f)",
							i, got, want, relErr(got, want), tol)
					}
				}
			}
		}

		if srcClean && dstClean {
			// Loss: distinct trace IDs that left the send probe and never
			// hit the receive probe == injected wire drops.
			lost, _, _ := q.Loss(src.srcTP, dst.dstTP)
			if uint64(lost) != path.dropped {
				res.violatef("path %d: measured loss %d, injected %d drops", i, lost, path.dropped)
			}

			// Latency: mean skew-aligned hop latency vs the mean of the
			// realized transit delays, within both agents' skew bounds.
			if len(path.delays) > 0 {
				samples, _ := q.Latencies(src.srcTP, dst.dstTP)
				if len(samples) != len(path.delays) {
					res.violatef("path %d: %d latency samples, %d packets delivered",
						i, len(samples), len(path.delays))
				} else {
					got := metrics.Mean(metrics.Values(samples))
					want := meanI64(path.delays)
					tol := float64(src.skewTolNs + dst.skewTolNs)
					if diff := got - want; diff > tol || diff < -tol {
						res.violatef("path %d: mean latency %.0f ns, ground truth %.0f ns (|diff| > %0.f ns)",
							i, got, want, tol)
					}
				}
			}
		}
	}
}

// machineClean reports whether a machine's record path was lossless:
// nothing dropped at the ring, nothing evicted, nothing still spooled,
// no fires against a detached probe, and nothing lost to (or stuck in) a
// zombie incarnation. Only such machines qualify for exact metric checks.
func machineClean(st *agentState) bool {
	rs := st.agent.RingStats()
	ss := st.agent.SpoolStats()
	if st.unattended != 0 || st.fencedRecords != 0 {
		return false
	}
	if st.zombie != nil {
		zs := st.zombie.SpoolStats()
		if zs.Records != 0 || zs.EvictedRecords != 0 {
			return false
		}
	}
	return rs.Drops == 0 && ss.EvictedRecords == 0 && ss.Records == 0
}

func flowKeyOfRecord(r core.Record) metrics.FlowKey {
	return metrics.FlowKey{
		SrcIP:   r.SrcIP,
		DstIP:   r.DstIP,
		SrcPort: r.SrcPort,
		DstPort: r.DstPort,
		Proto:   r.Proto,
	}
}

func sortedIDKeys(m map[uint32]uint64) []uint32 {
	out := make([]uint32, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedFlowKeys(m map[metrics.FlowKey]uint64) []metrics.FlowKey {
	out := make([]metrics.FlowKey, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.SrcIP != b.SrcIP {
			return a.SrcIP < b.SrcIP
		}
		if a.DstIP != b.DstIP {
			return a.DstIP < b.DstIP
		}
		if a.SrcPort != b.SrcPort {
			return a.SrcPort < b.SrcPort
		}
		if a.DstPort != b.DstPort {
			return a.DstPort < b.DstPort
		}
		return a.Proto < b.Proto
	})
	return out
}

func meanI64(vals []int64) float64 {
	var sum int64
	for _, v := range vals {
		sum += v
	}
	return float64(sum) / float64(len(vals))
}

func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return 1
	}
	d := (got - want) / want
	if d < 0 {
		return -d
	}
	return d
}
