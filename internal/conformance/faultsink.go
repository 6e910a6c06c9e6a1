package conformance

import (
	"errors"

	"vnettracer/internal/control"
	"vnettracer/internal/sim"
)

var (
	errSinkDown = errors.New("conformance: sink down")
	errAckLost  = errors.New("conformance: ack lost")
)

// faultState is the scenario's transport-fault machinery, shared by every
// collector's sink: outage windows (delivery rejected outright, batch
// never ingested) and ack loss (batch ingested, then the acknowledgement
// "lost" — the agent sees an error and retries a batch the collector
// already has, which the dedup ledger must absorb). The ack-loss cadence
// and all delivery counters are cluster-global, so the exactly-once
// reconciliation (duplicates vs lost acks) closes across collectors no
// matter where each batch landed. Every delivery attempt and its outcome
// goes into the digest; the whole run is single-threaded on the sim
// engine, so plain counters suffice.
type faultState struct {
	eng *sim.Engine
	dig *digest

	downFrom  int64
	downUntil int64
	downOpen  bool // downUntil ignored; heal() ends the outage

	ackLossEvery int
	ingests      int // successful ingests (all collectors), for ack-loss cadence
	healed       bool

	// Collector-overload injection: inside the window every ack reports
	// a queue of overloadDepth/overloadCap; outside it (cap still > 0)
	// an empty queue of the same capacity, so agents recover.
	overloadFrom  int64
	overloadUntil int64
	overloadDepth int
	overloadCap   int

	attempts     uint64
	rejected     uint64
	acksLost     uint64
	acksLostSeq  uint64 // acks lost on sequenced (Seq != 0) batches
	overloadAcks uint64 // acks that reported the overloaded queue

	// Aggregate-frame delivery shares the outage window and the ack-loss
	// cadence but keeps its own counters (and its own ingest count for the
	// cadence), so frame dedup reconciles against frame acks alone.
	aggAttempts uint64
	aggRejected uint64
	aggAcksLost uint64
	aggIngests  int
}

func newFaultState(eng *sim.Engine, sc Scenario, dig *digest) *faultState {
	return &faultState{
		eng:           eng,
		dig:           dig,
		downFrom:      sc.SinkDownFromNs,
		downUntil:     sc.SinkDownUntilNs,
		downOpen:      sc.SinkDownForever,
		ackLossEvery:  sc.AckLossEvery,
		overloadFrom:  sc.OverloadFromNs,
		overloadUntil: sc.OverloadUntilNs,
		overloadDepth: sc.OverloadDepth,
		overloadCap:   sc.OverloadCap,
	}
}

func (f *faultState) down(now int64) bool {
	if f.healed {
		return false
	}
	if f.downOpen {
		return now >= f.downFrom
	}
	return f.downFrom < f.downUntil && now >= f.downFrom && now < f.downUntil
}

// heal ends all transport faults; quiesce calls it so spools can drain.
// A crashed collector stays crashed — its sink is dead, not faulty.
func (f *faultState) heal() { f.healed = true }

// faultSink fronts one collector with the shared fault machinery. The
// crashed flag models that collector's process death: every delivery
// errors unconditionally (and is never ingested) until the agents
// re-home away from it.
type faultSink struct {
	f       *faultState
	name    string
	inner   *control.Collector
	crashed bool
}

var _ control.AckingRecordSink = (*faultSink)(nil)
var _ control.AggSink = (*faultSink)(nil)

func newFaultSink(name string, inner *control.Collector, f *faultState) *faultSink {
	return &faultSink{f: f, name: name, inner: inner}
}

// crash kills this collector's ingest path permanently.
func (s *faultSink) crash() { s.crashed = true }

func (s *faultSink) HandleBatch(b control.RecordBatch) error {
	_, err := s.HandleBatchAck(b)
	return err
}

// HandleBatchAck implements control.AckingRecordSink: the agents' deliver
// path prefers it, so the sink is also where the scenario's backpressure
// report is forged. Overload scenarios hand every successful delivery an
// ack claiming the ingest queue is overloadDepth/overloadCap full inside
// the window and empty (same capacity) outside it; other scenarios return
// the zero ack — no pressure signal, degradation controller inert.
func (s *faultSink) HandleBatchAck(b control.RecordBatch) (control.BatchAck, error) {
	f := s.f
	now := f.eng.Now()
	f.attempts++
	if s.crashed {
		f.rejected++
		f.dig.logf("deliver col=%s t=%d agent=%s epoch=%d seq=%d recs=%d drops=%d outcome=crash",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Records), b.RingDrops)
		return control.BatchAck{}, errSinkDown
	}
	if f.down(now) {
		f.rejected++
		f.dig.logf("deliver col=%s t=%d agent=%s epoch=%d seq=%d recs=%d drops=%d outcome=down",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Records), b.RingDrops)
		return control.BatchAck{}, errSinkDown
	}
	if err := s.inner.HandleBatch(b); err != nil {
		f.dig.logf("deliver col=%s t=%d agent=%s epoch=%d seq=%d recs=%d drops=%d outcome=err",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Records), b.RingDrops)
		return control.BatchAck{}, err
	}
	f.ingests++
	if !f.healed && f.ackLossEvery > 0 && f.ingests%f.ackLossEvery == 0 {
		f.acksLost++
		if b.Seq != 0 {
			f.acksLostSeq++
		}
		f.dig.logf("deliver col=%s t=%d agent=%s epoch=%d seq=%d recs=%d drops=%d outcome=acklost",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Records), b.RingDrops)
		return control.BatchAck{}, errAckLost
	}
	f.dig.logf("deliver col=%s t=%d agent=%s epoch=%d seq=%d recs=%d drops=%d outcome=ok",
		s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Records), b.RingDrops)
	return f.ack(now), nil
}

// HandleAgg implements control.AggSink under the same transport faults:
// an outage rejects the frame outright (the agent keeps it spooled and
// retries), and a lost "ack" — an error returned after the collector
// already merged — forces a duplicate delivery the ledger must
// absorb, or every counter it carries would double.
func (s *faultSink) HandleAgg(b control.AggBatch) error {
	f := s.f
	now := f.eng.Now()
	f.aggAttempts++
	if s.crashed {
		f.aggRejected++
		f.dig.logf("deliver-agg col=%s t=%d agent=%s epoch=%d seq=%d scripts=%d outcome=crash",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Scripts))
		return errSinkDown
	}
	if f.down(now) {
		f.aggRejected++
		f.dig.logf("deliver-agg col=%s t=%d agent=%s epoch=%d seq=%d scripts=%d outcome=down",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Scripts))
		return errSinkDown
	}
	if err := s.inner.HandleAgg(b); err != nil {
		f.dig.logf("deliver-agg col=%s t=%d agent=%s epoch=%d seq=%d scripts=%d outcome=err",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Scripts))
		return err
	}
	f.aggIngests++
	if !f.healed && f.ackLossEvery > 0 && f.aggIngests%f.ackLossEvery == 0 {
		f.aggAcksLost++
		f.dig.logf("deliver-agg col=%s t=%d agent=%s epoch=%d seq=%d scripts=%d outcome=acklost",
			s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Scripts))
		return errAckLost
	}
	f.dig.logf("deliver-agg col=%s t=%d agent=%s epoch=%d seq=%d scripts=%d outcome=ok",
		s.name, now, b.Agent, b.Epoch, b.Seq, len(b.Scripts))
	return nil
}

// ack builds the backpressure report for a successful delivery at time
// now.
func (f *faultState) ack(now int64) control.BatchAck {
	if f.overloadCap <= 0 {
		return control.BatchAck{}
	}
	if !f.healed && now >= f.overloadFrom && now < f.overloadUntil {
		f.overloadAcks++
		return control.BatchAck{QueueDepth: f.overloadDepth, QueueCap: f.overloadCap}
	}
	return control.BatchAck{QueueDepth: 0, QueueCap: f.overloadCap}
}
