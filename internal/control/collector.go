package control

import (
	"os"
	"sync"

	"vnettracer/internal/tracedb"
)

// Collector is the raw data collector on the master node: it loads record
// batches into the trace database and tracks agent liveness through the
// batch heartbeats.
//
// By default HandleBatch inserts synchronously — the right mode for the
// single-threaded simulation, where tests expect records to be queryable
// the moment Flush returns. For the distributed deployment, StartIngest
// moves DB work off the transport goroutines onto a bounded queue drained
// by worker goroutines; when the queue is full the batch is dropped and
// counted (backpressure is visible in IngestStats, and trace loss is
// already a first-class concept via ring drops).
type Collector struct {
	db   *tracedb.DB
	aggs *tracedb.AggStore

	// dur is the store's admission front door (classify, log, apply).
	// Until SetDurability installs a recovered one, nothing is logged.
	dur *tracedb.Durability

	mu             sync.Mutex
	batches        uint64
	records        uint64
	ringDrops      uint64
	droppedBatches uint64
	dupBatches     uint64
	dupRecords     uint64
	queue          chan RecordBatch
	wg             sync.WaitGroup

	// ingestFn is what workers run per batch; tests override it to model a
	// slow store.
	ingestFn func(RecordBatch)
}

// NewCollector creates a collector over a trace database.
func NewCollector(db *tracedb.DB) *Collector {
	return NewCollectorWith(db, tracedb.NewAggStore())
}

// NewCollectorWith creates a collector over an existing database and
// aggregate store — the recovery path, where tracedb.Recover has already
// rebuilt both from disk and the collector must serve them rather than
// start empty.
func NewCollectorWith(db *tracedb.DB, aggs *tracedb.AggStore) *Collector {
	c := &Collector{db: db, aggs: aggs, dur: tracedb.Unlogged(db, aggs)}
	c.ingestFn = c.ingest
	return c
}

// OpenCollector opens a collector over a fresh database built from cfg.
// With dur.Dir empty the collector is unlogged and the returned
// Durability is nil. Otherwise startup is crash recovery run against the
// directories (a cold start is recovery from empty ones): extents under
// cfg.DataDir are adopted, the latest checkpoint loads and the WAL tail
// under dur.Dir replays, and from then on ingest is logged there.
func OpenCollector(cfg tracedb.Config, dur tracedb.DurabilityConfig) (*Collector, *tracedb.Durability, tracedb.RecoveryStats, error) {
	db := tracedb.NewWith(cfg)
	aggs := tracedb.NewAggStore()
	col := NewCollectorWith(db, aggs)
	if dur.Dir == "" {
		return col, nil, tracedb.RecoveryStats{}, nil
	}
	if cfg.DataDir != "" {
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, nil, tracedb.RecoveryStats{}, err
		}
	}
	d, rec, err := tracedb.Recover(db, aggs, dur)
	if err != nil {
		return nil, nil, rec, err
	}
	col.SetDurability(d)
	return col, d, rec, nil
}

// SetDurability routes ingest through a durability layer: fresh record
// batches and aggregate frames append to its write-ahead log as they
// apply. d must front this collector's database and aggregate store —
// what tracedb.Recover returns for them; set it before traffic starts.
func (c *Collector) SetDurability(d *tracedb.Durability) {
	c.mu.Lock()
	c.dur = d
	c.mu.Unlock()
}

// frontDoor returns the current admission front door.
func (c *Collector) frontDoor() *tracedb.Durability {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dur
}

// DB returns the backing trace database.
func (c *Collector) DB() *tracedb.DB { return c.db }

// Aggregates returns the aggregate store merged from in-probe aggregate
// frames, living beside the record database.
func (c *Collector) Aggregates() *tracedb.AggStore { return c.aggs }

// HandleAgg implements AggSink: it admits the frame through the
// aggregate ledger (exactly-once, epoch-fenced — the aggregate analogue
// of record-batch ingest) and merges fresh payloads into the aggregate
// store. Aggregate frames are small and pre-reduced, so ingest is always
// synchronous; there is no queue to backpressure on. Non-fenced frames
// advance the agent's liveness clock like record batches do.
func (c *Collector) HandleAgg(b AggBatch) error {
	st := c.frontDoor().AdmitAggFrame(b.Agent, b.Epoch, b.Seq, b.Scripts, b.AgentTimeNs, b.Degraded)
	if st != tracedb.BatchFenced {
		// Epoch-aware liveness: a frame that cleared the aggregate fence
		// can still be stale relative to the record ledger (the agent was
		// re-homed and this collector's record epoch already closed); an
		// epoch-blind heartbeat here would resurrect the stale assignment.
		c.db.HeartbeatEpoch(b.Agent, b.Epoch, b.AgentTimeNs, b.Degraded)
	}
	return nil
}

// AgentHandoff bundles the per-agent delivery state that travels when an
// agent is re-homed to another collector: the record-batch ledger and the
// aggregate-frame ledger (independent sequence spaces, same semantics).
type AgentHandoff struct {
	Records    tracedb.LedgerHandoff
	HasRecords bool
	Aggs       tracedb.LedgerHandoff
	HasAggs    bool
}

// ExportAgent snapshots an agent's delivery ledgers for handoff to a
// successor collector. In a real deployment this reads the failed
// collector's persisted ledger; here the in-memory state doubles as it.
func (c *Collector) ExportAgent(agent string) AgentHandoff {
	var h AgentHandoff
	h.Records, h.HasRecords = c.db.ExportLedger(agent)
	h.Aggs, h.HasAggs = c.aggs.ExportLedger(agent)
	return h
}

// ImportAgent installs exported ledger state at the given epoch — the
// successor collector's half of a re-homing. The imported high-water
// marks are what keep delivery exactly-once across the move: the agent's
// spool re-ships batches the failed collector already ingested (their
// acks were lost with it), and the imported ledger dedups them here.
func (c *Collector) ImportAgent(agent string, epoch uint64, h AgentHandoff) {
	if h.HasRecords {
		c.db.ImportLedger(agent, epoch, h.Records)
	}
	if h.HasAggs {
		c.aggs.ImportLedger(agent, epoch, h.Aggs)
	}
}

// FenceAgent closes both of an agent's ledgers at the new epoch — the
// old home's half of a re-homing. Stragglers still routed here (spooled
// batches from before the retarget, aggregate frames, heartbeats) are
// fenced instead of ingested or counted as liveness.
func (c *Collector) FenceAgent(agent string, epoch uint64) {
	c.db.CloseAgentEpoch(agent, epoch)
	c.aggs.CloseAgentEpoch(agent, epoch)
}

// StorageStats returns the trace database's aggregate segment-store
// accounting (resident vs spilled bytes, compression ratio, evictions).
func (c *Collector) StorageStats() tracedb.StorageStats { return c.db.StorageTotals() }

// HandleBatch implements RecordSink. With ingest workers running it
// enqueues and returns immediately (dropping the batch if the queue is
// full); otherwise it inserts inline.
func (c *Collector) HandleBatch(b RecordBatch) error {
	_, err := c.HandleBatchAck(b)
	return err
}

// HandleBatchAck implements AckingRecordSink: like HandleBatch, but the
// reply carries the ingest queue's depth and capacity at accept time —
// the backpressure signal the agent's degradation controller feeds on. A
// synchronous collector (no ingest workers) reports 0/0: inline inserts
// apply their own backpressure by blocking the transport.
func (c *Collector) HandleBatchAck(b RecordBatch) (BatchAck, error) {
	c.mu.Lock()
	q := c.queue
	if q != nil {
		// Non-blocking send under c.mu: StopIngest nils c.queue under the
		// same lock before closing the channel, so this can never send on
		// a closed channel.
		select {
		case q <- b:
		default:
			c.droppedBatches++
		}
		ack := BatchAck{QueueDepth: len(q), QueueCap: cap(q)}
		c.mu.Unlock()
		return ack, nil
	}
	c.mu.Unlock()
	c.ingest(b)
	return BatchAck{}, nil
}

// ingest loads one batch into the trace database and updates totals. The
// per-agent ledger drops batches whose sequence number was already
// ingested in the batch's epoch — the transport is at-least-once (the TCP
// client re-sends a batch after a reconnect, and the agent spool re-ships
// unacknowledged batches), so dedup here is what makes delivery
// exactly-once — and fences batches carrying a stale epoch (a zombie
// pre-restart agent process). Duplicates still count as heartbeats — the
// agent is demonstrably alive — but fenced batches do not: the zombie
// must not keep its successor's identity looking healthy.
func (c *Collector) ingest(b RecordBatch) {
	// Admit, WAL-append and insert are one barrier-shared unit inside the
	// front door, so a checkpoint never cuts between them.
	switch c.frontDoor().AdmitRecordBatch(b.Agent, b.Epoch, b.Seq, b.Records, b.RawRecords, b.AgentTimeNs, b.Degraded) {
	case tracedb.BatchFenced:
		return
	case tracedb.BatchDuplicate:
		c.mu.Lock()
		c.dupBatches++
		c.dupRecords += uint64(len(b.Records))
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.batches++
	c.records += uint64(len(b.Records))
	c.ringDrops += b.RingDrops
	c.mu.Unlock()
}

// StartIngest switches the collector to asynchronous ingest: HandleBatch
// enqueues onto a queue of the given depth, drained by workers goroutines.
// Calling it while ingest is already running is a no-op.
func (c *Collector) StartIngest(workers, depth int) {
	if workers < 1 {
		workers = 1
	}
	if depth < 1 {
		depth = 1
	}
	c.mu.Lock()
	if c.queue != nil {
		c.mu.Unlock()
		return
	}
	q := make(chan RecordBatch, depth)
	c.queue = q
	c.mu.Unlock()
	c.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer c.wg.Done()
			for b := range q {
				c.ingestFn(b)
			}
		}()
	}
}

// StopIngest drains the queue, stops the workers, and reverts HandleBatch
// to synchronous inserts. Every batch accepted before StopIngest is in the
// database when it returns.
func (c *Collector) StopIngest() {
	c.mu.Lock()
	q := c.queue
	c.queue = nil
	c.mu.Unlock()
	if q == nil {
		return
	}
	close(q)
	c.wg.Wait()
}

// Stats reports collector totals over ingested batches.
func (c *Collector) Stats() (batches, records, ringDrops uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.batches, c.records, c.ringDrops
}

// DeliveryStats reports exactly-once bookkeeping: batches/records dropped
// as duplicates (already-ingested sequence numbers re-sent by transport
// retries or spool re-ships) and batches missing across all agents —
// sequence-number gaps that are either still spooled agent-side or, if
// the agent evicted them, confirmed lost.
func (c *Collector) DeliveryStats() (dupBatches, dupRecords, missingBatches uint64) {
	for _, agent := range c.db.Agents() {
		if l, ok := c.db.Ledger(agent); ok {
			missingBatches += l.MissingBatches
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dupBatches, c.dupRecords, missingBatches
}

// FencedStats sums the epoch fence's work across agents: stale-epoch
// batches rejected (every arrival, retries included) and the record
// payload confirmed lost to fencing (counted once per batch).
func (c *Collector) FencedStats() (fencedBatches, fencedRecords uint64) {
	for _, agent := range c.db.Agents() {
		if l, ok := c.db.Ledger(agent); ok {
			fencedBatches += l.FencedBatches
			fencedRecords += l.FencedRecords
		}
	}
	return fencedBatches, fencedRecords
}

// IngestStats reports ingest backpressure: the current queue depth and the
// total batches dropped because the queue was full.
func (c *Collector) IngestStats() (queueDepth int, droppedBatches uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.queue != nil {
		queueDepth = len(c.queue)
	}
	return queueDepth, c.droppedBatches
}
