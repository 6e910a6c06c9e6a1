// Package tracedb is the trace database the raw-data collector loads
// records into — the offline store the paper implements with InfluxDB: one
// table per tracepoint, plus the collector's agent-heartbeat ledger.
//
// Storage is an append-only, time-partitioned segment store. Each table
// keeps a mutable in-memory head segment of raw records; when the head
// crosses the configured segment size it is sealed into an immutable,
// compressed Extent (256-record column blocks of delta-of-delta
// timestamps and zigzag-varint field deltas, a fixed-width trace-ID
// section, a per-extent flow dictionary — see codec.go), optionally
// spilled to a data directory, and eventually evicted whole by the
// retention policy. Queries stream sealed extents then the head in
// insertion order; clock-skew alignment is applied per segment at read
// time.
//
// The store is sharded for the ingest path: the DB-level lock guards only
// the table directory, each Table carries its own RWMutex, and the
// heartbeat ledger has a separate lock, so concurrent agents inserting
// into different tracepoints never serialize against each other or
// against analyses reading other tables.
package tracedb

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"vnettracer/internal/core"
)

// DefaultSegmentBytes is the head size (in raw record bytes) at which a
// table seals its head into a compressed extent.
const DefaultSegmentBytes = 256 * 1024

// Config tunes the segment store. The zero value gives an in-memory store
// with the default segment size and no retention limit — the behavior New
// provides.
type Config struct {
	// SegmentBytes is the raw-record byte size at which a table's head
	// segment seals. Zero or negative means DefaultSegmentBytes. Seals
	// happen at batch-run boundaries, so a head can overshoot by up to
	// one insert run.
	SegmentBytes int
	// DataDir, when set, spills every sealed extent to this directory and
	// keeps only extent metadata (count, time range, bloom filter)
	// resident. Each table appends its extents to pack files there (see
	// pack.go); recovery verifies every extent it adopts, so a torn append
	// is skipped, never misread.
	DataDir string
	// RetainBytes bounds the sealed store per table (compressed bytes,
	// resident or spilled). When exceeded, whole extents are evicted
	// oldest-first; the head is never evicted. Zero means keep forever.
	RetainBytes int64
}

func (c Config) withDefaults() Config {
	if c.SegmentBytes <= 0 {
		c.SegmentBytes = DefaultSegmentBytes
	}
	return c
}

// DB is a trace database. It is safe for concurrent use; the collector
// inserts while analyses query.
type DB struct {
	cfg Config

	// mu guards only the table directory; record data is guarded by each
	// table's own lock.
	mu     sync.RWMutex
	tables map[uint32]*Table

	// The delivery ledger of record batches and aggregate frames alike,
	// doubling as the agent-heartbeat monitor; it has its own lock.
	deliveryLedger

	// handles budgets the pack files kept open across reads.
	handles handles
	// fs is what packs, checkpoints and WAL generations are written,
	// synced, renamed and removed through; packRoll is the size at which
	// a table's pack rolls between checkpoints.
	fs       fileSystem
	packRoll int64
	// checkpointed is set when a Durability recovers the DB: its
	// checkpoints sync the packs, so a pack is dirty from an append until
	// one does, and a rolled pack outside the handle budget keeps its file
	// open until then.
	checkpointed bool
	// replaying is set while Recover replays the WAL: the packs replay
	// makes take no handle when they are created, since the order in which
	// tables seal then depends on how replay's goroutines interleave.
	// Recover hands them out afterwards, table by table (holdReplayed).
	// A seal then also reuses the head's array, which no scan can hold.
	replaying bool
}

// New returns an empty in-memory database with default segment sizing and
// no retention limit.
func New() *DB { return NewWith(Config{}) }

// NewWith returns an empty database with the given storage configuration.
func NewWith(cfg Config) *DB {
	db := &DB{cfg: cfg.withDefaults(), tables: make(map[uint32]*Table), fs: osFS{}, packRoll: packRollBytes}
	db.handles.budget = packHandleBudget
	return db
}

// Close closes the pack files the store keeps open. A pack removed from
// the data directory behind the store's back stays readable through its
// open handle until Close. Nothing may be read from the DB after it: an
// extent in a pack whose handle Close closed fails every read. Close
// returns the first error a close reports.
func (db *DB) Close() error {
	db.handles.closed.Store(true)
	var first error
	for _, t := range db.tableList() {
		t.mu.Lock()
		for _, p := range t.packs {
			if err := p.close(&db.handles); first == nil {
				first = err
			}
		}
		t.mu.Unlock()
	}
	return first
}

// Config returns the store's effective configuration.
func (db *DB) Config() Config { return db.cfg }

// CreateTable registers a tracepoint table. Creating an existing table is
// an error (tracepoint IDs must be unique per experiment).
func (db *DB) CreateTable(tpid uint32, name string) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, dup := db.tables[tpid]; dup {
		return nil, fmt.Errorf("tracedb: table %d already exists", tpid)
	}
	t := newTable(db, tpid, name)
	db.tables[tpid] = t
	return t, nil
}

// Insert routes records to their tracepoint tables, creating tables on
// demand for unknown tracepoints. Each run of one TPID is one append, and
// a table's seal check follows each of its runs, so extents break at run
// boundaries and stay batch aligned. Every packet fires every site of its
// path, so a batch usually alternates between a few tracepoints record by
// record: a table takes all of its runs in the batch under one hold of its
// lock, resolved once, instead of a directory lookup and a lock per
// record. A table's records keep their order; tables fill one after the
// other.
func (db *DB) Insert(recs []core.Record) { db.eachRuns(recs, (*Table).appendRuns) }

// eachRuns makes Insert's appendRuns calls for recs through fn, in order:
// one per table, at its first run, for the first eight tracepoints met;
// past those, a tracepoint's runs go in one call each, as each is met.
// Only the calls for one table depend on each other.
func (db *DB) eachRuns(recs []core.Record, fn func(t *Table, recs []core.Record)) {
	var done [8]uint32 // tracepoints whose runs are all in
	n := 0
	for i := range recs {
		tpid := recs[i].TPID
		if (i > 0 && recs[i-1].TPID == tpid) || slices.Contains(done[:n], tpid) {
			continue
		}
		if n == len(done) {
			j := i + 1
			for j < len(recs) && recs[j].TPID == tpid {
				j++
			}
			fn(db.table(tpid), recs[i:j])
			continue
		}
		fn(db.table(tpid), recs[i:])
		done[n] = tpid
		n++
	}
}

// table returns the table for tpid, creating it if needed.
func (db *DB) table(tpid uint32) *Table {
	db.mu.RLock()
	t, ok := db.tables[tpid]
	db.mu.RUnlock()
	if ok {
		return t
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[tpid]; ok {
		return t
	}
	t = newTable(db, tpid, fmt.Sprintf("tp%d", tpid))
	db.tables[tpid] = t
	return t
}

// Table returns the table for a tracepoint.
func (db *DB) Table(tpid uint32) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[tpid]
	return t, ok
}

// Tables lists all tracepoint IDs in ascending order.
func (db *DB) Tables() []uint32 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]uint32, 0, len(db.tables))
	for id := range db.tables {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// SetSkew records the clock offset correction for a tracepoint's node.
func (db *DB) SetSkew(tpid uint32, skewNs int64) {
	if t, ok := db.Table(tpid); ok {
		t.mu.Lock()
		t.skewNs = skewNs
		t.mu.Unlock()
	}
}

// tableList returns the tables, in no order.
func (db *DB) tableList() []*Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tables := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		tables = append(tables, t)
	}
	return tables
}

// SealAll seals every table's head segment (e.g. before shutdown, so a
// data directory holds the complete history).
func (db *DB) SealAll() {
	for _, t := range db.tableList() {
		t.Seal()
	}
}

// StorageStats is a snapshot of one table's (or, aggregated, a whole
// store's) segment accounting.
type StorageStats struct {
	// TPID and Name identify the table; zero/empty in aggregated totals.
	TPID uint32
	Name string

	// HeadRecords and SealedRecords partition the live record count.
	HeadRecords   uint64
	SealedRecords uint64
	// Extents is the sealed segment count; SpilledExtents of those live
	// on disk.
	Extents        int
	SpilledExtents int

	// HeadBytes is the raw size of the mutable head (records × 48).
	HeadBytes uint64
	// SealedRawBytes is what the sealed records would occupy uncompressed.
	SealedRawBytes uint64
	// SealedResidentBytes is compressed extent bytes held in memory;
	// SpilledBytes is compressed extent bytes on disk.
	SealedResidentBytes uint64
	SpilledBytes        uint64
	// ResidentBytes approximates the table's total in-memory footprint:
	// head + resident blobs + per-extent metadata (bloom filters etc.).
	ResidentBytes uint64

	// EvictedRecords/EvictedExtents count retention evictions since the
	// table was created. ReadErrors counts extent reads that failed
	// mid-query (the query skipped the extent).
	EvictedRecords uint64
	EvictedExtents uint64
	ReadErrors     uint64
	// LookupReads counts the extents trace-ID lookups have read. Each
	// was admitted by its filter; those that held no match were false
	// positives.
	LookupReads uint64
	// OpenHandles counts the pack files the store keeps open, so reads of
	// their extents open nothing. HandleBudget is the bound on that count
	// across one DB's tables: set in StorageTotals, zero per table, and
	// summed by Add, so a cluster's folded totals hold the sum of its
	// collectors' budgets.
	OpenHandles  int
	HandleBudget int

	// SpillErrors counts sealed extents that failed to write to the data
	// directory (the blob stayed resident, so nothing was lost in memory
	// — but the extent is not on disk and a crash would lose it).
	// LastSpillError is the most recent failure's message, "" when none;
	// aggregated stats keep the first non-empty one.
	SpillErrors    uint64
	LastSpillError string
}

// Records returns the live record count in the snapshot.
func (s StorageStats) Records() uint64 { return s.HeadRecords + s.SealedRecords }

// StoredBytes returns the compressed sealed size, resident plus spilled.
func (s StorageStats) StoredBytes() uint64 { return s.SealedResidentBytes + s.SpilledBytes }

// CompressionRatio is raw sealed bytes over compressed sealed bytes
// (e.g. 5.3 means sealed records take 5.3× less space than the flat
// store would use); zero when nothing has sealed.
func (s StorageStats) CompressionRatio() float64 {
	stored := s.StoredBytes()
	if stored == 0 {
		return 0
	}
	return float64(s.SealedRawBytes) / float64(stored)
}

// Add merges another table's stats into an aggregate — also the way
// cluster tooling folds per-collector storage totals into one view.
func (s *StorageStats) Add(o StorageStats) {
	s.HeadRecords += o.HeadRecords
	s.SealedRecords += o.SealedRecords
	s.Extents += o.Extents
	s.SpilledExtents += o.SpilledExtents
	s.HeadBytes += o.HeadBytes
	s.SealedRawBytes += o.SealedRawBytes
	s.SealedResidentBytes += o.SealedResidentBytes
	s.SpilledBytes += o.SpilledBytes
	s.ResidentBytes += o.ResidentBytes
	s.EvictedRecords += o.EvictedRecords
	s.EvictedExtents += o.EvictedExtents
	s.ReadErrors += o.ReadErrors
	s.LookupReads += o.LookupReads
	s.OpenHandles += o.OpenHandles
	s.HandleBudget += o.HandleBudget
	s.SpillErrors += o.SpillErrors
	if s.LastSpillError == "" {
		s.LastSpillError = o.LastSpillError
	}
}

// StorageStats returns per-table segment accounting, ordered by TPID.
func (db *DB) StorageStats() []StorageStats {
	ids := db.Tables()
	out := make([]StorageStats, 0, len(ids))
	for _, id := range ids {
		if t, ok := db.Table(id); ok {
			out = append(out, t.Storage())
		}
	}
	return out
}

// StorageTotals aggregates segment accounting across all tables.
func (db *DB) StorageTotals() StorageStats {
	var total StorageStats
	for _, s := range db.StorageStats() {
		total.Add(s)
	}
	total.TPID, total.Name = 0, ""
	total.HandleBudget = int(db.handles.budget)
	return total
}
