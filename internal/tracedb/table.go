package tracedb

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"

	"vnettracer/internal/core"
)

// Table holds all records from one tracepoint, stored as an append-only,
// time-partitioned sequence of segments: a mutable in-memory head (raw
// records, nothing else) and a list of sealed, immutable, compressed
// extents — oldest first, in insertion order. Seals happen at
// batch boundaries (Insert appends whole per-tracepoint runs and only
// then checks the head's size), so every extent covers whole delivered
// batches and the collector's ledger state at any extent boundary is
// self-describing. All methods are safe for concurrent use with
// DB.Insert.
type Table struct {
	TPID uint32
	Name string

	db *DB

	mu sync.RWMutex
	// skewNs is the estimated clock offset of the node hosting this
	// tracepoint relative to the master (Cristian's algorithm); analyses
	// subtract it during timestamp alignment, applied per segment at read
	// time.
	skewNs int64

	// head is the mutable segment: raw records in insertion order, in an
	// array allocated once per segment. It carries no index; trace-ID
	// lookups scan it, which its size bound keeps cheaper than probing
	// one sealed extent.
	head []core.Record
	// enc is the seal path's scratch, reused from one seal to the next.
	enc extentEncoder

	// sealed lists immutable extents oldest-first. sealedRecords and
	// sealedBytes are running totals so Len and retention are O(1).
	sealed        []*Extent
	sealSeq       int
	sealedRecords int
	sealedBytes   int64

	evictedRecords uint64
	evictedExtents uint64

	// pack is the pack seals append to, nil until the first seal after a
	// roll; packs lists every pack that holds a live extent, oldest first,
	// the current one included. A pack holds consecutive seals: a failed
	// append rolls it, so the next seal starts a new one.
	pack  *pack
	packs []*pack
	// unspilled is how many extents at the end of sealed hold their blob
	// because their append failed. The next seal, and the next checkpoint,
	// append them again first, in order.
	unspilled int

	// spillErrors counts sealed extents that failed to spill to the data
	// directory (disk full, bad dir). The blob stays resident so no
	// records are lost, but the extent is not crash-durable; the counter
	// makes that visible in StorageStats instead of silently degrading.
	spillErrors  uint64
	lastSpillErr error

	// readErrors counts extent scans that failed mid-query (e.g. a
	// spilled file evicted between snapshot and read). Queries skip the
	// extent and keep going; the counter keeps the skip visible.
	readErrors atomic.Uint64
	// lookupReads counts the extents trace-ID lookups read (see
	// StorageStats.LookupReads).
	lookupReads atomic.Uint64
}

func newTable(db *DB, tpid uint32, name string) *Table {
	return &Table{TPID: tpid, Name: name, db: db}
}

// appendRuns adds every run of this table's records in recs, skipping the
// other tables' records between them, under one hold of the table lock.
// Each run is appended whole and then the head's size checked, so the
// head seals into a new extent at a run boundary: the first at which it
// has crossed the configured segment size.
func (t *Table) appendRuns(recs []core.Record) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := 0; i < len(recs); {
		if recs[i].TPID != t.TPID {
			i++
			continue
		}
		j := i + 1
		for j < len(recs) && recs[j].TPID == t.TPID {
			j++
		}
		if t.head == nil {
			// Room for a whole segment plus the run that tips it over, so a
			// segment of runs no longer than its first never regrows. Segment
			// sizes above the default start at the default and grow on demand:
			// a store configured never to seal must not reserve its limit per
			// table.
			t.head = make([]core.Record, 0, min(t.db.cfg.SegmentBytes, DefaultSegmentBytes)/core.RecordSize+j-i)
		}
		t.head = append(t.head, recs[i:j]...)
		if len(t.head)*core.RecordSize >= t.db.cfg.SegmentBytes {
			t.sealLocked()
		}
		i = j
	}
}

// sealLocked compresses the head into a new immutable extent, appends it
// to the table's pack when the DB has a data directory, and applies
// retention. Callers hold t.mu for writing.
func (t *Table) sealLocked() {
	if len(t.head) == 0 {
		return
	}
	ext, blob := sealExtent(&t.enc, t.TPID, t.head)
	if t.db.cfg.DataDir != "" {
		// Spill is best-effort: a failed write (disk full, bad dir) keeps
		// the blob resident rather than losing the records — but the
		// failure is counted, because a resident-only extent is invisible
		// to crash recovery and an operator needs to see disk trouble.
		err := t.respillLocked()
		if err == nil {
			err = t.appendLocked(ext, blob, t.sealSeq)
		}
		if err != nil {
			t.unspilled++
			t.spillErrors++
			t.lastSpillErr = err
		}
	}
	t.sealSeq++
	if !ext.Spilled() {
		ext.blob = bytes.Clone(blob)
	}
	t.sealed = append(t.sealed, ext)
	t.sealedRecords += ext.count
	t.sealedBytes += int64(ext.storedBytes)
	// The old head backing array may still be referenced by concurrent
	// scan snapshots, so start a fresh one rather than reusing it. Replay
	// reuses it: nothing reads the store before Recover returns.
	if t.db.replaying {
		t.head = t.head[:0]
	} else {
		t.head = nil
	}
	t.enforceRetentionLocked()
}

// appendLocked appends the blob of e, the table's seal seq, to its pack,
// creating the pack first when the last one rolled, or making it again
// when its file is gone, and rolls it once it reaches the DB's roll size.
// A failed write is cut off again, so the pack ends at its last whole
// extent, and rolls the pack.
func (t *Table) appendLocked(e *Extent, blob []byte, seq int) error {
	db := t.db
	if t.pack == nil {
		p, err := db.createPack(packName(t.TPID, seq))
		if err != nil {
			return err
		}
		t.pack = p
		t.packs = append(t.packs, p)
	} else if err := t.keepLocked(t.pack); err != nil {
		t.rollPackLocked()
		return err
	}
	p := t.pack
	if err := db.fs.writeAt(p.f, blob, p.size); err != nil {
		p.f.Truncate(p.size)
		t.rollPackLocked()
		return err
	}
	e.pack, e.base = p, p.size
	p.size += int64(len(blob))
	p.live++
	p.dirty = db.checkpointed
	if p.size >= db.packRoll {
		t.rollPackLocked()
	}
	return nil
}

// respillLocked appends the extents whose append failed, oldest first,
// stopping at the first that fails again. The sealed list ends at seal
// seq sealSeq-1, so the unspilled ones are the seqs just below it. Each
// spilled extent replaces its resident one in a copy of the list: a scan
// snapshot keeps the old list, and extents stay immutable.
func (t *Table) respillLocked() error {
	for t.unspilled > 0 {
		i := len(t.sealed) - t.unspilled
		e := *t.sealed[i]
		if err := t.appendLocked(&e, e.blob, t.sealSeq-t.unspilled); err != nil {
			return err
		}
		e.blob = nil
		t.sealed = slices.Clone(t.sealed)
		t.sealed[i] = &e
		t.unspilled--
	}
	return nil
}

// keepLocked makes p, a pack of this table, whole again in the data
// directory when its file was removed behind the store's back (a tmp
// cleaner, an operator removing the directory): it copies the live
// extents, still readable through p.f, into a new pack of the same name,
// and moves them there in a copy of the sealed list. A pack whose file is
// still linked is left as it is.
func (t *Table) keepLocked(p *pack) error {
	if gone, err := unlinked(p.f); err != nil || !gone {
		return err
	}
	i := slices.IndexFunc(t.sealed, func(e *Extent) bool { return e.pack == p })
	from := p.size
	if i >= 0 {
		from = t.sealed[i].base
	}
	buf, err := readFull(p.f, nil, from, int(p.size-from))
	if err != nil {
		return err
	}
	q, err := t.db.createPack(filepath.Base(p.path))
	if err != nil {
		return err
	}
	if err := t.db.fs.writeAt(q.f, buf, 0); err != nil {
		q.close(&t.db.handles)
		t.db.fs.remove(q.path)
		return err
	}
	q.size, q.live, q.dirty = int64(len(buf)), p.live, t.db.checkpointed
	exts := slices.Clone(t.sealed)
	for ; i >= 0 && i < len(exts) && exts[i].pack == p; i++ {
		e := *exts[i]
		e.pack, e.base = q, e.base-from
		exts[i] = &e
	}
	t.sealed = exts
	t.packs[slices.Index(t.packs, p)] = q
	if t.pack == p {
		t.pack = q
	}
	p.close(&t.db.handles)
	return nil
}

// rollPackLocked ends the current pack: the next seal creates a new one.
// A pack whose extents were all evicted meanwhile goes at once; one
// outside the handle budget keeps its file open only while a checkpoint
// has yet to sync it.
func (t *Table) rollPackLocked() {
	p := t.pack
	if p == nil {
		return
	}
	t.pack = nil
	switch {
	case p.live == 0:
		t.dropPackLocked(p)
	case !p.kept && !p.dirty:
		p.close(&t.db.handles)
	}
}

// dropPackLocked closes and unlinks a pack none of whose extents is live.
func (t *Table) dropPackLocked(p *pack) {
	p.close(&t.db.handles)
	t.db.fs.remove(p.path)
	t.packs = slices.DeleteFunc(t.packs, func(q *pack) bool { return q == p })
}

// evictLocked forgets one extent's bytes. A packed extent is gone from
// disk once its pack's last live extent is: then the pack is unlinked,
// its kept file closed, and a read still under way through a snapshot
// that holds one of its extents fails and is counted.
func (t *Table) evictLocked(e *Extent) {
	p := e.pack
	if p == nil {
		return
	}
	if p.live--; p.live == 0 && p != t.pack {
		t.dropPackLocked(p)
	}
}

// checkpointCut seals the head, appends the extents whose append failed,
// rolls the pack, and syncs every pack with appends not yet synced — first
// making one whose file is gone whole again — so every extent below the
// returned state's seal fence is on stable storage. An extent left
// resident fails the cut: its records are in no pack, so the checkpoint
// must not retire the WAL that holds them. The syncs run under the table
// lock; the checkpoint's barrier already holds ingest off, so only this
// table's readers wait.
func (t *Table) checkpointCut() (tableState, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sealLocked()
	err := t.respillLocked()
	t.rollPackLocked()
	if t.unspilled > 0 {
		return tableState{}, fmt.Errorf("table %d's %d resident extents failed to spill: %w", t.TPID, t.unspilled, err)
	}
	for i := range t.packs {
		if !t.packs[i].dirty {
			continue
		}
		if err := t.keepLocked(t.packs[i]); err != nil {
			return tableState{}, err
		}
		p := t.packs[i]
		if err := t.db.fs.sync(p.f); err != nil {
			return tableState{}, err
		}
		p.dirty = false
		if !p.kept {
			p.close(&t.db.handles)
		}
	}
	return tableState{
		Name:           t.Name,
		SealSeq:        t.sealSeq,
		EvictedRecords: t.evictedRecords,
		EvictedExtents: t.evictedExtents,
		SpillErrors:    t.spillErrors,
	}, nil
}

// enforceRetentionLocked evicts whole extents oldest-first until the
// sealed store fits the retention budget. The head is never evicted.
func (t *Table) enforceRetentionLocked() {
	retain := t.db.cfg.RetainBytes
	if retain <= 0 {
		return
	}
	k := 0
	for k < len(t.sealed) && t.sealedBytes > retain {
		ext := t.sealed[k]
		t.sealedBytes -= int64(ext.storedBytes)
		t.sealedRecords -= ext.count
		t.evictedRecords += uint64(ext.count)
		t.evictedExtents++
		t.evictLocked(ext)
		k++
	}
	t.unspilled = min(t.unspilled, len(t.sealed)-k)
	if k > 0 {
		// Reslice into a fresh array so the dropped extents become
		// collectable even while the old backing array is snapshotted.
		t.sealed = append([]*Extent(nil), t.sealed[k:]...)
	}
}

// Seal seals the current head segment immediately, regardless of size.
// Useful before shutdown (so a data directory holds everything) and in
// tests; a no-op on an empty head.
func (t *Table) Seal() {
	t.mu.Lock()
	t.sealLocked()
	t.mu.Unlock()
}

// snapshot captures the sealed extent list, the head prefix, and the skew
// without copying record data. Extents are immutable and head records are
// append-only (a seal swaps in a fresh backing array rather than reusing
// the old one), so the snapshot stays consistent while inserts continue.
func (t *Table) snapshot() ([]*Extent, []core.Record, int64) {
	t.mu.RLock()
	exts, head, skew := t.sealed, t.head, t.skewNs
	t.mu.RUnlock()
	return exts, head, skew
}

// Len returns the live record count (head plus sealed, minus evicted).
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.head) + t.sealedRecords
}

// Extents returns the current number of sealed segments.
func (t *Table) Extents() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.sealed)
}

// alignNs applies the skew correction to a timestamp, clamping at zero: a
// positive skew larger than an early record's timestamp must not wrap the
// unsigned time around to a huge value (which would sort the record after
// everything else and wreck latency math).
func alignNs(timeNs uint64, skewNs int64) uint64 {
	v := int64(timeNs) - skewNs
	if v < 0 {
		return 0
	}
	return uint64(v)
}

// cursor pulls the records of one table snapshot a batch at a time: each
// sealed extent's records whole, oldest extent first, then the head slice
// — the table's insertion order. It is the one way records leave a table
// in bulk: Scan loops over it and a Merged view heap-merges one per
// partition. When the snapshot holds sealed extents the cursor starts a
// producer goroutine (readAhead) that reads, verifies and decodes the
// next extent while the caller consumes the current one; close stops and
// drains it, so no goroutine outlives the scan.
type cursor struct {
	t    *Table
	head []core.Record
	skew int64      // the snapshot's alignment, for consumers that align
	ra   *readAhead // the producer, until it has sent batchEnd
	held batch      // the batch next returned last
}

// readAhead is a cursor's producer and everything it reuses, pooled whole:
// the extent reader, the two extent-sized record buffers that bound the
// handoff, and the channels that carry them. Between scans both buffers
// sit in free and full is empty.
type readAhead struct {
	rd   extentReader
	exts []*Extent
	stop atomic.Bool
	free chan []core.Record // the buffers the producer may decode into
	// full holds decoded batches in extent order, one slot per buffer, so
	// a producer never waits to hand a decoded buffer over and can read
	// and verify the next extent while both buffers are taken.
	full chan batch
	run  func() // produce, bound once: starting a scan allocates nothing
}

// batchKind says what a batch from the producer carries.
type batchKind uint8

const (
	_            batchKind = iota // the zero batch: nothing taken yet
	batchRecords                  // one extent's records, in one of the two buffers
	batchFailed                   // an extent that failed to read, verify or decode
	batchEnd                      // the producer is done; nothing follows
)

// batch is one handoff from the producer to the cursor.
type batch struct {
	recs []core.Record
	kind batchKind
}

var readAheads = sync.Pool{New: func() any {
	ra := &readAhead{free: make(chan []core.Record, 2), full: make(chan batch, 2)}
	ra.free <- nil
	ra.free <- nil
	ra.run = ra.produce
	return ra
}}

// produce is the sequential walk over the snapshot's extents, run on the
// producer goroutine. Each extent is decoded whole before any of it is
// handed over, so an extent delivers all of its records or none; stop
// ends the walk at the next extent boundary. batchEnd is the last thing
// produce touches ra for.
func (ra *readAhead) produce() {
	for _, e := range ra.exts {
		if ra.stop.Load() {
			break
		}
		ra.full <- ra.decode(e)
	}
	ra.full <- batch{kind: batchEnd}
}

// decode reads and verifies one extent, then decodes all of it into a
// free buffer.
func (ra *readAhead) decode(e *Extent) batch {
	x, err := e.view(&ra.rd)
	if err != nil {
		return batch{kind: batchFailed}
	}
	recs, err := x.decode(<-ra.free)
	if err != nil {
		ra.free <- recs
		return batch{kind: batchFailed}
	}
	return batch{recs: recs, kind: batchRecords}
}

func (t *Table) cursor() cursor {
	exts, head, skew := t.snapshot()
	c := cursor{t: t, head: head, skew: skew}
	if len(exts) > 0 {
		c.ra = readAheads.Get().(*readAhead)
		c.ra.exts = exts
		c.ra.stop.Store(false)
		go c.ra.run()
	}
	return c
}

// take hands the batch taken last back to the producer and waits for the
// next one. On batchEnd the producer is finished and goes back to the
// pool.
func (c *cursor) take() batch {
	if c.held.kind == batchRecords {
		c.ra.free <- c.held.recs
	}
	c.held = <-c.ra.full
	if c.held.kind == batchEnd {
		c.ra.exts = nil
		readAheads.Put(c.ra)
		c.ra = nil
	}
	return c.held
}

// next returns the next batch of records, raw and non-empty, or nil once
// the snapshot is exhausted. The slice is the producer's buffer (or the
// head itself): read-only, and valid until the next call. An extent that
// fails to read, verify or decode (evicted mid-query, damaged on disk,
// forged columns behind good checksums) delivers no record and is counted
// when the cursor reaches its place in the stream — so a scan stopped
// before it does not count it, however far ahead the producer ran.
func (c *cursor) next() []core.Record {
	for c.ra != nil {
		switch b := c.take(); {
		case b.kind == batchFailed:
			c.t.readErrors.Add(1)
		case len(b.recs) > 0:
			return b.recs
		}
	}
	head := c.head
	c.head = nil
	if len(head) == 0 {
		return nil
	}
	return head
}

// close stops the producer and waits for it, returning its batches, its
// reader and its buffers to the pool; the last batch next returned is dead
// after it.
func (c *cursor) close() {
	if c.ra == nil {
		return
	}
	c.ra.stop.Store(true)
	for c.ra != nil {
		c.take()
	}
}

// scan drives fn over the table in insertion order, aligning timestamps
// when align is set, until fn returns false.
func (t *Table) scan(align bool, fn func(core.Record) bool) {
	c := t.cursor()
	defer c.close()
	for recs := c.next(); recs != nil; recs = c.next() {
		for k := range recs {
			r := recs[k]
			if align {
				r.TimeNs = alignNs(r.TimeNs, c.skew)
			}
			if !fn(r) {
				return
			}
		}
	}
}

// Scan streams every record in insertion order until fn returns false.
// The segment snapshot is taken under the lock and decoded outside it, so
// long analyses never block inserts; records inserted after Scan starts
// are not visited.
func (t *Table) Scan(fn func(core.Record) bool) { t.scan(false, fn) }

// ScanAligned streams every record with timestamps corrected by the node
// skew ("timestamp alignment for the clock skew", Section III-C), until
// fn returns false. The correction is applied per segment at read time,
// so a skew learned after records sealed still aligns them.
func (t *Table) ScanAligned(fn func(core.Record) bool) { t.scan(true, fn) }

// ByTraceID returns all records for one packet ID in insertion order. A
// sealed extent is probed only when its Bloom filter admits the ID, and
// then only its tail and the blocks holding a match are read; the head
// snapshot is scanned linearly, outside the lock.
func (t *Table) ByTraceID(id uint32) []core.Record {
	exts, head, _ := t.snapshot()
	out := t.lookupSealed(exts, id)
	for i := range head {
		if head[i].TraceID == id {
			out = append(out, head[i])
		}
	}
	return out
}

// lookupSealed collects id's records from the extents whose Bloom filter
// admits it, oldest first. An extent that fails to read or verify
// contributes nothing and is counted.
func (t *Table) lookupSealed(exts []*Extent, id uint32) []core.Record {
	var out []core.Record
	var rd *extentReader
	for _, e := range exts {
		if !e.mayContain(id) {
			continue
		}
		if rd == nil {
			rd = readers.Get().(*extentReader)
			defer readers.Put(rd)
		}
		t.lookupReads.Add(1)
		var err error
		if out, err = e.lookup(rd, id, out); err != nil {
			t.readErrors.Add(1)
		}
	}
	return out
}

// Storage returns the table's segment-store accounting.
func (t *Table) Storage() StorageStats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s := StorageStats{
		TPID:           t.TPID,
		Name:           t.Name,
		HeadRecords:    uint64(len(t.head)),
		SealedRecords:  uint64(t.sealedRecords),
		Extents:        len(t.sealed),
		HeadBytes:      uint64(len(t.head)) * core.RecordSize,
		SealedRawBytes: uint64(t.sealedRecords) * core.RecordSize,
		EvictedRecords: t.evictedRecords,
		EvictedExtents: t.evictedExtents,
		ReadErrors:     t.readErrors.Load(),
		LookupReads:    t.lookupReads.Load(),
		SpillErrors:    t.spillErrors,
	}
	if t.lastSpillErr != nil {
		s.LastSpillError = t.lastSpillErr.Error()
	}
	s.ResidentBytes = s.HeadBytes
	for _, e := range t.sealed {
		s.ResidentBytes += e.residentBytes()
		if e.Spilled() {
			s.SpilledExtents++
			s.SpilledBytes += uint64(e.storedBytes)
		} else {
			s.SealedResidentBytes += uint64(e.storedBytes)
		}
	}
	for _, p := range t.packs {
		if p.kept && !t.db.handles.closed.Load() {
			s.OpenHandles++
		}
	}
	return s
}
