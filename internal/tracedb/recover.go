// The admission front door, crash recovery and the Durability
// coordinator. Every record batch and aggregate frame a store takes in —
// live off the wire, replayed from the WAL, or loaded from a dump — goes
// through Durability.admit: classify against the ledger, log if a WAL is
// open, apply if fresh, under a shared/exclusive barrier that lets
// checkpoints cut a consistent snapshot without stopping the world
// between batches. Unlogged builds that door with no log behind it.
// Recover is the single startup path for a durable collector — first boot
// and post-crash are the same call: sweep orphaned temp files, adopt the
// packed extents the latest checkpoint covers, restore the checkpointed
// ledgers and aggregate store, replay the WAL tail through the door (so a
// torn, duplicated, or reordered tail can never double-ingest), and only
// then open the log behind it at the next LSN. It uses every core: packs
// are walked on a worker pool and a replayed batch's tables fill side by
// side.
package tracedb

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vnettracer/internal/core"
)

// DefaultFsyncEvery is the group-commit period for FsyncInterval.
const DefaultFsyncEvery = 50 * time.Millisecond

// checkpointsKept is how many valid checkpoints survive a new one: the
// newest plus one fallback in case the newest is lost with its disk
// sector.
const checkpointsKept = 2

// DurabilityConfig configures the collector's durability layer.
type DurabilityConfig struct {
	// Dir holds the WAL generations and checkpoint files. Required.
	Dir string
	// Fsync selects the WAL flush policy (default FsyncNever).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval period (default DefaultFsyncEvery).
	FsyncEvery time.Duration
}

// RecoveryStats reports what one Recover call rebuilt.
type RecoveryStats struct {
	// CheckpointLoaded reports whether a valid checkpoint was found;
	// CheckpointLSN is its LSN (0 on a cold start).
	CheckpointLoaded bool
	CheckpointLSN    uint64
	// AdoptedExtents/AdoptedRecords count packed extents adopted under
	// the checkpoint's seal fence. DroppedPacks counts post-checkpoint
	// pack files removed (their records replay from the WAL instead);
	// CorruptExtents counts the stretches of pre-checkpoint packs that
	// failed to verify — a damaged extent, a torn append, an extent of a
	// retired format — and were skipped.
	AdoptedExtents int
	AdoptedRecords uint64
	DroppedPacks   int
	CorruptExtents int
	// ReplayedEntries counts WAL entries applied (LSN past the
	// checkpoint); ReplayedRecords/ReplayedFrames their fresh payloads;
	// ReplayedDup entries that deduplicated against restored ledger state.
	ReplayedEntries uint64
	ReplayedRecords uint64
	ReplayedFrames  uint64
	ReplayedDup     uint64
	// TornTails counts WAL files truncated at a torn or corrupt frame.
	TornTails int
	// SweptTmp counts orphaned *.tmp files removed from the WAL dir.
	SweptTmp int
	// NextLSN is the first LSN the resumed log will assign.
	NextLSN uint64
}

// DurabilityStats is a live snapshot of the durability layer's counters.
type DurabilityStats struct {
	Dir    string
	Policy FsyncPolicy
	// WALEntries/WALBytes/WALSyncs count appended frames, framed bytes,
	// and fsync calls since this process opened the log.
	WALEntries uint64
	WALBytes   uint64
	WALSyncs   uint64
	// WALErrors counts appends that failed to reach the log (the batch
	// was still ingested; its durability is degraded and visible here).
	WALErrors uint64
	// NextLSN is the next LSN to be assigned.
	NextLSN uint64
	// Checkpoints/CheckpointErrors count completed and failed checkpoint
	// attempts; LastCheckpointLSN is the newest durable cut.
	Checkpoints       uint64
	CheckpointErrors  uint64
	LastCheckpointLSN uint64
	// LastError is the most recent WAL or checkpoint failure, "" if none.
	LastError string
}

// Durability fronts a DB + AggStore pair with the admission sequence
// and, when Recover opened one, a write-ahead log and checkpointing. All
// methods are safe for concurrent use.
type Durability struct {
	db   *DB
	aggs *AggStore
	// dir holds the WAL generations and checkpoints; empty while no WAL
	// is open (Unlogged, and Recover until replay is done), which makes
	// the log step of admission a no-op.
	dir string

	// barrier orders ingest against checkpoints: admissions hold it
	// shared, a checkpoint holds it exclusive, so the checkpoint's cut
	// never observes an admitted-but-unapplied batch.
	barrier sync.RWMutex

	// wmu serializes WAL appends and guards the writer + error counters.
	wmu        sync.Mutex
	wal        walWriter
	walErrors  uint64
	lastWALErr error

	cmu               sync.Mutex
	checkpoints       uint64
	checkpointErrors  uint64
	lastCheckpointLSN uint64
	lastCkptErr       error

	// replay, set only while Recover replays the WAL, fills a fresh
	// batch's tables on a worker each.
	replay *replayer

	// flushStop/flushWG manage the FsyncInterval group-commit flusher
	// goroutine; stopOnce makes Close idempotent about stopping it.
	// flushKick wakes the flusher early when the staged group passes the
	// high-water mark, so a burst drains at disk speed instead of pooling
	// in memory for a full period.
	flushStop chan struct{}
	flushKick chan struct{}
	flushWG   sync.WaitGroup
	stopOnce  sync.Once
}

// Unlogged fronts db and aggs with the admission front door and no
// write-ahead log: what a collector runs on until SetDurability hands it
// a recovered one, and what offline tools load dumps through.
func Unlogged(db *DB, aggs *AggStore) *Durability {
	return &Durability{db: db, aggs: aggs}
}

// Recover builds the durability layer over db and aggs, restoring any
// state a previous incarnation persisted under cfg.Dir. db must have a
// DataDir (checkpoints seal heads into spilled extents; without a data
// directory the WAL could never truncate safely). A cold start — empty
// directory — recovers to an empty state and is the normal first boot.
// Nothing else may use db until Recover returns.
func Recover(db *DB, aggs *AggStore, cfg DurabilityConfig) (*Durability, RecoveryStats, error) {
	if cfg.Dir == "" {
		return nil, RecoveryStats{}, fmt.Errorf("tracedb: durability requires a directory")
	}
	if db.Config().DataDir == "" {
		return nil, RecoveryStats{}, fmt.Errorf("tracedb: durability requires the DB to have a DataDir (checkpoints spill head segments there)")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, RecoveryStats{}, err
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = DefaultFsyncEvery
	}
	db.checkpointed = true

	var stats RecoveryStats
	stats.SweptTmp = sweepTmpFiles(db.fs, cfg.Dir)

	ckpt, loaded, err := loadLatestCheckpoint(cfg.Dir)
	if err != nil {
		return nil, stats, err
	}
	sealFence := make(map[uint32]int)
	if loaded {
		stats.CheckpointLoaded = true
		stats.CheckpointLSN = ckpt.LSN
		db.restoreStates(ckpt.Ledgers)
		aggs.restoreState(ckpt.Aggs)
		for tpid, ts := range ckpt.Tables {
			t := db.ensureTableNamed(tpid, ts.Name)
			t.mu.Lock()
			t.sealSeq = ts.SealSeq
			t.evictedRecords = ts.EvictedRecords
			t.evictedExtents = ts.EvictedExtents
			t.spillErrors = ts.SpillErrors
			t.mu.Unlock()
			sealFence[tpid] = ts.SealSeq
		}
	}

	files, err := listWALFiles(cfg.Dir)
	if err != nil {
		return nil, stats, err
	}
	// Packs past the seal fence are dropped for replay to rebuild; with no
	// checkpoint and no logged entry, nothing could (an unlogged collector
	// sealed them), so adoptPacks keeps them and fails.
	replayable := loaded
	for _, name := range files {
		if fi, err := os.Stat(filepath.Join(cfg.Dir, name)); err == nil && fi.Size() > 0 {
			replayable = true
		}
	}
	if err := adoptPacks(db, sealFence, replayable, &stats); err != nil {
		return nil, stats, err
	}

	// Replay goes through the same front door live ingest uses; its log is
	// not open yet, so nothing replayed is logged a second time.
	d := Unlogged(db, aggs)
	maxLSN, err := d.replayWAL(cfg.Dir, files, &stats)
	if err != nil {
		return nil, stats, err
	}

	d.dir = cfg.Dir
	d.wal = walWriter{
		fs:      db.fs,
		dir:     cfg.Dir,
		policy:  cfg.Fsync,
		nextLSN: maxLSN + 1,
	}
	d.lastCheckpointLSN = stats.CheckpointLSN
	// Recovery resumes in a fresh generation rather than reopening the
	// truncated tail: prior generations stay on disk (their entries are
	// past the checkpoint and must survive another crash) until the next
	// checkpoint retires them.
	if err := d.wal.openGeneration(); err != nil {
		return nil, stats, err
	}
	stats.NextLSN = d.wal.nextLSN
	if cfg.Fsync == FsyncInterval {
		// Group commit off the hot path: appends only stage frames in
		// memory, and this flusher writes+syncs each accumulated group
		// once per period. Ingest never waits on storage; loss stays
		// bounded to one period of acknowledged batches. The staging
		// buffer is made after replay, not beside it: live while replay
		// ran, its 8 MiB raised the GC's heap goal for replay's garbage,
		// and the pipeline benchmark's peak RSS with it. The flusher makes
		// its spare itself.
		d.wal.buf = prefault(make([]byte, 0, walGroupHighWater))
		d.flushStop = make(chan struct{})
		d.flushKick = make(chan struct{}, 1)
		d.flushWG.Add(1)
		go d.flushLoop(cfg.FsyncEvery)
	}
	return d, stats, nil
}

// replayWAL replays the generations in files, in order, through the
// admission front door and returns the highest LSN it met (the
// checkpoint's when none is past it). A torn or corrupt frame ends its
// generation's usable log: the file is truncated there, so it replays
// cleanly next time, and replay goes on, since later generations (created
// by a recovery after the tear) are still valid.
//
// Frames are read, classified and merged on the caller, in LSN order; a
// fresh record batch's tables fill at the same time (replayer), and all
// of them are done before the next frame is decoded into the batch's
// record array. The packs replay makes take their handles once it is over
// (holdReplayed).
func (d *Durability) replayWAL(dir string, files []string, stats *RecoveryStats) (maxLSN uint64, err error) {
	db := d.db
	db.replaying = true
	d.replay = &replayer{db: db}
	defer func() {
		d.replay = nil
		db.replaying = false
		db.holdReplayed()
	}()
	maxLSN = stats.CheckpointLSN
	for _, name := range files {
		path := filepath.Join(dir, name)
		goodOff, tornErr, err := walReplayFile(path, func(e *walEntry) {
			if e.LSN <= stats.CheckpointLSN {
				return
			}
			if e.LSN > maxLSN {
				maxLSN = e.LSN
			}
			stats.ReplayedEntries++
			switch st := d.admit(e); {
			case st != BatchFresh:
				stats.ReplayedDup++
			case e.Kind == walKindRecords:
				stats.ReplayedRecords += uint64(len(e.Records))
			default:
				stats.ReplayedFrames++
			}
		})
		if err != nil {
			return 0, err
		}
		if tornErr != nil {
			if err := db.fs.truncate(path, goodOff); err != nil {
				return 0, err
			}
			stats.TornTails++
		}
	}
	return maxLSN, nil
}

// replayer inserts a replayed batch with its tables filling at the same
// time, one goroutine per table up to GOMAXPROCS (fanOut). Each table
// takes its runs through the appendRuns, seal and pack append live
// ingest uses, in the calls and the order DB.Insert makes; only the
// tables' order against each other is given up. A table's seal shares
// nothing with another's but the pack handle budget, which replay's packs
// do not draw on (DB.replaying), so the recovered store is the one a
// serial replay makes.
type replayer struct {
	db     *DB
	runs   []tableRuns // the batch's appendRuns calls, reused
	tables []*Table    // the tables they fill, reused
}

// tableRuns is one of DB.Insert's appendRuns calls.
type tableRuns struct {
	t    *Table
	recs []core.Record
}

func (r *replayer) add(t *Table, recs []core.Record) {
	r.runs = append(r.runs, tableRuns{t, recs})
	if !slices.Contains(r.tables, t) {
		r.tables = append(r.tables, t)
	}
}

// insert inserts recs as DB.Insert does and returns when every table has
// taken its runs.
func (r *replayer) insert(recs []core.Record) {
	r.runs, r.tables = r.runs[:0], r.tables[:0]
	r.db.eachRuns(recs, r.add)
	fanOut(len(r.tables), func(i int) {
		t := r.tables[i]
		for _, run := range r.runs {
			if run.t == t {
				t.appendRuns(run.recs)
			}
		}
	})
}

// holdReplayed gives the packs replay made — still open, each with
// appends no checkpoint has synced — the handles the budget has left,
// table by table in tracepoint order and each table's oldest first, so
// which of them are kept is the same however replay's workers interleaved.
func (db *DB) holdReplayed() {
	for _, tpid := range db.Tables() {
		t, _ := db.Table(tpid)
		t.mu.Lock()
		for _, p := range t.packs {
			if p.dirty && !p.kept {
				p.kept = db.handles.reserve()
			}
		}
		t.mu.Unlock()
	}
}

// flushLoop is the FsyncInterval group-commit flusher: once per period
// it swaps the staged frame buffer out under the lock, then performs the
// write+fsync OUTSIDE the lock so ingest never stalls behind storage
// latency. If a checkpoint rotates the generation mid-flight, the
// in-flight group either lands out of order in the retiring file (replay
// admits out-of-order seqs like any reordered network delivery) or fails
// against the closed file — and in both cases every staged LSN is <= the
// checkpoint's cut, so the just-written checkpoint already covers it.
// Flush failures surface through the same WAL error counters as append
// failures.
func (d *Durability) flushLoop(every time.Duration) {
	defer d.flushWG.Done()
	// The spare is first swapped in at the first flush, a period or a
	// high-water mark after Recover returns, so it is made here, beside
	// what the collector does first, not on recovery's critical path.
	spare := prefault(make([]byte, 0, walGroupHighWater))
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-d.flushStop:
			return
		case <-t.C:
		case <-d.flushKick:
		}
		d.wmu.Lock()
		w := &d.wal
		if w.f == nil || (len(w.buf) == 0 && !w.dirty) {
			d.wmu.Unlock()
			continue
		}
		buf, f := w.buf, w.f
		w.buf = spare[:0]
		w.dirty = false
		w.syncs++
		d.wmu.Unlock()

		var err error
		if len(buf) > 0 {
			_, err = f.Write(buf)
		}
		if err == nil {
			err = f.Sync()
		}
		d.wmu.Lock()
		spare = buf
		if err != nil && d.wal.f == f {
			d.walErrors++
			d.lastWALErr = err
		}
		d.wmu.Unlock()
	}
}

// adoptPacks rescans the DB's data directory: packs under the
// checkpoint's seal fence are adopted back into their tables (each
// extent's metadata rebuilt from its tail; the blocks stay on disk,
// unread), packs at or past the fence are removed — their records were
// logged after the checkpoint cut and will be re-inserted by WAL replay,
// which re-seals and re-packs them. When nothing is replayable (no
// checkpoint, no WAL entry) and such packs exist, it fails and removes
// none. A directory holding per-extent files of the layout before packs
// is refused whole.
//
// The packs are walked on a worker pool (fanOut), adoptWindow at a time so
// the files open at once stay bounded; each window's packs then join their
// tables, and take their handles, in (tracepoint, seal seq) order, the
// order a serial walk would, so the same packs are kept.
func adoptPacks(db *DB, sealFence map[uint32]int, replayable bool, stats *RecoveryStats) error {
	dir := db.Config().DataDir
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	type found struct {
		tpid    uint32
		seq     int
		path    string
		p       *pack
		exts    []*Extent
		corrupt int
		err     error
	}
	var adopt []found
	var drop []string
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if _, _, old := parseTableFile(ent.Name(), ".vnx"); old {
			return fmt.Errorf("tracedb: recover: data directory %s holds %s, an extent file of the layout before pack files; it cannot be migrated: start the collector with a fresh WAL and data directory", dir, ent.Name())
		}
		tpid, seq, ok := parseTableFile(ent.Name(), ".vnp")
		if !ok {
			continue
		}
		path := filepath.Join(dir, ent.Name())
		if seq >= sealFence[tpid] {
			drop = append(drop, path)
			continue
		}
		adopt = append(adopt, found{tpid: tpid, seq: seq, path: path})
	}
	if len(drop) > 0 && !replayable {
		return fmt.Errorf("tracedb: recover: data directory %s holds %d pack files that no checkpoint covers and no WAL entry replays; refusing to delete them", dir, len(drop))
	}
	for _, path := range drop {
		db.fs.remove(path)
	}
	stats.DroppedPacks = len(drop)
	sort.Slice(adopt, func(i, j int) bool {
		if adopt[i].tpid != adopt[j].tpid {
			return adopt[i].tpid < adopt[j].tpid
		}
		return adopt[i].seq < adopt[j].seq
	})
	for lo := 0; lo < len(adopt); lo += adoptWindow {
		window := adopt[lo:min(lo+adoptWindow, len(adopt))]
		fanOut(len(window), func(i int) {
			a := &window[i]
			a.p, a.exts, a.corrupt, a.err = openPack(a.path, a.tpid)
		})
		for _, a := range window {
			stats.CorruptExtents += a.corrupt
			if a.err != nil {
				stats.CorruptExtents++
				continue
			}
			if a.p == nil {
				continue
			}
			a.p.hold(&db.handles)
			t := db.ensureTableNamed(a.tpid, "")
			t.mu.Lock()
			t.packs = append(t.packs, a.p)
			t.sealed = append(t.sealed, a.exts...)
			for _, e := range a.exts {
				t.sealedRecords += e.count
				t.sealedBytes += int64(e.storedBytes)
				stats.AdoptedExtents++
				stats.AdoptedRecords += uint64(e.count)
			}
			t.mu.Unlock()
		}
	}
	for tpid, fence := range sealFence {
		t := db.ensureTableNamed(tpid, "")
		t.mu.Lock()
		t.sealSeq = max(t.sealSeq, fence)
		t.mu.Unlock()
	}
	return nil
}

// adoptWindow is how many packs adoptPacks walks before it attaches them:
// the bound on the pack files it holds open at once.
const adoptWindow = 256

// fanOut calls fn(i) for every i in [0, n) on min(GOMAXPROCS, n)
// goroutines, the caller's one of them, and returns when all calls have.
func fanOut(n int, fn func(i int)) {
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), n) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// ensureTableNamed returns the table for tpid, creating it (with the
// given name) if needed; a non-empty name also renames an auto-created
// table — recovery learns pretty names from the checkpoint after extents
// may have auto-created the table.
func (db *DB) ensureTableNamed(tpid uint32, name string) *Table {
	db.mu.Lock()
	defer db.mu.Unlock()
	if t, ok := db.tables[tpid]; ok {
		if name != "" {
			t.Name = name
		}
		return t
	}
	if name == "" {
		name = fmt.Sprintf("tp%d", tpid)
	}
	t := newTable(db, tpid, name)
	db.tables[tpid] = t
	return t
}

// AdmitRecordBatch is the front door for a record batch: it classifies
// the batch against the ledger and — only when fresh — appends it
// to the WAL (fsync per policy; the records' own bytes, one copy) and
// inserts the records.
func (d *Durability) AdmitRecordBatch(agent string, epoch, seq uint64, recs []core.Record, nowNs int64, degraded uint8) BatchStatus {
	return d.admit(&walEntry{
		Kind: walKindRecords, Agent: agent, Epoch: epoch, Seq: seq,
		TimeNs: nowNs, Degraded: degraded, Records: recs,
	})
}

// AdmitAggFrame is the front door for an aggregate frame: classified by
// the same ledger as record batches, it is logged and merged when fresh.
func (d *Durability) AdmitAggFrame(agent string, epoch, seq uint64, scripts []ScriptAgg, nowNs int64, degraded uint8) BatchStatus {
	return d.admit(&walEntry{
		Kind: walKindAggs, Agent: agent, Epoch: epoch, Seq: seq,
		TimeNs: nowNs, Degraded: degraded, Scripts: scripts,
	})
}

// admit is the one admission sequence — classify, log, apply — all under
// the shared side of the checkpoint barrier so a concurrent checkpoint
// never cuts between admission and application. Both kinds classify
// through the DB's ledger; a frame's payload there is 0 records. A WAL
// append failure does not drop the delivery (it is applied and the error
// is surfaced in Stats); it degrades durability, not availability.
// Admit-before-log is safe because losing the unlogged append also loses
// the ack: the unacknowledged delivery re-ships.
func (d *Durability) admit(e *walEntry) BatchStatus {
	d.barrier.RLock()
	defer d.barrier.RUnlock()
	st := d.db.AdmitBatch(e.Agent, e.Epoch, e.Seq, len(e.Records), e.TimeNs, e.Degraded)
	// An unsequenced empty delivery is a bare heartbeat: nothing to replay.
	if st == BatchFresh && d.dir != "" && (e.Seq != 0 || len(e.Records)+len(e.Scripts) > 0) {
		d.append(e)
	}
	switch {
	case e.Kind == walKindAggs:
		d.aggs.add(st, e.Scripts)
	case st != BatchFresh:
	case d.replay != nil:
		d.replay.insert(e.Records)
	default:
		d.db.Insert(e.Records)
	}
	return st
}

// walGroupHighWater is the staged-group size past which an append wakes
// the flusher early: a burst then drains at disk speed instead of
// pooling in memory without bound. It is sized as an emergency valve —
// in steady state the periodic tick drains long before this —
// so ordinary ingest never pays flusher interference.
//
// Both FsyncInterval staging buffers are allocated at this size and
// pre-faulted (prefault): the writer's when Recover opens the log, the
// flusher's spare when the flusher starts. Staging a frame is then one
// memcpy, with no realloc copy and no first-touch page fault on the
// ingest path. They stay preallocated although that keeps 16 MiB
// resident from the start: buffers that grew on demand instead were
// measured on a 2-vCPU machine, and the pipeline benchmark's setup_s fell
// 92 % and peak_rss_mb fell 14 MiB (records-bulk) and 28 MiB
// (aggregates-bulk), but records-paced cpu_us_per_rec rose 9.5 % (6 of 6
// pairs), with the GC's CPU fraction up from 0.001 to 0.006 (cause not
// confirmed).
const walGroupHighWater = 8 << 20

// append logs one entry, counting rather than propagating failures.
func (d *Durability) append(e *walEntry) {
	d.wmu.Lock()
	if err := d.wal.append(e); err != nil {
		d.walErrors++
		d.lastWALErr = err
	}
	kick := d.flushKick != nil && len(d.wal.buf) >= walGroupHighWater
	d.wmu.Unlock()
	if kick {
		select {
		case d.flushKick <- struct{}{}:
		default:
		}
	}
}

// Checkpoint cuts a durable snapshot: it seals every head segment into
// its table's pack and rolls the pack, syncs the packs and the data
// directory, snapshots the ledgers and aggregate store at the current
// LSN, writes the checkpoint atomically, and then retires all WAL
// generations the checkpoint covers by rotating to a fresh one. The
// exclusive barrier guarantees no batch is between admission and
// application at the cut. A checkpoint that cannot make the head durable
// (a seal failed to spill — disk full — or a sync failed) aborts and
// keeps the WAL intact.
func (d *Durability) Checkpoint() error {
	d.barrier.Lock()
	defer d.barrier.Unlock()
	err := d.checkpointLocked()
	d.cmu.Lock()
	if err != nil {
		d.checkpointErrors++
		d.lastCkptErr = err
	} else {
		d.checkpoints++
	}
	d.cmu.Unlock()
	return err
}

func (d *Durability) checkpointLocked() error {
	if d.dir == "" {
		return fmt.Errorf("tracedb: checkpoint: no write-ahead log is open")
	}
	tables, err := d.db.checkpointCut()
	if err != nil {
		return err
	}

	d.wmu.Lock()
	lastLSN := d.wal.nextLSN - 1
	d.wmu.Unlock()

	payload := &checkpointPayload{
		LSN:     lastLSN,
		Ledgers: d.db.exportStates(),
		Tables:  tables,
		Aggs:    d.aggs.exportState(),
	}
	if _, err := writeCheckpoint(d.db.fs, d.dir, payload); err != nil {
		return err
	}

	// The checkpoint is durable: rotate to a fresh generation and retire
	// every older one (all their entries have LSN <= lastLSN).
	d.wmu.Lock()
	rotErr := d.wal.openGeneration()
	active := walFileName(d.wal.nextLSN)
	d.wmu.Unlock()
	if rotErr != nil {
		return rotErr
	}
	if files, err := listWALFiles(d.dir); err == nil {
		for _, name := range files {
			if name != active {
				d.db.fs.remove(filepath.Join(d.dir, name))
			}
		}
	}
	d.pruneCheckpoints()

	d.cmu.Lock()
	d.lastCheckpointLSN = lastLSN
	d.cmu.Unlock()
	return nil
}

// checkpointCut cuts every table (Table.checkpointCut), then syncs the
// data directory: when it returns, every extent below the returned
// states' seal fences is on stable storage, and so is the directory entry
// of every pack that holds one. A table that fails its cut fails the
// whole; its unsynced packs wait for the next.
func (db *DB) checkpointCut() (map[uint32]tableState, error) {
	states := make(map[uint32]tableState)
	for _, t := range db.tableList() {
		st, err := t.checkpointCut()
		if err != nil {
			return nil, fmt.Errorf("tracedb: checkpoint aborted (keeping WAL): %w", err)
		}
		states[t.TPID] = st
	}
	if err := db.fs.syncDir(db.cfg.DataDir); err != nil {
		return nil, fmt.Errorf("tracedb: checkpoint aborted: %w", err)
	}
	return states, nil
}

// pruneCheckpoints deletes all but the newest checkpointsKept checkpoint
// files.
func (d *Durability) pruneCheckpoints() {
	names, err := listCheckpoints(d.dir)
	if err != nil {
		return
	}
	for _, name := range names[min(len(names), checkpointsKept):] {
		d.db.fs.remove(filepath.Join(d.dir, name))
	}
}

// Close stops the group-commit flusher, then syncs and closes the WAL.
// The Durability must not be used after.
func (d *Durability) Close() error {
	d.stopOnce.Do(func() {
		if d.flushStop != nil {
			close(d.flushStop)
			d.flushWG.Wait()
		}
	})
	d.wmu.Lock()
	defer d.wmu.Unlock()
	return d.wal.close()
}

// Stats snapshots the durability counters.
func (d *Durability) Stats() DurabilityStats {
	d.wmu.Lock()
	s := DurabilityStats{
		Dir:        d.dir,
		Policy:     d.wal.policy,
		WALEntries: d.wal.entries,
		WALBytes:   d.wal.bytes,
		WALSyncs:   d.wal.syncs,
		WALErrors:  d.walErrors,
		NextLSN:    d.wal.nextLSN,
	}
	var lastErr error = d.lastWALErr
	d.wmu.Unlock()
	d.cmu.Lock()
	s.Checkpoints = d.checkpoints
	s.CheckpointErrors = d.checkpointErrors
	s.LastCheckpointLSN = d.lastCheckpointLSN
	if d.lastCkptErr != nil {
		lastErr = d.lastCkptErr
	}
	d.cmu.Unlock()
	if lastErr != nil {
		s.LastError = lastErr.Error()
	}
	return s
}

// prefault touches one byte per page of b's full capacity so the pages
// are resident before the hot path stores into them: taking those faults
// lazily would smear milliseconds of fault latency across the first
// high-water mark of ingest (see walGroupHighWater).
func prefault(b []byte) []byte {
	full := b[:cap(b)]
	for i := 0; i < len(full); i += 4096 {
		full[i] = 0
	}
	return b
}

// sweepTmpFiles removes orphaned *.tmp files (a crash between temp write
// and rename leaks them) through fsys and returns how many it removed.
func sweepTmpFiles(fsys fileSystem, dir string) int {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, ent := range ents {
		if ent.IsDir() || filepath.Ext(ent.Name()) != ".tmp" {
			continue
		}
		if fsys.remove(filepath.Join(dir, ent.Name())) == nil {
			n++
		}
	}
	return n
}
