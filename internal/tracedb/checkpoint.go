// Checkpoints snapshot the collector's non-record durable state — the
// per-agent delivery ledgers (including the frozen
// previous-epoch views and fenced accounting that keep zombie dedup
// exact), the merged aggregate store, and per-table seal/eviction
// counters — so recovery can restore exactly-once semantics and then
// replay only the WAL tail written after the checkpoint. Record payloads
// are NOT in the checkpoint: the checkpoint path seals every head segment
// into its table's pack and syncs the packs first, so records up to the
// checkpoint LSN are durable in packed extents and everything after it is
// durable in the WAL.
//
// A checkpoint file is named for the highest LSN it covers:
//
//	ckpt-<lsn:%016x>.ckpt
//
// and framed as: magic "vnck" | version byte | 8B big-endian LSN |
// 4B big-endian CRC32(payload) | JSON payload. Version 1, with a second
// per-agent ledger for aggregate frames, is refused. Files are written
// temp-then-rename, so a crash mid-checkpoint leaves the previous
// checkpoint intact and at worst an orphaned *.tmp (swept on startup).
package tracedb

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
)

const checkpointVersion = 2

var checkpointMagic = [4]byte{'v', 'n', 'c', 'k'}

// errCheckpointVersion is what reading a checkpoint of another version
// wraps; unlike corruption it fails recovery, leaving the files untouched.
var errCheckpointVersion = errors.New("unsupported checkpoint version")

// LedgerState is the full serialized form of one agentLedger: what a
// checkpoint restores, and what a handoff exports to a successor
// collector (whose importHandoff reads only the live sequence state, the
// gap and duplicate counts, the last heartbeat and the degradation level).
type LedgerState struct {
	LastSeenNs    int64    `json:"last_seen_ns,omitempty"`
	HighWater     uint64   `json:"hwm,omitempty"`
	MaxSeq        uint64   `json:"max_seq,omitempty"`
	Pending       []uint64 `json:"pending,omitempty"`
	Dups          uint64   `json:"dups,omitempty"`
	Epoch         uint64   `json:"epoch,omitempty"`
	PrevMaxSeq    uint64   `json:"prev_max_seq,omitempty"`
	PrevHighWater uint64   `json:"prev_hwm,omitempty"`
	PrevPending   []uint64 `json:"prev_pending,omitempty"`
	PrevFenced    []uint64 `json:"prev_fenced,omitempty"`
	MissingPrior  uint64   `json:"missing_prior,omitempty"`
	FencedBatches uint64   `json:"fenced_batches,omitempty"`
	FencedRecords uint64   `json:"fenced_records,omitempty"`
	Degraded      uint8    `json:"degraded,omitempty"`
}

// exportState snapshots the complete ledger. Callers hold the ledger
// mutex.
func (l *agentLedger) exportState() LedgerState {
	return LedgerState{
		LastSeenNs:    l.lastSeenNs,
		HighWater:     l.hwm,
		MaxSeq:        l.maxSeq,
		Pending:       sortedSeqs(l.pending),
		Dups:          l.dups,
		Epoch:         l.epoch,
		PrevMaxSeq:    l.prevMaxSeq,
		PrevHighWater: l.prevHwm,
		PrevPending:   sortedSeqs(l.prevPending),
		PrevFenced:    sortedSeqs(l.prevFenced),
		MissingPrior:  l.missingPrior,
		FencedBatches: l.fencedBatches,
		FencedRecords: l.fencedRecords,
		Degraded:      l.degraded,
	}
}

// restoreState overwrites the ledger with a checkpointed snapshot.
// Callers hold the ledger mutex.
func (l *agentLedger) restoreState(s LedgerState) {
	l.lastSeenNs = s.LastSeenNs
	l.hwm = s.HighWater
	l.maxSeq = s.MaxSeq
	l.pending = seqSet(s.Pending)
	l.dups = s.Dups
	l.epoch = s.Epoch
	l.prevMaxSeq = s.PrevMaxSeq
	l.prevHwm = s.PrevHighWater
	l.prevPending = nil
	if s.PrevPending != nil {
		l.prevPending = seqSet(s.PrevPending)
	}
	l.prevFenced = nil
	if s.PrevFenced != nil {
		l.prevFenced = seqSet(s.PrevFenced)
	}
	l.missingPrior = s.MissingPrior
	l.fencedBatches = s.FencedBatches
	l.fencedRecords = s.FencedRecords
	l.degraded = s.Degraded
}

func sortedSeqs(m map[uint64]struct{}) []uint64 {
	if len(m) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// tableState is the per-table durable accounting: the seal sequence
// fence (packs whose first extent's seq is below it are covered by the
// checkpoint; newer ones rebuild from the WAL) plus eviction/error
// counters that would otherwise reset to zero on restart. Table.
// checkpointCut makes it.
type tableState struct {
	Name           string `json:"name"`
	SealSeq        int    `json:"seal_seq"`
	EvictedRecords uint64 `json:"evicted_records,omitempty"`
	EvictedExtents uint64 `json:"evicted_extents,omitempty"`
	SpillErrors    uint64 `json:"spill_errors,omitempty"`
}

// aggState is the AggStore's serialized form: the merged script
// aggregates and the ingest counters.
type aggState struct {
	Scripts      []ScriptAgg `json:"scripts,omitempty"`
	FramesMerged uint64      `json:"frames_merged,omitempty"`
	FramesDup    uint64      `json:"frames_dup,omitempty"`
	FramesFenced uint64      `json:"frames_fenced,omitempty"`
	RowsMerged   uint64      `json:"rows_merged,omitempty"`
}

// exportState snapshots the aggregate store.
func (s *AggStore) exportState() aggState {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := aggState{
		FramesMerged: s.framesMerged,
		FramesDup:    s.framesDup,
		FramesFenced: s.framesFenced,
		RowsMerged:   s.rowsMerged,
	}
	names := make([]string, 0, len(s.scripts))
	for name := range s.scripts {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		st.Scripts = append(st.Scripts, s.scripts[name].snapshot())
	}
	return st
}

// restoreState overwrites the aggregate store with a checkpoint.
func (s *AggStore) restoreState(st aggState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range st.Scripts {
		s.merge(&st.Scripts[i])
	}
	s.framesMerged = st.FramesMerged
	s.framesDup = st.FramesDup
	s.framesFenced = st.FramesFenced
	s.rowsMerged = st.RowsMerged
}

// checkpointPayload is the JSON body of a checkpoint file.
type checkpointPayload struct {
	LSN        uint64                 `json:"lsn"`
	Ledgers    map[string]LedgerState `json:"ledgers,omitempty"`
	Tables     map[uint32]tableState  `json:"tables,omitempty"`
	Aggs       aggState               `json:"aggs"`
	SealedAtNs int64                  `json:"sealed_at_ns,omitempty"`
}

// checkpointFileName returns the file name for a checkpoint at lsn.
func checkpointFileName(lsn uint64) string {
	return fmt.Sprintf("ckpt-%016x.ckpt", lsn)
}

// parseCheckpointFileName extracts the LSN from a checkpoint file name.
func parseCheckpointFileName(name string) (uint64, bool) {
	var lsn uint64
	if n, err := fmt.Sscanf(name, "ckpt-%016x.ckpt", &lsn); n == 1 && err == nil {
		return lsn, true
	}
	return 0, false
}

// writeCheckpoint persists a checkpoint payload atomically (temp+rename,
// fsync before rename, the directory synced after it) and returns the
// final path.
func writeCheckpoint(fsys fileSystem, dir string, p *checkpointPayload) (string, error) {
	body, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	buf := make([]byte, 0, len(body)+17)
	buf = append(buf, checkpointMagic[:]...)
	buf = append(buf, checkpointVersion)
	buf = binary.BigEndian.AppendUint64(buf, p.LSN)
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(body))
	buf = append(buf, body...)

	final := filepath.Join(dir, checkpointFileName(p.LSN))
	tmp := final + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return "", err
	}
	if err := fsys.writeAt(f, buf, 0); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := fsys.sync(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return "", err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return "", err
	}
	if err := fsys.rename(tmp, final); err != nil {
		os.Remove(tmp)
		return "", err
	}
	return final, fsys.syncDir(dir)
}

// readCheckpoint parses and validates one checkpoint file.
func readCheckpoint(path string) (*checkpointPayload, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < 17 {
		return nil, fmt.Errorf("tracedb: checkpoint %s: short header", filepath.Base(path))
	}
	for i := range checkpointMagic {
		if b[i] != checkpointMagic[i] {
			return nil, fmt.Errorf("tracedb: checkpoint %s: bad magic", filepath.Base(path))
		}
	}
	if b[4] != checkpointVersion {
		return nil, fmt.Errorf("tracedb: checkpoint %s: %w %d (this build reads %d); it cannot be migrated: start the collector with a fresh WAL and data directory",
			filepath.Base(path), errCheckpointVersion, b[4], checkpointVersion)
	}
	lsn := binary.BigEndian.Uint64(b[5:13])
	crc := binary.BigEndian.Uint32(b[13:17])
	body := b[17:]
	if crc32.ChecksumIEEE(body) != crc {
		return nil, fmt.Errorf("tracedb: checkpoint %s: CRC mismatch", filepath.Base(path))
	}
	var p checkpointPayload
	if err := json.Unmarshal(body, &p); err != nil {
		return nil, fmt.Errorf("tracedb: checkpoint %s: %w", filepath.Base(path), err)
	}
	if p.LSN != lsn {
		return nil, fmt.Errorf("tracedb: checkpoint %s: header LSN %d != payload LSN %d",
			filepath.Base(path), lsn, p.LSN)
	}
	return &p, nil
}

// listCheckpoints returns the checkpoint files in dir, newest LSN first.
// A missing directory holds none.
func listCheckpoints(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type cand struct {
		name string
		lsn  uint64
	}
	var cands []cand
	for _, ent := range ents {
		if lsn, ok := parseCheckpointFileName(ent.Name()); ok && !ent.IsDir() {
			cands = append(cands, cand{ent.Name(), lsn})
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].lsn > cands[j].lsn })
	names := make([]string, len(cands))
	for i, c := range cands {
		names[i] = c.name
	}
	return names, nil
}

// loadLatestCheckpoint scans dir for the newest checkpoint that parses
// and CRC-validates, skipping corrupt ones. ok is false when no valid
// checkpoint exists (first boot, or all candidates corrupt).
func loadLatestCheckpoint(dir string) (*checkpointPayload, bool, error) {
	names, err := listCheckpoints(dir)
	if err != nil {
		return nil, false, err
	}
	for _, name := range names {
		p, err := readCheckpoint(filepath.Join(dir, name))
		if err == nil {
			return p, true, nil
		}
		if errors.Is(err, errCheckpointVersion) {
			return nil, false, err
		}
	}
	return nil, false, nil
}
