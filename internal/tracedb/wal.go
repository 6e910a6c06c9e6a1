// Write-ahead log for the collector's ingest path. Every admitted (fresh)
// record batch and aggregate frame is appended here before it is applied
// to the in-memory store, so a hard crash can replay the tail that the
// last checkpoint does not cover. The log is a sequence of generation
// files, each named for the first log sequence number (LSN) it holds:
//
//	wal-<firstLSN:%016x>.log
//
// A generation is an append-only stream of frames:
//
//	[4B big-endian payload length][4B big-endian CRC32(payload)][payload]
//
// and a payload is self-describing:
//
//	uvarint LSN | kind byte | kind-specific body
//
// kind 1 (record batch): uvarint agent-name length, name bytes, uvarint
// epoch, seq, zigzag-varint agent time, degraded byte, uvarint record
// count, then the records in their canonical 48-byte wire form
// (core.Record.MarshalTo) concatenated — the same layout trace programs
// emit and the batch transport carries, and the records' own memory
// (core.RecordBytes), so encode and replay are each one copy. Records
// are fixed-width rather than varint because this encode sits on the
// synchronous ingest path, and WAL bytes are short-lived (retired at the
// next checkpoint) so the size trade is cheap.
//
// kind 4 (aggregate frame): the same agent/epoch/seq/time/degraded
// prefix, then the script section (aggcodec.go) — the bytes the v5 wire
// frame carries after its header and agent name. Its seq is in the
// agent's one sequence space, shared with record batches.
//
// kinds 2 and 3 are retired: kind 2 held a dense aggregate body whose
// codec is gone; kind 3 is kind 4 numbered in a frames-only sequence
// space, which would collide with record batches' seqs. Recovery refuses
// a log holding either (errWALKindRetired) and leaves it untouched.
//
// Appends are group-committed: one frame write per batch (the batch is
// the group), with fsync driven by policy — always (every append),
// interval (a background flusher syncs at most once per configured
// period, off the ingest path), or never (page cache only). A torn
// final frame — short header, short payload, or CRC
// mismatch — marks the end of the log; recovery truncates it away and
// never panics on it.
package tracedb

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"vnettracer/internal/core"
)

// FsyncPolicy selects when the WAL forces appended frames to stable
// storage.
type FsyncPolicy int

const (
	// FsyncNever leaves flushing to the OS page cache: survives process
	// crashes (kill -9) but not power loss.
	FsyncNever FsyncPolicy = iota
	// FsyncInterval fsyncs at most once per configured interval, from a
	// background flusher rather than the ingest path — the group-commit
	// middle ground bounding loss to one interval of acks.
	FsyncInterval
	// FsyncAlways fsyncs after every appended frame.
	FsyncAlways
)

// ParseFsyncPolicy parses the CLI spelling: "always", "interval", or
// "never".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "never":
		return FsyncNever, nil
	case "interval":
		return FsyncInterval, nil
	case "always":
		return FsyncAlways, nil
	}
	return FsyncNever, fmt.Errorf("tracedb: unknown fsync policy %q (want always|interval|never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncInterval:
		return "interval"
	case FsyncAlways:
		return "always"
	}
	return "never"
}

// WAL entry kinds.
const (
	walKindRecords      byte = 1
	walKindRetiredDense byte = 2
	walKindRetiredSeq   byte = 3
	walKindAggs         byte = 4
)

// errWALKindRetired is what decoding a kind-2 or kind-3 entry wraps.
var errWALKindRetired = errors.New("is retired; a log holding it cannot be migrated: start the collector with a fresh WAL and data directory")

// walEntry is one logged ingest event: an admitted record batch or an
// admitted aggregate frame, with the ledger identity (agent, epoch, seq)
// that lets replay re-admit it through the same exactly-once front door.
type walEntry struct {
	LSN      uint64
	Kind     byte
	Agent    string
	Epoch    uint64
	Seq      uint64
	TimeNs   int64
	Degraded uint8
	Records  []core.Record // walKindRecords payload
	Scripts  []ScriptAgg   // walKindAggs payload
}

// walFrameHeader is the fixed per-frame framing: payload length + CRC.
const walFrameHeader = 8

// walRecordSize is the encoding of one core.Record inside a kind-1
// frame: the canonical 48-byte wire form shared with the ring buffer and
// the batch transport.
const walRecordSize = core.RecordSize

// maxWALPayload bounds a single frame so a corrupt length field cannot
// drive a giant allocation during recovery.
const maxWALPayload = 64 << 20

// appendWALPayload encodes the entry's payload (everything after the
// frame header) onto dst. It fails, returning nil, only for scripts the
// script section cannot hold.
func appendWALPayload(dst []byte, e *walEntry) ([]byte, error) {
	dst = binary.AppendUvarint(dst, e.LSN)
	dst = append(dst, e.Kind)
	dst = binary.AppendUvarint(dst, uint64(len(e.Agent)))
	dst = append(dst, e.Agent...)
	dst = binary.AppendUvarint(dst, e.Epoch)
	dst = binary.AppendUvarint(dst, e.Seq)
	dst = binary.AppendUvarint(dst, zigzag(e.TimeNs))
	dst = append(dst, e.Degraded)
	switch e.Kind {
	case walKindRecords:
		dst = binary.AppendUvarint(dst, uint64(len(e.Records)))
		dst = append(dst, core.RecordBytes(e.Records)...)
	case walKindAggs:
		return AppendScriptAggs(dst, e.Scripts)
	}
	return dst, nil
}

// decodeWALPayload decodes one frame payload into e, replacing what e
// held and reusing its arrays — the records', the scripts' and each
// script's slots and flows — grown where they are too small. Like the
// extent decoder it never allocates proportionally to a header-declared
// count alone — every count is checked against the bytes that remain, so
// arbitrary (fuzzed) input cannot balloon memory.
func decodeWALPayload(b []byte, e *walEntry) error {
	r := reader{buf: b}
	*e = walEntry{Records: e.Records[:0], Scripts: e.Scripts[:0]}
	var err error
	if e.LSN, err = r.uvarint(); err != nil {
		return fmt.Errorf("tracedb: wal lsn: %w", err)
	}
	if e.Kind, err = r.u8(); err != nil {
		return fmt.Errorf("tracedb: wal kind: %w", err)
	}
	switch e.Kind {
	case walKindRecords, walKindAggs:
	case walKindRetiredDense, walKindRetiredSeq:
		return fmt.Errorf("tracedb: wal kind %d %w", e.Kind, errWALKindRetired)
	default:
		return fmt.Errorf("tracedb: wal kind %d unknown", e.Kind)
	}
	agent, err := r.lenBytes()
	if err != nil {
		return fmt.Errorf("tracedb: wal agent: %w", err)
	}
	e.Agent = string(agent)
	if e.Epoch, err = r.uvarint(); err != nil {
		return fmt.Errorf("tracedb: wal epoch: %w", err)
	}
	if e.Seq, err = r.uvarint(); err != nil {
		return fmt.Errorf("tracedb: wal seq: %w", err)
	}
	t, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("tracedb: wal time: %w", err)
	}
	e.TimeNs = unzigzag(t)
	if e.Degraded, err = r.u8(); err != nil {
		return fmt.Errorf("tracedb: wal degraded: %w", err)
	}
	if e.Kind == walKindAggs {
		e.Scripts, err = DecodeScriptAggs(r.buf, e.Scripts)
		return err
	}
	n, err := r.uvarint()
	if err != nil {
		return fmt.Errorf("tracedb: wal record count: %w", err)
	}
	// Records are fixed-width, so the count bounds-checks exactly.
	if n != uint64(len(r.buf))/walRecordSize || len(r.buf)%walRecordSize != 0 {
		return fmt.Errorf("tracedb: wal record count %d does not match the %d bytes left", n, len(r.buf))
	}
	e.Records, err = core.AppendRecords(e.Records, r.buf)
	return err
}

// walFileName returns the generation file name for a first LSN.
func walFileName(firstLSN uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstLSN)
}

// parseWALFileName extracts the first LSN from a generation file name.
func parseWALFileName(name string) (uint64, bool) {
	var lsn uint64
	if n, err := fmt.Sscanf(name, "wal-%016x.log", &lsn); n == 1 && err == nil {
		return lsn, true
	}
	return 0, false
}

// listWALFiles returns the WAL generation files in dir, ascending by
// first LSN.
func listWALFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	type gen struct {
		name string
		lsn  uint64
	}
	var gens []gen
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		if lsn, ok := parseWALFileName(ent.Name()); ok {
			gens = append(gens, gen{ent.Name(), lsn})
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i].lsn < gens[j].lsn })
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.name
	}
	return names, nil
}

// walWriter appends frames to the active generation file. Callers
// serialize access (the Durability layer holds its own mutex).
type walWriter struct {
	fs      fileSystem
	dir     string
	policy  FsyncPolicy
	f       *os.File
	scratch []byte
	nextLSN uint64
	// buf holds frames group-committed under FsyncInterval: the hot path
	// only encodes into memory, and the flusher (or sync) writes the
	// accumulated group in one syscall. Other policies write per append.
	buf []byte
	// dirty reports frames written to f since the last fsync; a clean log
	// makes sync a no-op so the flusher never issues idle fsyncs.
	dirty bool

	entries uint64
	bytes   uint64
	syncs   uint64
}

// openGeneration starts (or truncates) the generation file whose first
// LSN is the writer's next LSN, and syncs the directory, so the new
// generation's entry is durable before any older one is retired.
func (w *walWriter) openGeneration() error {
	if w.f != nil {
		w.sync()
		w.f.Close()
		w.f = nil
	}
	f, err := os.OpenFile(filepath.Join(w.dir, walFileName(w.nextLSN)),
		os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return w.fs.syncDir(w.dir)
}

// append assigns the next LSN to e, frames it, writes it, and applies the
// fsync policy. The assigned LSN is stored into e.LSN. An entry the
// encoder refuses stages and writes nothing and takes no LSN.
func (w *walWriter) append(e *walEntry) error {
	if w.f == nil {
		if err := w.openGeneration(); err != nil {
			return err
		}
	}
	e.LSN = w.nextLSN
	var n int
	if w.policy == FsyncInterval {
		// Group commit: encode the frame straight into the staging
		// buffer and return. The Durability flusher drains buf with one
		// write+fsync per period, off the ingest path; loss stays
		// bounded to one period of acks.
		buf, err := appendWALFrame(w.buf, e)
		if err != nil {
			return err
		}
		n = len(buf) - len(w.buf)
		w.buf = buf
	} else {
		frame, err := appendWALFrame(w.scratch[:0], e)
		if err != nil {
			return err
		}
		w.scratch = frame
		n = len(frame)
		if _, err := w.f.Write(w.scratch); err != nil {
			return err
		}
		w.dirty = true
	}
	w.nextLSN++
	w.entries++
	w.bytes += uint64(n)
	if w.policy == FsyncAlways {
		return w.sync()
	}
	return nil
}

// appendWALFrame encodes one framed entry (header + payload) onto dst,
// or fails as appendWALPayload does.
func appendWALFrame(dst []byte, e *walEntry) ([]byte, error) {
	start := len(dst)
	dst, err := appendWALPayload(append(dst, 0, 0, 0, 0, 0, 0, 0, 0), e)
	if err != nil {
		return nil, err
	}
	payload := dst[start+walFrameHeader:]
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// flush writes any group-committed frames to the active generation.
func (w *walWriter) flush() error {
	if w.f == nil || len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	if err != nil {
		return err
	}
	w.dirty = true
	return nil
}

// sync flushes staged frames and forces the active generation to stable
// storage; a no-op when nothing landed since the last sync.
func (w *walWriter) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.flush(); err != nil {
		return err
	}
	if !w.dirty {
		return nil
	}
	w.dirty = false
	w.syncs++
	return w.f.Sync()
}

// close syncs and closes the active generation.
func (w *walWriter) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.f = nil
	return err
}

// walReadBuffer is the replay reader's buffer: several frames of a
// paced agent per read, and a frame larger than it is read straight into
// the payload buffer.
const walReadBuffer = 64 << 10

// walReplayFile streams one generation's frames into fn, in order. It
// stops at the first torn or corrupt frame and returns the byte offset of
// the end of the last good frame; tornErr describes why it stopped (nil
// when the file ended cleanly). Decode errors inside a CRC-valid frame
// are reported the same way — the frame marks the end of usable log —
// except a retired kind, which is the log's format and not damage: that
// is returned as err, so the generation is not cut short.
//
// Replay allocates per log, not per frame: one reader, one payload buffer
// and one entry whose record array every batch decodes into, each as
// large as the log's largest frame needs and never more than the bytes
// the file still holds. The entry handed to fn, its Records included, is
// valid only until fn returns.
func walReplayFile(path string, fn func(*walEntry)) (goodOff int64, tornErr error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return 0, nil, err
	}
	rd := bufio.NewReaderSize(f, walReadBuffer)
	var (
		hdr     [walFrameHeader]byte
		payload []byte
		e       walEntry
	)
	for off, size := int64(0), fi.Size(); ; {
		left := size - off
		if left == 0 {
			return off, nil, nil
		}
		if left < walFrameHeader {
			return off, fmt.Errorf("tracedb: wal: torn frame header (%d bytes)", left), nil
		}
		if _, err := io.ReadFull(rd, hdr[:]); err != nil {
			return off, nil, fmt.Errorf("tracedb: wal: %s: frame header at offset %d: %w", filepath.Base(path), off, err)
		}
		plen := int(binary.BigEndian.Uint32(hdr[0:4]))
		crc := binary.BigEndian.Uint32(hdr[4:8])
		if plen > maxWALPayload {
			return off, fmt.Errorf("tracedb: wal: frame length %d exceeds cap", plen), nil
		}
		if left -= walFrameHeader; left < int64(plen) {
			return off, fmt.Errorf("tracedb: wal: torn frame payload (%d of %d bytes)", left, plen), nil
		}
		payload = slices.Grow(payload[:0], plen)[:plen]
		if _, err := io.ReadFull(rd, payload); err != nil {
			return off, nil, fmt.Errorf("tracedb: wal: %s: frame payload at offset %d: %w", filepath.Base(path), off, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return off, fmt.Errorf("tracedb: wal: frame CRC mismatch at offset %d", off), nil
		}
		if err := decodeWALPayload(payload, &e); errors.Is(err, errWALKindRetired) {
			return off, nil, fmt.Errorf("tracedb: wal: %s: frame at offset %d: %w", filepath.Base(path), off, err)
		} else if err != nil {
			return off, fmt.Errorf("tracedb: wal: frame at offset %d: %w", off, err), nil
		}
		fn(&e)
		off += walFrameHeader + int64(plen)
	}
}
