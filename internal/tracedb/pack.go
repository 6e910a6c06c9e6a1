// Packs are the data directory's files for sealed extents. A table
// appends each sealed extent's blob — the vntx bytes SealRecords makes,
// unframed — to its current pack,
//
//	tp<tpid:%08x>-<first seal seq:%06d>.vnp
//
// with one pwrite at the pack's length, so a seal creates no file: only
// the first seal after a roll does, creating the pack. A pack rolls (the
// table stops appending to it) at every checkpoint, after the
// checkpoint's seals and before the checkpoint is written, when it
// reaches the DB's roll size, so retention can free disk, and after a
// failed append, so a pack always holds consecutive seals. Rolling at each
// checkpoint gives the invariant recovery relies on: every pack lies
// wholly below the checkpoint's seal fence, or wholly at or past it.
//
// A pack holds no index. An extent's trailer gives its length (idOff plus
// the tail its counts size), so recovery walks a pack back from its end,
// one tail read per extent, and checks the vntx header at each extent's
// computed start. A tail that does not verify is counted and skipped: the
// walk searches back for the previous trailer that verifies, so one bad
// extent never hides the rest of its pack.
package tracedb

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
)

// packRollBytes is the size at which a table's pack rolls between
// checkpoints. It bounds what retention leaves on disk past its budget:
// the extents it evicted from a pack that still holds a live one.
const packRollBytes = 16 << 20

// pack is one pack file and the extents in it.
type pack struct {
	path string
	// f is the pack's file, open from creation or adoption. A kept pack
	// (within the DB's handle budget) keeps it open for reads until
	// eviction or DB.Close; the reads of any other pack open path, and f
	// serves the appends and the checkpoint's sync, closed once the pack
	// has rolled and is clean.
	f    *os.File
	kept bool
	// size, live (extents not evicted) and dirty (appends no checkpoint
	// has synced) belong to the owning table and are guarded by its lock.
	size  int64
	live  int
	dirty bool
}

// packName is the file name of tpid's pack whose first extent has seal
// sequence seq.
func packName(tpid uint32, seq int) string { return fmt.Sprintf("tp%08x-%06d.vnp", tpid, seq) }

// parseTableFile parses tp<tpid>-<seq> plus ext, the name of a pack
// (".vnp") or of a per-extent file of the layout before packs (".vnx");
// ok is false for any other name.
func parseTableFile(name, ext string) (tpid uint32, seq int, ok bool) {
	format := "tp%08x-%06d" + ext
	if n, err := fmt.Sscanf(name, format, &tpid, &seq); n != 2 || err != nil || fmt.Sprintf(format, tpid, seq) != name {
		return 0, 0, false
	}
	return tpid, seq, true
}

// createPack creates the pack named name in the data directory. The
// first pack makes the directory, and so does the next one after it is
// removed.
func (db *DB) createPack(name string) (*pack, error) {
	path := filepath.Join(db.cfg.DataDir, name)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if errors.Is(err, os.ErrNotExist) {
		if err = os.MkdirAll(db.cfg.DataDir, 0o755); err == nil {
			f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		}
	}
	if err != nil {
		return nil, err
	}
	return &pack{path: path, f: f, kept: db.handles.reserve()}, nil
}

// close closes the pack's file and returns its handle when it is kept. A
// file already closed is not counted twice.
func (p *pack) close(hs *handles) error {
	err := p.f.Close()
	if errors.Is(err, os.ErrClosed) {
		return nil
	}
	if p.kept {
		hs.open.Add(-1)
	}
	return err
}

// handles is one DB's budget of pack files kept open across reads. A
// lookup or scan of an extent in a kept pack opens nothing; past the
// budget, each read opens the pack and closes it again.
type handles struct {
	budget int64
	open   atomic.Int64
	closed atomic.Bool // the DB is closed: keep nothing more
}

// maxPackHandles bounds a DB's kept packs. A quarter of the process's
// open-file soft limit caps it lower, so the store never takes the
// descriptors its sockets and logs need.
const maxPackHandles = 1024

// packHandleBudget is the budget each DB starts with.
var packHandleBudget = func() int64 {
	n := uint64(maxPackHandles)
	if lim := openFileLimit(); lim > 0 {
		n = min(n, lim/4)
	}
	return int64(n)
}()

// reserve claims one handle; false when the budget is spent or the DB is
// closed.
func (hs *handles) reserve() bool {
	if hs.closed.Load() {
		return false
	}
	if hs.open.Add(1) <= hs.budget {
		return true
	}
	hs.open.Add(-1)
	return false
}

// adoptPack opens the pack at path, one of tpid's below the checkpoint's
// seal fence, and rebuilds the resident metadata of every extent in it
// that verifies. corrupt counts the damaged stretches the walk skipped.
// A pack with no extent left to adopt is closed again and returned nil.
func adoptPack(path string, tpid uint32, hs *handles) (p *pack, exts []*Extent, corrupt int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, 0, err
	}
	p = &pack{path: path, f: f, size: fi.Size()}
	exts, corrupt = walkPack(f, p.size, tpid)
	if len(exts) == 0 {
		f.Close()
		return nil, nil, corrupt, nil
	}
	for _, e := range exts {
		e.pack = p
	}
	p.live = len(exts)
	if p.kept = hs.reserve(); !p.kept {
		f.Close()
	}
	return p, exts, corrupt, nil
}

// walkPack adopts the extents of a pack of size bytes read through r,
// walking back from its end, and returns them in pack order. Each step
// reads the tail before end in one read (two when it is longer than
// adoptTailGuess), sizes the extent from its trailer and verifies the
// tail, then checks the header and the tracepoint. An extent that fails
// any of it is counted, and the walk resumes at the previous trailer that
// verifies: a tail whose checksum holds but whose header does not may
// have lied about its length, so its start is not trusted either.
func walkPack(r io.ReaderAt, size int64, tpid uint32) (exts []*Extent, corrupt int) {
	rd := readers.Get().(*extentReader)
	defer readers.Put(rd)
	for end := size; end > 0; {
		e, err := adoptAt(r, rd, end, tpid)
		if err != nil {
			corrupt++
			end = resync(r, rd, end)
			continue
		}
		exts = append(exts, e)
		end = e.base
	}
	slices.Reverse(exts)
	return exts, corrupt
}

// adoptAt adopts the extent that ends at end.
func adoptAt(r io.ReaderAt, rd *extentReader, end int64, tpid uint32) (*Extent, error) {
	from := max(0, end-adoptTailGuess)
	var err error
	if rd.buf, err = readFull(r, rd.buf, from, int(end-from)); err != nil {
		return nil, err
	}
	n, ok := extentLen(rd.buf, end)
	if !ok {
		return nil, fmt.Errorf("tracedb: pack: no extent trailer ends at %d", end)
	}
	t, err := parseExtentTail(rd.buf[max(0, int64(len(rd.buf))-n):], n)
	window := err == nil
	if err == errShortTail {
		if rd.buf, err = readFull(r, rd.buf, end-n+t.idOff, int(n-t.idOff)); err == nil {
			t, err = parseExtentTail(rd.buf, n)
		}
	}
	if err != nil {
		return nil, err
	}
	start := end - n
	var hdr [extentHeaderLen]byte
	if window && start >= from {
		copy(hdr[:], rd.buf[start-from:])
	} else if _, err := r.ReadAt(hdr[:], start); err != nil {
		return nil, err
	}
	if [4]byte(hdr[:4]) != extentMagic || hdr[4] != extentVersion {
		return nil, fmt.Errorf("tracedb: pack: extent at %d has header %#x", start, hdr)
	}
	if t.tpid != tpid {
		return nil, fmt.Errorf("tracedb: pack: extent at %d holds tracepoint %d, its pack %d", start, t.tpid, tpid)
	}
	e := &Extent{base: start, storedBytes: int(n), tailOff: int(t.idOff)}
	e.count, e.minTimeNs, e.maxTimeNs = t.count, t.minTimeNs, t.maxTimeNs
	e.filter = newIDFilter(t.count)
	for ids := t.ids; len(ids) >= 4; ids = ids[4:] {
		e.filter.add(le.Uint32(ids))
	}
	return e, nil
}

// extentLen returns the length of the extent whose trailer ends b, when
// that extent fits in the limit bytes before the trailer's end. It checks
// only what sizing needs; parseExtentTail verifies the rest.
func extentLen(b []byte, limit int64) (int64, bool) {
	if len(b) < extentTrailerLen {
		return 0, false
	}
	tr := b[len(b)-extentTrailerLen:]
	count := le.Uint64(tr[trailerCount:])
	flows := uint64(le.Uint32(tr[trailerFlows:]))
	idOff := le.Uint64(tr[trailerIDOff:])
	// count and idOff first, so the sum cannot overflow.
	if count > uint64(limit)/(4+minRecordBytes) || idOff < extentHeaderLen || idOff > uint64(limit) {
		return 0, false
	}
	blocks := (count + blockRecords - 1) / blockRecords
	n := idOff + 4*count + flowEntryLen*flows + dirEntryLen*blocks + extentTrailerLen
	if n > uint64(limit) {
		return 0, false
	}
	return int64(n), true
}

// resyncWindow is how much of a pack resync reads at a time.
const resyncWindow = 64 << 10

// resync returns the largest offset below end at which a verifying
// extent tail ends, or 0 when none does. It reads the pack backward a
// window at a time and tries every offset; only a trailer whose sizes fit
// costs a checksum. It runs only where the walk met damage.
func resync(r io.ReaderAt, rd *extentReader, end int64) int64 {
	var tail []byte
	for hi := end - 1; hi >= extentHeaderLen+extentTrailerLen; {
		lo := max(0, hi-resyncWindow)
		var err error
		if rd.blk, err = readFull(r, rd.blk, lo, int(hi-lo)); err != nil {
			return 0
		}
		for at := hi; at-lo >= extentTrailerLen; at-- {
			b := rd.blk[:at-lo]
			n, ok := extentLen(b, at)
			if !ok {
				continue
			}
			t, err := parseExtentTail(b[max(0, int64(len(b))-n):], n)
			if err == errShortTail {
				if tail, err = readFull(r, tail, at-n+t.idOff, int(n-t.idOff)); err == nil {
					_, err = parseExtentTail(tail, n)
				}
			}
			if err == nil {
				return at
			}
		}
		if lo == 0 {
			break
		}
		// The next window ends where this one's untried offsets do.
		hi = lo + extentTrailerLen - 1
	}
	return 0
}

// readFull reads the n bytes at off of r into buf, grown as needed. A
// short read — the file ends first — is an error.
func readFull(r io.ReaderAt, buf []byte, off int64, n int) ([]byte, error) {
	buf = slices.Grow(buf[:0], n)[:n]
	got, err := r.ReadAt(buf, off)
	if got == n {
		return buf, nil
	}
	if err == nil || err == io.EOF {
		err = fmt.Errorf("tracedb: pack ends %d bytes into a %d-byte read at %d", got, n, off)
	}
	return buf[:0], err
}

// fileSystem is the storage seam of the durable write path: the calls
// whose order decides what a crash can lose. The DB's packs and the
// Durability's checkpoints and WAL generations go through it; a test
// records the order.
type fileSystem interface {
	// writeAt writes all of b at off of f.
	writeAt(f *os.File, b []byte, off int64) error
	// sync forces f's bytes to stable storage.
	sync(f *os.File) error
	// rename moves from to to, replacing to.
	rename(from, to string) error
	// syncDir forces dir's entries (files created, renamed, removed) to
	// stable storage. A missing directory has nothing to sync.
	syncDir(dir string) error
	// remove unlinks a file.
	remove(path string) error
}

// osFS is the fileSystem of the operating system.
type osFS struct{}

func (osFS) writeAt(f *os.File, b []byte, off int64) error {
	_, err := f.WriteAt(b, off)
	return err
}

func (osFS) sync(f *os.File) error        { return f.Sync() }
func (osFS) rename(from, to string) error { return os.Rename(from, to) }
func (osFS) remove(path string) error     { return os.Remove(path) }

func (osFS) syncDir(dir string) error {
	d, err := os.Open(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
