package ebpf

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// MapType enumerates the supported eBPF map types.
type MapType int

// Supported map types. The paper's trace scripts use hash maps for per-flow
// state, arrays for counters and histograms, and per-CPU arrays for
// softirq/CPU accounting (case study III).
const (
	MapTypeHash MapType = iota + 1
	MapTypeArray
	MapTypePerCPUArray
)

func (t MapType) String() string {
	switch t {
	case MapTypeHash:
		return "hash"
	case MapTypeArray:
		return "array"
	case MapTypePerCPUArray:
		return "percpu_array"
	}
	return fmt.Sprintf("maptype(%d)", int(t))
}

// Update flags, mirroring BPF_ANY / BPF_NOEXIST / BPF_EXIST.
const (
	UpdateAny     uint64 = 0
	UpdateNoExist uint64 = 1
	UpdateExist   uint64 = 2
)

// Map errors.
var (
	ErrKeySize    = errors.New("ebpf: wrong key size")
	ErrValueSize  = errors.New("ebpf: wrong value size")
	ErrMapFull    = errors.New("ebpf: map is full")
	ErrNoEntry    = errors.New("ebpf: no such entry")
	ErrEntryExist = errors.New("ebpf: entry already exists")
	ErrBadFlags   = errors.New("ebpf: invalid update flags")
	ErrOutOfRange = errors.New("ebpf: array index out of range")
)

// Map is the interface all map types implement. Lookup returns the map's
// internal value buffer: writes through the returned slice mutate the map,
// exactly as writes through a value pointer do in the kernel. All map
// operations are safe for concurrent use, since trace programs on different
// simulated CPUs and the userspace agent may touch a map concurrently.
// Lookup and Update are the userspace calls: on a per-CPU array they
// address CPU 0's slot, while programs address the executing CPU's.
type Map interface {
	Type() MapType
	KeySize() int
	ValueSize() int
	MaxEntries() int
	Lookup(key []byte) ([]byte, bool)
	Update(key, value []byte, flags uint64) error
	Delete(key []byte) error
	// ForEach iterates over a snapshot of entries. The callback receives
	// copies; mutating them does not affect the map. A per-CPU array
	// passes every CPU's slot of an entry in one value, in CPU order, as
	// the kernel's userspace lookup on a per-CPU map does.
	ForEach(fn func(key, value []byte))
	// Len returns the number of live entries.
	Len() int
}

// HashMap is a fixed-capacity hash map keyed by opaque bytes. Each key's
// storage is allocated once and outlives a Drain, which parks the entry
// rather than deleting it; the key's next Inc or Update revives it in
// place, so a steady set of flows aggregates without allocating.
type HashMap struct {
	mu         sync.Mutex
	keySize    int
	valueSize  int
	maxEntries int
	index      map[string]*hashEntry // live and parked entries
	live       int
	refused    uint64 // increments refused for a full map
}

// hashEntry is one key's storage: key and value share one buffer. A
// parked entry (live false) was drained and is absent to every reader
// until a write revives it.
type hashEntry struct {
	key, val []byte
	live     bool
}

var _ Map = (*HashMap)(nil)

// NewHashMap returns a hash map with the given key/value sizes and entry
// capacity.
func NewHashMap(keySize, valueSize, maxEntries int) (*HashMap, error) {
	if keySize <= 0 || valueSize <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("ebpf: invalid hash map geometry key=%d value=%d max=%d",
			keySize, valueSize, maxEntries)
	}
	return &HashMap{
		keySize:    keySize,
		valueSize:  valueSize,
		maxEntries: maxEntries,
		index:      make(map[string]*hashEntry, maxEntries),
	}, nil
}

// Type implements Map.
func (m *HashMap) Type() MapType { return MapTypeHash }

// KeySize implements Map.
func (m *HashMap) KeySize() int { return m.keySize }

// ValueSize implements Map.
func (m *HashMap) ValueSize() int { return m.valueSize }

// MaxEntries implements Map.
func (m *HashMap) MaxEntries() int { return m.maxEntries }

// Len implements Map.
func (m *HashMap) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.live
}

// find returns key's entry when it is live. The caller holds mu.
func (m *HashMap) find(key []byte) *hashEntry {
	if e := m.index[string(key)]; e != nil && e.live {
		return e
	}
	return nil
}

// insert makes an absent key live with a zeroed value. A parked entry of
// the same key (e, from the caller's lookup) is revived; otherwise the
// key gets a fresh buffer, never one another key used, so a program
// still holding an old map_lookup_elem pointer cannot write into another
// flow's value. When the index is at capacity the parked entries are
// evicted first; insert returns nil when maxEntries keys are live,
// without touching the index, so a full map refuses a new key in
// constant time. The caller holds mu.
func (m *HashMap) insert(key []byte, e *hashEntry) *hashEntry {
	if e == nil {
		if len(m.index) >= m.maxEntries {
			// The index holds live and parked entries only, so
			// len(m.index)-m.live are parked: sweep only if some are.
			if m.live >= m.maxEntries {
				return nil
			}
			for k, p := range m.index {
				if !p.live {
					delete(m.index, k)
				}
			}
		}
		kv := make([]byte, m.keySize+m.valueSize)
		copy(kv, key)
		e = &hashEntry{key: kv[:m.keySize:m.keySize], val: kv[m.keySize:]}
		m.index[string(key)] = e
	} else {
		clear(e.val)
	}
	e.live = true
	m.live++
	return e
}

// Lookup implements Map.
func (m *HashMap) Lookup(key []byte) ([]byte, bool) {
	if len(key) != m.keySize {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.find(key); e != nil {
		return e.val, true
	}
	return nil, false
}

// Update implements Map.
func (m *HashMap) Update(key, value []byte, flags uint64) error {
	if len(key) != m.keySize {
		return fmt.Errorf("%w: got %d want %d", ErrKeySize, len(key), m.keySize)
	}
	if len(value) != m.valueSize {
		return fmt.Errorf("%w: got %d want %d", ErrValueSize, len(value), m.valueSize)
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.find(key)
	switch {
	case flags == UpdateNoExist && e != nil:
		return ErrEntryExist
	case flags == UpdateExist && e == nil:
		return ErrNoEntry
	}
	if e == nil {
		if e = m.insert(key, m.index[string(key)]); e == nil {
			return ErrMapFull
		}
	}
	copy(e.val, value)
	return nil
}

// Delete implements Map.
func (m *HashMap) Delete(key []byte) error {
	if len(key) != m.keySize {
		return fmt.Errorf("%w: got %d want %d", ErrKeySize, len(key), m.keySize)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.find(key) == nil {
		return ErrNoEntry
	}
	delete(m.index, string(key))
	m.live--
	return nil
}

// ForEach implements Map.
func (m *HashMap) ForEach(fn func(key, value []byte)) {
	w := m.keySize + m.valueSize
	m.mu.Lock()
	snapshot := make([]byte, 0, m.live*w)
	for _, e := range m.index {
		if e.live {
			snapshot = append(append(snapshot, e.key...), e.val...)
		}
	}
	m.mu.Unlock()
	for o := 0; o < len(snapshot); o += w {
		fn(snapshot[o:o+m.keySize:o+m.keySize], snapshot[o+m.keySize:o+w:o+w])
	}
}

// Inc adds delta to the little-endian u64 at value[off] for key, creating
// a zeroed entry when the key is absent — the map_inc_elem aggregation
// fast path: one lock round trip instead of a lookup/update pair, and no
// allocation once the key has been seen, drains included. It reports
// whether the add was applied; a wrong key size, an offset that is not an
// 8-aligned lane inside the value, or a full map leave the map untouched.
func (m *HashMap) Inc(key []byte, off int64, delta uint64) bool {
	if len(key) != m.keySize || !laneOK(off, m.valueSize) {
		return false
	}
	m.mu.Lock()
	e := m.incRowLocked(key)
	if e != nil {
		addLane(e.val, off, delta)
	}
	m.mu.Unlock()
	return e != nil
}

// Inc2 is Inc on two lanes of one key under one lock round trip and one
// lookup: a flow row's packets and bytes. It applies both adds or
// neither, so a Drain never sees one lane of a row without the other.
func (m *HashMap) Inc2(key []byte, off0 int64, d0 uint64, off1 int64, d1 uint64) bool {
	if len(key) != m.keySize || !laneOK(off0, m.valueSize) || !laneOK(off1, m.valueSize) {
		return false
	}
	m.mu.Lock()
	e := m.incRowLocked(key)
	if e != nil {
		addLane(e.val, off0, d0)
		addLane(e.val, off1, d1)
	}
	m.mu.Unlock()
	return e != nil
}

// incRowLocked returns key's live entry for an increment, creating a
// zeroed one when the key is absent, or nil, counting the refusal, when
// maxEntries keys are live. The caller holds mu.
func (m *HashMap) incRowLocked(key []byte) *hashEntry {
	e := m.index[string(key)]
	if e != nil && e.live {
		return e
	}
	if e = m.insert(key, e); e == nil {
		m.refused++
	}
	return e
}

func addLane(val []byte, off int64, delta uint64) {
	binary.LittleEndian.PutUint64(val[off:], binary.LittleEndian.Uint64(val[off:])+delta)
}

// Refused counts the Inc and Inc2 calls refused because maxEntries keys
// were live: the counts a full map dropped, which no Drain carries. It
// never resets. A compiled flow row is one Inc2 per firing; the
// interpreter runs the same row as two Inc calls and counts two.
func (m *HashMap) Refused() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.refused
}

// Drain hands each live (key, value) pair to fn and parks the entry, all
// in one critical section, so a count accumulated concurrently lands
// either in this drain or in the map afterwards — never lost, never
// double-counted. fn runs under the map's lock and receives views of the
// map's own buffers: it must copy what it keeps and must not call back
// into the map. The agent's aggregate flush loop uses this as its
// snapshot-and-reset primitive.
func (m *HashMap) Drain(fn func(key, value []byte)) {
	m.mu.Lock()
	for _, e := range m.index {
		if e.live {
			fn(e.key, e.val)
			e.live = false
		}
	}
	m.live = 0
	m.mu.Unlock()
}

// laneOK reports whether [off, off+8) is an 8-aligned u64 lane inside a
// value of valueSize bytes — the verifier's map_inc_elem rule.
func laneOK(off int64, valueSize int) bool {
	return off >= 0 && off%8 == 0 && off+8 <= int64(valueSize)
}

// slab is the storage of both array map types: value slots back to back
// in one []uint64, each a whole number of words, so every slot starts
// 8-byte aligned and every aligned lane is one word that the aggregation
// helpers update with a single atomic add — no lock.
type slab struct {
	valueSize int
	stride    int // words per slot
	words     []uint64
	// bytes views words as the value memory programs see. Lanes are
	// little-endian u64s, so the view matches the map's byte layout only
	// on a little-endian host (TestSlabViewIsLittleEndian pins it).
	bytes []byte
}

func newSlab(valueSize, slots int) slab {
	stride := (valueSize + 7) / 8
	words := make([]uint64, slots*stride)
	return slab{
		valueSize: valueSize,
		stride:    stride,
		words:     words,
		bytes:     unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(words))), len(words)*8),
	}
}

// view returns slot i's value bytes, aliasing the slab.
func (s *slab) view(i int) []byte {
	o := i * s.stride * 8
	return s.bytes[o : o+s.valueSize : o+s.valueSize]
}

// lane returns the word of the lane at byte offset off of slot i, or nil
// when off is not a lane of the value.
func (s *slab) lane(i int, off int64) *uint64 {
	if !laneOK(off, s.valueSize) {
		return nil
	}
	return &s.words[i*s.stride+int(off/8)]
}

// add adds delta to the lane at byte offset off of slot i.
func (s *slab) add(i int, off int64, delta uint64) bool {
	w := s.lane(i, off)
	if w == nil {
		return false
	}
	atomic.AddUint64(w, delta)
	return true
}

// store writes value over slot i, one atomic store per word.
func (s *slab) store(i int, value []byte) {
	for w := 0; w < s.stride; w++ {
		var b [8]byte
		copy(b[:], value[w*8:])
		atomic.StoreUint64(&s.words[i*s.stride+w], binary.LittleEndian.Uint64(b[:]))
	}
}

// load copies slot i into dst, one atomic load per word.
func (s *slab) load(dst []byte, i int) {
	dst = dst[:s.valueSize]
	for w := 0; w < s.stride; w++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], atomic.LoadUint64(&s.words[i*s.stride+w]))
		copy(dst[w*8:], b[:])
	}
}

// drain zeroes slot i word by word with atomic swaps and returns its
// leading word, so every add lands in exactly one drain.
func (s *slab) drain(i int) uint64 {
	first := atomic.SwapUint64(&s.words[i*s.stride], 0)
	for w := 1; w < s.stride; w++ {
		atomic.StoreUint64(&s.words[i*s.stride+w], 0)
	}
	return first
}

// arrayIndex decodes an array map's 4-byte little-endian key.
func arrayIndex(key []byte, n int) (int, bool) {
	if len(key) != 4 {
		return 0, false
	}
	idx := int(binary.LittleEndian.Uint32(key))
	return idx, idx >= 0 && idx < n
}

// arrayKey encodes slot i as an array map key.
func arrayKey(i int) []byte {
	return binary.LittleEndian.AppendUint32(nil, uint32(i))
}

// ArrayMap is a fixed-size array of values indexed by a 4-byte
// little-endian key. All slots exist from creation, as in the kernel.
type ArrayMap struct {
	vals slab
	n    int
}

var _ Map = (*ArrayMap)(nil)

// NewArrayMap returns an array map with maxEntries preallocated slots.
func NewArrayMap(valueSize, maxEntries int) (*ArrayMap, error) {
	if valueSize <= 0 || maxEntries <= 0 {
		return nil, fmt.Errorf("ebpf: invalid array map geometry value=%d max=%d", valueSize, maxEntries)
	}
	return &ArrayMap{vals: newSlab(valueSize, maxEntries), n: maxEntries}, nil
}

// Type implements Map.
func (m *ArrayMap) Type() MapType { return MapTypeArray }

// KeySize implements Map. Array maps always use 4-byte keys.
func (m *ArrayMap) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *ArrayMap) ValueSize() int { return m.vals.valueSize }

// MaxEntries implements Map.
func (m *ArrayMap) MaxEntries() int { return m.n }

// Len implements Map. Every slot of an array map is always live.
func (m *ArrayMap) Len() int { return m.n }

func (m *ArrayMap) index(key []byte) (int, bool) { return arrayIndex(key, m.n) }

// Lookup implements Map.
func (m *ArrayMap) Lookup(key []byte) ([]byte, bool) {
	idx, ok := m.index(key)
	if !ok {
		return nil, false
	}
	return m.vals.view(idx), true
}

// Update implements Map.
func (m *ArrayMap) Update(key, value []byte, flags uint64) error {
	if len(value) != m.vals.valueSize {
		return fmt.Errorf("%w: got %d want %d", ErrValueSize, len(value), m.vals.valueSize)
	}
	if flags == UpdateNoExist {
		// Array entries always exist.
		return ErrEntryExist
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	idx, ok := m.index(key)
	if !ok {
		return ErrOutOfRange
	}
	m.vals.store(idx, value)
	return nil
}

// Delete implements Map. Array map entries cannot be deleted.
func (m *ArrayMap) Delete(key []byte) error {
	if _, ok := m.index(key); !ok {
		return ErrOutOfRange
	}
	return errors.New("ebpf: array map entries cannot be deleted")
}

// IncSlot atomically adds delta to the little-endian u64 at value[off] of
// slot idx: the map_inc_elem fast path for counter and histogram arrays,
// skipping the key decode that Lookup/Update pay. off must be an 8-aligned
// lane inside the value.
func (m *ArrayMap) IncSlot(idx int, off int64, delta uint64) bool {
	if idx < 0 || idx >= m.n {
		return false
	}
	return m.vals.add(idx, off, delta)
}

// DrainU64 appends the leading u64 of every slot to dst and zeroes the
// slot with atomic swaps, so concurrent increments land either in this
// drain or the next — the agent's snapshot-and-reset for counter and
// histogram arrays. Maps with values narrower than 8 bytes are returned
// unchanged.
func (m *ArrayMap) DrainU64(dst []uint64) []uint64 {
	if m.vals.valueSize < 8 {
		return dst
	}
	dst = slices.Grow(dst, m.n)
	for i := 0; i < m.n; i++ {
		dst = append(dst, m.vals.drain(i))
	}
	return dst
}

// ForEach implements Map.
func (m *ArrayMap) ForEach(fn func(key, value []byte)) {
	vs := m.vals.valueSize
	snapshot := make([]byte, m.n*vs)
	for i := 0; i < m.n; i++ {
		m.vals.load(snapshot[i*vs:], i)
	}
	for i := 0; i < m.n; i++ {
		fn(arrayKey(i), snapshot[i*vs:(i+1)*vs:(i+1)*vs])
	}
}

// PerCPUArray stores one value slot per (index, cpu) pair. Programs access
// the slot of the CPU they execute on; userspace reads all CPUs' slots.
// Slots live in one slab (entry idx, CPU c at slot idx*numCPU+c) and
// every lane update is one atomic add, so probe invocations on different
// simulated CPUs never contend and no run can see another CPU's slot.
type PerCPUArray struct {
	vals   slab
	n      int
	numCPU int
}

var _ Map = (*PerCPUArray)(nil)

// NewPerCPUArray returns a per-CPU array with maxEntries slots replicated
// across numCPU CPUs.
func NewPerCPUArray(valueSize, maxEntries, numCPU int) (*PerCPUArray, error) {
	if valueSize <= 0 || maxEntries <= 0 || numCPU <= 0 {
		return nil, fmt.Errorf("ebpf: invalid percpu array geometry value=%d max=%d cpus=%d",
			valueSize, maxEntries, numCPU)
	}
	return &PerCPUArray{vals: newSlab(valueSize, maxEntries*numCPU), n: maxEntries, numCPU: numCPU}, nil
}

// Type implements Map.
func (m *PerCPUArray) Type() MapType { return MapTypePerCPUArray }

// KeySize implements Map.
func (m *PerCPUArray) KeySize() int { return 4 }

// ValueSize implements Map.
func (m *PerCPUArray) ValueSize() int { return m.vals.valueSize }

// MaxEntries implements Map.
func (m *PerCPUArray) MaxEntries() int { return m.n }

// Len implements Map.
func (m *PerCPUArray) Len() int { return m.n }

// NumCPU returns the number of per-entry CPU slots.
func (m *PerCPUArray) NumCPU() int { return m.numCPU }

func (m *PerCPUArray) index(key []byte) (int, bool) { return arrayIndex(key, m.n) }

// slot returns the slab slot of entry idx on cpu. Out-of-range CPUs wrap,
// matching the per-CPU ring-buffer convention.
func (m *PerCPUArray) slot(idx, cpu int) int {
	if cpu < 0 || cpu >= m.numCPU {
		cpu %= m.numCPU
		if cpu < 0 {
			cpu += m.numCPU
		}
	}
	return idx*m.numCPU + cpu
}

// Lookup implements Map, returning CPU 0's slot.
func (m *PerCPUArray) Lookup(key []byte) ([]byte, bool) { return m.lookupOn(key, 0) }

// lookupOn is map_lookup_elem from a program running on cpu: that CPU's
// slot, aliasing the map.
func (m *PerCPUArray) lookupOn(key []byte, cpu int) ([]byte, bool) {
	idx, ok := m.index(key)
	if !ok {
		return nil, false
	}
	return m.vals.view(m.slot(idx, cpu)), true
}

// LookupCPU returns a copy of the slot for a specific CPU; used by
// userspace readers.
func (m *PerCPUArray) LookupCPU(key []byte, cpu int) ([]byte, bool) {
	idx, ok := m.index(key)
	if !ok || cpu < 0 || cpu >= m.numCPU {
		return nil, false
	}
	out := make([]byte, m.vals.valueSize)
	m.vals.load(out, m.slot(idx, cpu))
	return out, true
}

// Update implements Map, writing CPU 0's slot.
func (m *PerCPUArray) Update(key, value []byte, flags uint64) error {
	return m.updateOn(key, value, flags, 0)
}

// updateOn is map_update_elem from a program running on cpu.
func (m *PerCPUArray) updateOn(key, value []byte, flags uint64, cpu int) error {
	if len(value) != m.vals.valueSize {
		return fmt.Errorf("%w: got %d want %d", ErrValueSize, len(value), m.vals.valueSize)
	}
	if flags == UpdateNoExist {
		return ErrEntryExist
	}
	if flags > UpdateExist {
		return ErrBadFlags
	}
	idx, ok := m.index(key)
	if !ok {
		return ErrOutOfRange
	}
	m.vals.store(m.slot(idx, cpu), value)
	return nil
}

// IncSlotCPU atomically adds delta to the little-endian u64 at value[off]
// of slot idx on the given CPU — the map_inc_elem fast path for per-CPU
// maps. off must be an 8-aligned lane inside the value; out-of-range CPUs
// wrap.
func (m *PerCPUArray) IncSlotCPU(idx, cpu int, off int64, delta uint64) bool {
	if idx < 0 || idx >= m.n {
		return false
	}
	return m.vals.add(m.slot(idx, cpu), off, delta)
}

// DrainU64CPUs appends the leading u64 of slot idx for every CPU to dst,
// zeroing each with atomic swaps — the agent's snapshot-and-reset for
// per-CPU counters. Values narrower than 8 bytes or an out-of-range idx
// return dst unchanged.
func (m *PerCPUArray) DrainU64CPUs(idx int, dst []uint64) []uint64 {
	if idx < 0 || idx >= m.n || m.vals.valueSize < 8 {
		return dst
	}
	dst = slices.Grow(dst, m.numCPU)
	for c := 0; c < m.numCPU; c++ {
		dst = append(dst, m.vals.drain(m.slot(idx, c)))
	}
	return dst
}

// Delete implements Map.
func (m *PerCPUArray) Delete(key []byte) error {
	if _, ok := m.index(key); !ok {
		return ErrOutOfRange
	}
	return errors.New("ebpf: percpu array entries cannot be deleted")
}

// ForEach implements Map: each entry's value is every CPU's slot, in CPU
// order.
func (m *PerCPUArray) ForEach(fn func(key, value []byte)) {
	vs := m.vals.valueSize
	w := m.numCPU * vs
	snapshot := make([]byte, m.n*w)
	for i := 0; i < m.n*m.numCPU; i++ {
		m.vals.load(snapshot[i*vs:], i)
	}
	for i := 0; i < m.n; i++ {
		fn(arrayKey(i), snapshot[i*w:(i+1)*w:(i+1)*w])
	}
}
