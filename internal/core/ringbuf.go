package core

import (
	"errors"
	"fmt"
	"sync"
)

// Ring buffer size limits, per ring. The paper (Section III-C, footnote
// 1): "the buffer size range is from 32 bytes to 128k-16 bytes" due to
// kmalloc limits in its kernel module.
const (
	MinBufferBytes = 32
	MaxBufferBytes = 128*1024 - 16
)

// ErrBufferSize rejects out-of-range buffer sizes.
var ErrBufferSize = errors.New("core: buffer size out of range")

// RingBuffer is one CPU's kernel memory buffer staging raw trace data
// between in-kernel trace programs and the userspace agent (mmap'd to
// /proc in the paper's implementation, avoiding per-event kernel/user
// copies). Writes beyond capacity are dropped and counted — losing trace
// data under overload is preferred over slowing the kernel.
//
// The emit hot path is Reserve/Commit: Reserve hands the producer a slice
// directly into the ring so the record serializes in place with no
// intermediate buffer, exactly like bpf_ringbuf_reserve/submit. Reserve
// holds the ring lock until the matching Commit or Abort; as in the
// kernel (where the producer runs with preemption disabled), the
// reservation window must be short and must not nest. Within one ring,
// records drain in exactly the order they were committed.
type RingBuffer struct {
	mu       sync.Mutex
	buf      []byte
	used     int
	reserved int // outstanding reservation length; lock held while > 0
	drops    uint64
	writes   uint64

	// Head-drop sampling mode, entered under collector overload: when
	// sampleEvery > 1 only every sampleEvery-th write is admitted; the
	// rest are dropped at the head (before consuming ring space) and
	// counted in both drops and sampleDrops, so fires == writes + drops
	// holds through degradation and sampleDrops isolates the
	// degradation-induced share.
	sampleEvery uint64
	sampleTick  uint64
	sampleDrops uint64
}

// NewRingBuffer allocates a buffer of the given byte capacity.
func NewRingBuffer(capacity int) (*RingBuffer, error) {
	if capacity < MinBufferBytes || capacity > MaxBufferBytes {
		return nil, fmt.Errorf("%w: %d not in [%d, %d]", ErrBufferSize, capacity, MinBufferBytes, MaxBufferBytes)
	}
	return &RingBuffer{buf: make([]byte, capacity)}, nil
}

// Reserve claims n bytes of ring space and returns a slice aliasing it
// for the caller to serialize into. It returns nil — counting a drop —
// when the ring is full. On success the ring lock is held until Commit
// (publish) or Abort (discard); the caller must call exactly one of them
// promptly and must not reserve again in between.
func (r *RingBuffer) Reserve(n int) []byte {
	if n <= 0 {
		return nil
	}
	r.mu.Lock()
	if r.sampleEvery > 1 {
		r.sampleTick++
		if r.sampleTick%r.sampleEvery != 0 {
			r.drops++
			r.sampleDrops++
			r.mu.Unlock()
			return nil
		}
	}
	if r.used+n > len(r.buf) {
		r.drops++
		r.mu.Unlock()
		return nil
	}
	r.reserved = n
	return r.buf[r.used : r.used+n : r.used+n]
}

// Commit publishes the outstanding reservation: the bytes become part of
// the drainable region and the ring lock is released.
func (r *RingBuffer) Commit() {
	if r.reserved <= 0 {
		panic("core: RingBuffer.Commit without Reserve")
	}
	r.used += r.reserved
	r.reserved = 0
	r.writes++
	r.mu.Unlock()
}

// Abort discards the outstanding reservation and releases the ring lock.
// The reserved bytes never become visible to Drain.
func (r *RingBuffer) Abort() {
	if r.reserved <= 0 {
		panic("core: RingBuffer.Abort without Reserve")
	}
	r.reserved = 0
	r.mu.Unlock()
}

// Write appends data, returning false (and counting a drop) when it does
// not fit. It is Reserve+copy+Commit for producers that already hold the
// serialized bytes.
func (r *RingBuffer) Write(data []byte) bool {
	if len(data) == 0 {
		return true
	}
	dst := r.Reserve(len(data))
	if dst == nil {
		return false
	}
	copy(dst, data)
	r.Commit()
	return true
}

// DrainInto appends all committed bytes to dst, empties the ring, and
// returns the extended slice. It allocates only when dst lacks capacity,
// so a caller recycling its buffer drains allocation-free.
func (r *RingBuffer) DrainInto(dst []byte) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.used == 0 {
		return dst
	}
	dst = append(dst, r.buf[:r.used]...)
	r.used = 0
	return dst
}

// Drain removes and returns all buffered bytes (nil when empty). The
// agent's flush loop uses DrainInto, into the array its batch keeps.
func (r *RingBuffer) Drain() []byte {
	out := r.DrainInto(nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Used returns the occupied bytes.
func (r *RingBuffer) Used() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.used
}

// Cap returns the buffer capacity.
func (r *RingBuffer) Cap() int { return len(r.buf) }

// Drops returns how many writes were rejected for lack of space.
func (r *RingBuffer) Drops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.drops
}

// Writes returns the number of successful writes.
func (r *RingBuffer) Writes() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.writes
}

// SetSampleEvery switches head-drop sampling: n > 1 admits only every
// n-th write; n <= 1 restores full capture. The sampling phase resets
// so behaviour after a mode change is deterministic.
func (r *RingBuffer) SetSampleEvery(n uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 1 {
		n = 0
	}
	r.sampleEvery = n
	r.sampleTick = 0
}

// SampleDrops returns how many writes sampling mode rejected. They are
// included in Drops as well; this counter isolates the degraded-mode
// share.
func (r *RingBuffer) SampleDrops() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sampleDrops
}

// PerCPURing is a machine's trace buffer: one RingBuffer per simulated
// CPU, mirroring the kernel's per-CPU perf buffers. Producers route by
// executing CPU and so never contend with producers on other CPUs; the
// drain side visits rings in CPU order. Record order is preserved within
// each CPU; ordering across CPUs is not defined (consumers join on trace
// ID and timestamps, never on arrival order).
type PerCPURing struct {
	rings []*RingBuffer
}

// NewPerCPURing allocates ncpu rings of perRingBytes each. ncpu is
// clamped to at least 1; perRingBytes must be in the paper's per-ring
// range [MinBufferBytes, MaxBufferBytes].
func NewPerCPURing(ncpu, perRingBytes int) (*PerCPURing, error) {
	if ncpu < 1 {
		ncpu = 1
	}
	rings := make([]*RingBuffer, ncpu)
	for i := range rings {
		rb, err := NewRingBuffer(perRingBytes)
		if err != nil {
			return nil, err
		}
		rings[i] = rb
	}
	return &PerCPURing{rings: rings}, nil
}

// NumRings returns the ring count (the machine's CPU count).
func (p *PerCPURing) NumRings() int { return len(p.rings) }

// Ring returns the ring for a CPU. Out-of-range CPUs wrap, so records
// from a mis-sized topology are never silently lost.
func (p *PerCPURing) Ring(cpu uint32) *RingBuffer {
	n := uint32(len(p.rings))
	if cpu < n {
		return p.rings[cpu]
	}
	return p.rings[cpu%n]
}

// Emit writes data into the executing CPU's ring: the perf_event_output
// sink. It is Reserve+copy+Commit on the routed ring.
func (p *PerCPURing) Emit(cpu uint32, data []byte) bool {
	return p.Ring(cpu).Write(data)
}

// DrainInto appends every ring's committed bytes to dst in CPU order and
// empties them, returning the extended slice. Within-CPU record order is
// preserved; a caller recycling dst drains allocation-free.
func (p *PerCPURing) DrainInto(dst []byte) []byte {
	for _, r := range p.rings {
		dst = r.DrainInto(dst)
	}
	return dst
}

// Drain removes and returns all buffered bytes across rings (nil when
// empty).
func (p *PerCPURing) Drain() []byte {
	out := p.DrainInto(nil)
	if len(out) == 0 {
		return nil
	}
	return out
}

// Used returns occupied bytes summed over rings.
func (p *PerCPURing) Used() int {
	n := 0
	for _, r := range p.rings {
		n += r.Used()
	}
	return n
}

// Cap returns total capacity summed over rings.
func (p *PerCPURing) Cap() int {
	n := 0
	for _, r := range p.rings {
		n += r.Cap()
	}
	return n
}

// RingCap returns the capacity of one ring.
func (p *PerCPURing) RingCap() int { return p.rings[0].Cap() }

// Drops returns rejected writes summed over rings.
func (p *PerCPURing) Drops() uint64 {
	var n uint64
	for _, r := range p.rings {
		n += r.Drops()
	}
	return n
}

// Writes returns successful writes summed over rings.
func (p *PerCPURing) Writes() uint64 {
	var n uint64
	for _, r := range p.rings {
		n += r.Writes()
	}
	return n
}

// SetSampleEvery switches every ring into (or out of) head-drop
// sampling mode; see RingBuffer.SetSampleEvery.
func (p *PerCPURing) SetSampleEvery(n uint64) {
	for _, r := range p.rings {
		r.SetSampleEvery(n)
	}
}

// SampleDrops returns sampling-mode drops summed over rings.
func (p *PerCPURing) SampleDrops() uint64 {
	var n uint64
	for _, r := range p.rings {
		n += r.SampleDrops()
	}
	return n
}

// AppendPerRingDrops appends each ring's cumulative drop counter to dst
// in CPU order and returns the extended slice. The agent uses it to turn
// per-ring counters into exact per-batch drop deltas without allocating.
func (p *PerCPURing) AppendPerRingDrops(dst []uint64) []uint64 {
	for _, r := range p.rings {
		dst = append(dst, r.Drops())
	}
	return dst
}
