// Package sim provides the discrete-event simulation core used by every
// simulated substrate in this repository: a single-threaded event engine
// with cancellable timers, per-node monotonic clocks with configurable skew
// and drift, and a deterministic random source.
//
// All simulated time is expressed in integer nanoseconds, mirroring the
// paper's use of CLOCK_MONOTONIC via bpf_ktime_get_ns().
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
)

// Common time unit constants, in simulated nanoseconds.
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000 * Nanosecond
	Millisecond int64 = 1000 * Microsecond
	Second      int64 = 1000 * Millisecond
)

// ErrPastEvent is returned when an event is scheduled before the current
// simulated time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Engine is a single-threaded discrete-event simulator. It is not safe for
// concurrent use; all simulated components must interact with it from the
// goroutine that calls Run.
type Engine struct {
	now     int64
	seq     uint64
	queue   eventHeap
	rng     *rand.Rand
	stopped bool
}

// NewEngine returns an engine whose random source is seeded with seed,
// making every simulation reproducible for a given seed.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng: rand.New(rand.NewSource(seed)),
	}
}

// Now returns the current simulated time in nanoseconds since engine start.
func (e *Engine) Now() int64 { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Timer is a handle to a scheduled event. The zero value is invalid; timers
// are obtained from Schedule or At.
type Timer struct {
	ev *event
}

// Cancel prevents the timer's function from running. Cancelling an already
// fired or already cancelled timer is a no-op. It reports whether the event
// was still pending.
func (t *Timer) Cancel() bool {
	if t == nil || t.ev == nil || t.ev.cancelled || t.ev.fired {
		return false
	}
	t.ev.cancelled = true
	return true
}

// Pending reports whether the timer has neither fired nor been cancelled.
func (t *Timer) Pending() bool {
	return t != nil && t.ev != nil && !t.ev.cancelled && !t.ev.fired
}

// Schedule runs fn after delay nanoseconds of simulated time. A negative
// delay is treated as zero. The returned timer may be used to cancel the
// event before it fires.
func (e *Engine) Schedule(delay int64, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return e.at(e.now+delay, fn)
}

// At runs fn at absolute simulated time t. It returns ErrPastEvent if t is
// before the current time.
func (e *Engine) At(t int64, fn func()) (*Timer, error) {
	if t < e.now {
		return nil, fmt.Errorf("%w: at=%d now=%d", ErrPastEvent, t, e.now)
	}
	return e.at(t, fn), nil
}

func (e *Engine) at(t int64, fn func()) *Timer {
	ev := &event{at: t, seq: e.seq, fn: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return &Timer{ev: ev}
}

// Stop makes the current Run call return after the in-flight event
// completes. Subsequent Run calls resume processing.
func (e *Engine) Stop() { e.stopped = true }

// Run processes events in timestamp order until the queue empties, the
// simulated clock reaches until, or Stop is called. Events scheduled exactly
// at until are executed. It returns the number of events processed by this
// call.
func (e *Engine) Run(until int64) uint64 {
	e.stopped = false
	var n uint64
	for e.queue.Len() > 0 && !e.stopped {
		ev := e.queue[0]
		if ev.at > until {
			break
		}
		heap.Pop(&e.queue)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fired = true
		ev.fn()
		n++
	}
	if !e.stopped && e.now < until {
		// Advance the clock to the horizon so that callers scheduling
		// after Run observe the full elapsed time; events beyond the
		// horizon stay queued.
		e.now = until
	}
	return n
}

// RunUntilIdle processes events until no events remain or Stop is called.
// It returns the number of events processed.
func (e *Engine) RunUntilIdle() uint64 {
	e.stopped = false
	var n uint64
	for e.queue.Len() > 0 && !e.stopped {
		ev := heap.Pop(&e.queue).(*event)
		if ev.cancelled {
			continue
		}
		e.now = ev.at
		ev.fired = true
		ev.fn()
		n++
	}
	return n
}

type event struct {
	at        int64
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

// eventHeap orders events by time, breaking ties by insertion order so that
// same-timestamp events run FIFO (deterministic replay).
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }

func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *eventHeap) Push(x any) { *h = append(*h, x.(*event)) }

func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
