package sim

// Clock is a per-node monotonic clock derived from the engine's global
// simulated time. Each node in a distributed simulation owns a Clock with
// its own offset (boot-time skew) and drift (frequency error), so that
// cross-machine timestamp comparison requires genuine clock synchronization,
// exactly as in the paper's Section III-B.
//
// A Clock models CLOCK_MONOTONIC: it cannot be set by users and only moves
// forward.
type Clock struct {
	eng *Engine
	// offset is the clock reading at engine time zero, in nanoseconds.
	offset int64
	// driftPPB is the frequency error in parts per billion: a clock with
	// driftPPB = 1000 gains 1 microsecond per simulated second.
	driftPPB int64
}

// NewClock returns a clock with the given boot offset (nanoseconds) and
// drift (parts per billion) relative to the engine's true time.
func NewClock(eng *Engine, offsetNs, driftPPB int64) *Clock {
	return &Clock{eng: eng, offset: offsetNs, driftPPB: driftPPB}
}

// NowNs returns the clock's current reading in nanoseconds. This is what
// the simulated bpf_ktime_get_ns() helper reads.
func (c *Clock) NowNs() int64 {
	t := c.eng.Now()
	return c.offset + t + t/1_000_000_000*c.driftPPB + t%1_000_000_000*c.driftPPB/1_000_000_000
}

// OffsetNs returns the configured boot offset. Exposed so tests can compare
// Cristian-estimated skew with ground truth.
func (c *Clock) OffsetNs() int64 { return c.offset }
