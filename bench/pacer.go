package main

import "time"

// pacerYardstickRoom is the idle time a paced round must have left for
// the harness to fit one more yardstick round before it.
const pacerYardstickRoom = 400 * time.Microsecond

// dueNs is when round r (counted from 0) of an open loop is due, in
// nanoseconds after the loop's start: the time by which a source at
// recPerS records per second has produced the r rounds before it. It is
// computed from the round number, not accumulated, so it never drifts.
func dueNs(r, recsPerRound, recPerS int) int64 {
	return int64(r) * int64(recsPerRound) * 1e9 / int64(recPerS)
}

// waitUntil spins until the clock reads due, and returns the time spent.
// It does not sleep: a sleep overshoots by anything from tens of
// microseconds to a millisecond, which would count into every round's
// lag, and the caller has already spent the bulk of its idle time on the
// yardstick. A due time already past returns at once: the loop is open,
// so a late round fires immediately and its lateness counts into its lag.
func waitUntil(due time.Time) (spun time.Duration) {
	t0 := time.Now()
	if !t0.Before(due) {
		return 0
	}
	for time.Now().Before(due) {
	}
	return time.Since(t0)
}
