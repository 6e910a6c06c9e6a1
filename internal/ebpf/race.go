//go:build race

package ebpf

// raceEnabled reports a -race build, in which a Runner checks that its
// runs never overlap.
const raceEnabled = true
