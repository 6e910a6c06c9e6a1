//go:build unix

package tracedb

import "syscall"

// openFileLimit returns the process's soft limit on open files, or 0 when
// it cannot be read.
func openFileLimit() uint64 {
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) != nil {
		return 0
	}
	return lim.Cur
}
