//go:build unix

package tracedb

import (
	"os"
	"syscall"
)

// openFileLimit returns the process's soft limit on open files, or 0 when
// it cannot be read.
func openFileLimit() uint64 {
	var lim syscall.Rlimit
	if syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim) != nil {
		return 0
	}
	return lim.Cur
}

// unlinked reports whether f's file has no name left: it, or its
// directory, was removed while f was open. Its bytes are then readable
// only through f, and lost once f is closed.
func unlinked(f *os.File) (bool, error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return false, err
	}
	return st.Nlink == 0, nil
}
