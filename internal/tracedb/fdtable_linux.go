//go:build linux

package tracedb

import (
	"os"
	"sync"
	"syscall"
)

var fdTableGrown sync.Once

// growFDTable grows the process's descriptor table, once, to hold n
// descriptors past f's. Linux grows the table by doubling, and in a
// multi-threaded process each doubling waits for an RCU grace period, a
// few milliseconds; a store filling its handle budget one seal at a time
// would pay several of those inside seals, under a table's lock. Asking
// for one descriptor numbered n above f's, and closing it at once, pays
// one. A failure (n past the open-file limit) changes nothing.
func growFDTable(f *os.File, n int64) {
	fdTableGrown.Do(func() {
		rc, err := f.SyscallConn()
		if err != nil {
			return
		}
		rc.Control(func(fd uintptr) {
			nfd, _, errno := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_DUPFD_CLOEXEC, fd+uintptr(n))
			if errno == 0 {
				syscall.Close(int(nfd))
			}
		})
	})
}
