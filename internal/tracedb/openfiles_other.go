//go:build !unix

package tracedb

// openFileLimit reports no limit where the platform has no RLIMIT_NOFILE.
func openFileLimit() uint64 { return 0 }
