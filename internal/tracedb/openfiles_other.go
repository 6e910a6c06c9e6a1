//go:build !unix

package tracedb

import "os"

// openFileLimit reports no limit where the platform has no RLIMIT_NOFILE.
func openFileLimit() uint64 { return 0 }

// unlinked reports false: where files have no link count to read, a pack
// removed behind the store's back is not noticed.
func unlinked(*os.File) (bool, error) { return false, nil }
