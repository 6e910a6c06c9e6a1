//go:build !linux

package tracedb

import "os"

// growFDTable does nothing where descriptor-table growth costs no stall.
func growFDTable(*os.File, int64) {}
