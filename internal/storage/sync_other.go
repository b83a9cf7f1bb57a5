//go:build !linux

package storage

import "os"

// preallocate is a no-op off linux: the segment grows with its writes,
// and a zero tail never appears.
func preallocate(*os.File, int64) error { return nil }

// fdatasync falls back to a full fsync where fdatasync is unavailable.
func fdatasync(f *os.File) error { return f.Sync() }
