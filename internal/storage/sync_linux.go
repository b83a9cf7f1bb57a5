package storage

import (
	"errors"
	"os"
	"syscall"
)

// preallocate reserves a fresh segment's size up front, so a write
// inside it changes no file size and the fdatasync behind it has no
// metadata to journal. A filesystem without fallocate leaves the file
// to grow with its writes.
func preallocate(f *os.File, size int64) error {
	err := syscall.Fallocate(int(f.Fd()), 0, 0, size)
	if errors.Is(err, syscall.EOPNOTSUPP) {
		return nil
	}
	return err
}

// fdatasync flushes f's data and only the metadata needed to read it
// back.
func fdatasync(f *os.File) error { return syscall.Fdatasync(int(f.Fd())) }
