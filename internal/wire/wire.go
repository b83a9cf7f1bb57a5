// Package wire is the big-endian codec of the state machine's bytes:
// KV, transaction and placement operations and their results, the
// store and client-table snapshots, placement maps and commands, and
// the composite checkpoint snapshot. Those bytes are untrusted input —
// operations originate at any client, and a snapshot that arrives by
// state transfer may come from a Byzantine peer — so every decoder of
// them reads through one bounds-checked Reader.
//
// A Reader's error is sticky: the first read that runs past the end (or
// the first Fail) records an error, every later read returns zero
// values, and Err or Done reports that first error. A decoder therefore
// reads its fields straight through and checks once. Counts come from
// Count, which refuses any count the remaining bytes cannot hold, so no
// decoder sizes an allocation from a hostile count.
//
// The little-endian frame codec of internal/message and the WAL record
// codec of internal/storage are separate formats and do not use it.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated is the error of a read past the end of the input.
var ErrTruncated = errors.New("wire: truncated input")

// Reader decodes big-endian fields from a byte slice. The zero Reader
// reads an empty input.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a Reader over b. Slices it returns alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// need reports whether n more bytes can be read, recording
// ErrTruncated when they cannot.
func (r *Reader) need(n int) bool {
	if r.err != nil {
		return false
	}
	if n < 0 || n > len(r.b)-r.off {
		r.err = ErrTruncated
		return false
	}
	return true
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if !r.need(1) {
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.need(4) {
		return 0
	}
	v := binary.BigEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.need(8) {
		return 0
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

// Fixed reads the next n bytes.
func (r *Reader) Fixed(n int) []byte {
	if !r.need(n) {
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Bytes reads a uint32 length, then that many bytes.
func (r *Reader) Bytes() []byte { return r.Fixed(int(r.U32())) }

// Count reads a uint32 entry count and fails, returning 0, unless the
// bytes left after it can hold that many entries of at least minEntry
// bytes each. Callers may size allocations by the result.
func (r *Reader) Count(minEntry int) int {
	n := int(r.U32())
	if r.err != nil {
		return 0
	}
	if left := len(r.b) - r.off; n*minEntry > left {
		r.Fail(fmt.Errorf("wire: count %d exceeds the %d bytes left", n, left))
		return 0
	}
	return n
}

// Len returns the number of unread bytes (0 after an error).
func (r *Reader) Len() int {
	if r.err != nil {
		return 0
	}
	return len(r.b) - r.off
}

// Rest reads every unread byte.
func (r *Reader) Rest() []byte { return r.Fixed(r.Len()) }

// Fail records err unless an error is already recorded.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Err returns the first recorded error.
func (r *Reader) Err() error { return r.err }

// Done returns the first recorded error, or an error when unread bytes
// remain: the input must be exactly consumed.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes", len(r.b)-r.off)
	}
	return r.err
}

// AppendU32 appends v big-endian.
func AppendU32(b []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(b, v) }

// AppendU64 appends v big-endian.
func AppendU64(b []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(b, v) }

// AppendBytes appends v's uint32 length, then v: what Bytes reads.
func AppendBytes[T ~string | ~[]byte](b []byte, v T) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(v)))
	return append(b, v...)
}
