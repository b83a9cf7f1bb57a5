package wire

import (
	"bytes"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	b := AppendU32([]byte{7}, 0x01020304)
	b = AppendU64(b, 0x0102030405060708)
	b = AppendBytes(b, "key")
	b = AppendBytes(b, []byte(nil))
	b = append(b, 0xaa, 0xbb)

	r := NewReader(b)
	if r.U8() != 7 || r.U32() != 0x01020304 || r.U64() != 0x0102030405060708 {
		t.Fatal("fixed-width fields did not round-trip")
	}
	if got := r.Bytes(); string(got) != "key" {
		t.Fatalf("Bytes = %q, want key", got)
	}
	if got := r.Bytes(); len(got) != 0 {
		t.Fatalf("empty Bytes = %q", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d, want 2", r.Len())
	}
	if r.Done() == nil {
		t.Fatal("Done accepted two trailing bytes")
	}
	if got := r.Fixed(2); !bytes.Equal(got, []byte{0xaa, 0xbb}) || r.Done() != nil {
		t.Fatalf("Fixed = %x, Done = %v", got, r.Done())
	}
}

// TestReaderSticky: the first failure stays recorded, and every later
// read returns zero values without touching the input.
func TestReaderSticky(t *testing.T) {
	r := NewReader([]byte{0, 0, 0, 9, 'a', 'b', 1, 2, 3, 4})
	if got := r.Bytes(); got != nil || r.Err() != ErrTruncated {
		t.Fatalf("Bytes past the end = %q, err %v", got, r.Err())
	}
	if r.U8() != 0 || r.U32() != 0 || r.U64() != 0 || r.Fixed(1) != nil || r.Rest() != nil || r.Len() != 0 {
		t.Fatal("a read after a failure returned data")
	}
	r.Fail(bytes.ErrTooLarge)
	if r.Err() != ErrTruncated || r.Done() != ErrTruncated {
		t.Fatalf("first error replaced: %v / %v", r.Err(), r.Done())
	}
}

// TestReaderCount: a count the remaining bytes cannot hold fails before
// anything is sized from it.
func TestReaderCount(t *testing.T) {
	body := make([]byte, 16)
	for _, c := range []struct {
		n, minEntry, want int
		ok                bool
	}{
		{2, 8, 2, true},
		{3, 8, 0, false},
		{16, 1, 16, true},
		{0xffffffff, 20, 0, false},
	} {
		r := NewReader(append(AppendU32(nil, uint32(c.n)), body...))
		if got := r.Count(c.minEntry); got != c.want || (r.Err() == nil) != c.ok {
			t.Errorf("Count(%d) of %d = %d, err %v; want %d, ok %v", c.minEntry, c.n, got, r.Err(), c.want, c.ok)
		}
	}
	if got := NewReader(nil).Count(1); got != 0 {
		t.Errorf("Count on empty input = %d", got)
	}
}
