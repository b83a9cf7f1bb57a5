package statemachine

import (
	"fmt"
	"testing"
)

// allocSink keeps each path's result alive, so AllocsPerRun counts the
// bytes it returns.
var allocSink []byte

// TestCodecAllocs holds the state machine's hot codec paths at or below
// the allocations they made before the shared codec (measured on that
// tree with this fixture): a 1 KiB Put, a Get served by Query, the
// snapshot of 1,000 keys, and the Restore of that snapshot.
func TestCodecAllocs(t *testing.T) {
	kv := NewKVStore()
	for i := 0; i < 1000; i++ {
		kv.Apply(EncodePut(fmt.Sprintf("key-%04d", i), make([]byte, 16)))
	}
	put := EncodePut("key-0001", make([]byte, 1024))
	get := EncodeGet("key-0002")
	snap := kv.Snapshot()
	into := NewKVStore()
	for _, c := range []struct {
		name string
		max  float64
		run  func()
	}{
		{"Apply(Put 1KiB)", 3, func() { allocSink = kv.Apply(put) }},
		{"Query(Get)", 3, func() { allocSink, _ = kv.Query(get) }},
		{"Snapshot(1000 keys)", 20, func() { allocSink = kv.Snapshot() }},
		{"Restore(1000 keys)", 2010, func() {
			if err := into.Restore(snap); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		n := testing.AllocsPerRun(20, c.run)
		t.Logf("%s: %v allocs", c.name, n)
		if n > c.max {
			t.Errorf("%s: %v allocs, want at most %v", c.name, n, c.max)
		}
	}
}
