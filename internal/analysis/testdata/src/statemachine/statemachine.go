// Package statemachine pins simdet's scope over the replicated state
// machine: every replica applies the same op to the same state and must
// answer the same bytes, so a result chosen in map order is a finding,
// while an order-insensitive pick (the smallest key) is not.
package statemachine

import "maps"

type store struct {
	data  map[string][]byte
	locks map[string]int
}

// FirstHolder answers with whichever lock iteration reaches first.
func (s *store) FirstHolder() int {
	for _, holder := range s.locks { // want `map iteration with order-sensitive effects`
		return holder
	}
	return -1
}

// SmallestHolder is the conforming shape: the holder of the smallest
// locked key, whatever the visit order.
func (s *store) SmallestHolder() int {
	var minKey string
	by, found := -1, false
	for key, holder := range s.locks {
		if !found || key < minKey {
			minKey, by, found = key, holder, true
		}
	}
	return by
}

// Merge copies staged pairs in through a field write inside the loop,
// which simdet cannot prove order-insensitive.
func (s *store) Merge(staged map[string][]byte) {
	for k, v := range staged { // want `map iteration with order-sensitive effects`
		s.data[k] = v
	}
}

// MergeCopy is the same merge as maps.Copy.
func (s *store) MergeCopy(staged map[string][]byte) {
	maps.Copy(s.data, staged)
}
