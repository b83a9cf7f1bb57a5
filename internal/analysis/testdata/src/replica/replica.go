// Package replica pins simdet's scope over the shared runtime: the
// vote table and parked-checkpoint map live there, so the shapes that
// once leaked map order out of the engines must be findings here too,
// and the event-loop goroutine must carry a documented allow.
package replica

import "sort"

type vote struct{ from int }

type table struct{ votes map[int]map[int]*vote }

// Unordered hands out votes in map order: a NEW-VIEW assembled from it
// would differ run to run.
func (t *table) Unordered(view int) []*vote {
	var out []*vote
	for _, v := range t.votes[view] { // want `map iteration order escapes through "out"`
		out = append(out, v)
	}
	return out
}

// Ordered is the conforming collect-then-sort shape.
func (t *table) Ordered(view int) []*vote {
	var out []*vote
	for _, v := range t.votes[view] {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].from < out[j].from })
	return out
}

// Start forks the event loop; outside the sim nothing else may.
func Start(loop func()) {
	//lint:allow simdet fixture: the one goroutine the sim never starts
	go loop()
}

func Fork(f func()) {
	go f() // want `naked go statement`
}
