package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of vs by linear
// interpolation between closest ranks, 0 for an empty sample. It sorts
// vs in place.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	pos := q * float64(len(vs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return vs[lo] + (vs[hi]-vs[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

func sum(vs []float64) float64 {
	t := 0.0
	for _, v := range vs {
		t += v
	}
	return t
}

// per divides, reporting 0 when there is nothing to divide by: a layer
// that did no work on a workload reports exactly 0.
func per(total, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}
