package edwards25519

import "sync"

// SplitTable is a fixed-base table of a point Q for variable-time
// multiplication: the width-8 NAF tables of Q, [2^64]Q, [2^128]Q and
// [2^192]Q (Lim–Lee precomputation). A scalar's NAF digit at position p
// is looked up in table p/64 and doubled p%64 times, so a
// multiplication takes 64 doublings instead of ~254. One table holds
// 256 affine points, 30 KiB, and costs 256 field inversions to build.
type SplitTable [4]nafLookupTable8

// NewSplitTable returns the split table of q.
func NewSplitTable(q *Point) *SplitTable {
	checkInitialized(q)
	t := new(SplitTable)
	p := *q
	var p1 projP1xP1
	var p2 projP2
	for i := range t {
		if i > 0 {
			p2.FromP3(&p)
			for j := 0; j < 64; j++ {
				p2.FromP1xP1(p1.Double(&p2))
			}
			p.fromP2(&p2)
		}
		t[i].FromP3(&p)
	}
	return t
}

var basepointSplitTablePrecomp struct {
	table    *SplitTable
	initOnce sync.Once
}

// basepointSplitTable is the split table of the generator B, built once.
func basepointSplitTable() *SplitTable {
	basepointSplitTablePrecomp.initOnce.Do(func() {
		basepointSplitTablePrecomp.table = NewSplitTable(generator)
	})
	return basepointSplitTablePrecomp.table
}

// VarTimeDoubleScalarSplitBaseMult sets v = a * Q + b * B, where aTable
// is Q's split table and B is the canonical generator, and returns v.
// It computes the same point as the standard library's
// VarTimeDoubleScalarBaseMult(a, Q, b).
//
// Execution time depends on the inputs.
func (v *Point) VarTimeDoubleScalarSplitBaseMult(a *Scalar, aTable *SplitTable, b *Scalar) *Point {
	bTable := basepointSplitTable()
	aNaf := a.nonAdjacentForm(8)
	bNaf := b.nonAdjacentForm(8)

	tmp1 := &projP1xP1{}
	tmp2 := &projP2{}
	tmp2.Zero()
	for i := 63; i >= 0; i-- {
		tmp1.Double(tmp2)
		for t := range aTable {
			tmp1.addNafDigit(v, &aTable[t], aNaf[64*t+i])
			tmp1.addNafDigit(v, &bTable[t], bNaf[64*t+i])
		}
		tmp2.FromP1xP1(tmp1)
	}
	v.fromP2(tmp2)
	return v
}

// addNafDigit adds x * Q to v, where table is Q's NAF table and x is one
// NAF digit (zero, or odd with |x| < 2^7), using scratch as the
// extended-coordinates operand.
func (v *projP1xP1) addNafDigit(scratch *Point, table *nafLookupTable8, x int8) {
	var q affineCached
	switch {
	case x > 0:
		table.SelectInto(&q, x)
		v.AddAffine(scratch.fromP1xP1(v), &q)
	case x < 0:
		table.SelectInto(&q, -x)
		v.SubAffine(scratch.fromP1xP1(v), &q)
	}
}
