package engine

import (
	"context"
	"fmt"
	"math"
	"sort"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// overJoin is Aggregate.Execute over a bare HashJoin child j: a groupjoin
// (Moerkotte & Neumann, VLDB 2011). It executes j's inputs and index
// once, folds from the index when groupJoin applies, and otherwise runs
// j's probe and gather over the same inputs and groups their output.
func (a *Aggregate) overJoin(c context.Context, ctx *Ctx, j *HashJoin) (*relation.Relation, error) {
	in, err := j.index(c, ctx)
	if err == nil {
		var rel *relation.Relation
		var fused bool
		if rel, fused, err = a.groupJoin(c, ctx, j, in); fused || err != nil {
			return rel, err
		}
	}
	// The join runs as an operator: count it and label its errors, as
	// Ctx.Exec would.
	ctx.nodeExecs.Add(1)
	var joined *relation.Relation
	if err == nil {
		joined, err = j.join(c, ctx, in)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", j.Label(), err)
	}
	return aggregateRel(c, ctx, joined, a.GroupBy, a.Aggs, a.PMode)
}

// groupJoin folds a from j's dense index, reporting false when it does
// not apply: a must group by one column with GroupCertain, and j's output
// must take that column and every aggregate input from the build side;
// each aggregate must be CountAll, Count, or Sum or Avg over an Int64s or
// Float64s column; and the group key over the matched build rows must fit
// denseGroupSlots of the pair count, the test groupRows applies to the
// join's output. Each probe row's matches are one run of the index's row
// array (pairRuns); groups are numbered in pair order, and the folds use
// the same aggRanges chunks, merged in the same order, as over the join's
// output, so the result is bit-identical to grouping that output.
func (a *Aggregate) groupJoin(c context.Context, ctx *Ctx, j *HashJoin, in *joinInputs) (*relation.Relation, bool, error) {
	d := in.idx.dense
	if d == nil || len(j.LKeys) != 1 || len(a.GroupBy) != 1 || a.PMode != GroupCertain {
		return nil, false, nil
	}
	out := j.outCols(in.left.ColumnNames(), in.right.ColumnNames())
	// build returns the build-side column j outputs as name, or nil.
	build := func(name string) vector.Vector {
		for _, oc := range out {
			if oc.Name != name {
				continue
			}
			if k := in.right.ColIndex(oc.Col); oc.Right && k >= 0 {
				return in.right.Col(k).Vec
			}
			return nil
		}
		return nil
	}
	key := build(a.GroupBy[0])
	if key == nil {
		return nil, false, nil
	}
	for _, spec := range a.Aggs {
		v := build(spec.Col)
		_, ints := v.(*vector.Int64s)
		_, floats := v.(*vector.Float64s)
		switch {
		case spec.Op == CountAll, spec.Op == Count && v != nil, (spec.Op == Sum || spec.Op == Avg) && (ints || floats):
		default:
			return nil, false, nil
		}
	}
	runs, err := denseRuns(c, ctx, d, in.lKeys[0])
	if err != nil {
		return nil, false, err
	}
	n := runs.pairs()
	if err := checkBuildRows(n); err != nil {
		return nil, false, err
	}
	dom, ok, err := runs.domain(c, key, denseGroupSlots(n))
	if err != nil || !ok {
		return nil, false, err
	}
	// The arrays denseGroupRows charges.
	maxGroups := min(n, dom.slots)
	if err := ctx.charge(c, int64(n)*8+int64(dom.slots)*4+int64(maxGroups)*8); err != nil {
		return nil, false, err
	}
	groupOf, first := make([]int, n), make([]int32, dom.slots)
	firstRow := make([]int, 0, maxGroups)
	if codes, ints, _ := keyValues(key); codes != nil {
		firstRow = numberRuns(c, runs, codes, dom, first, groupOf, firstRow)
	} else {
		firstRow = numberRuns(c, runs, ints, dom, first, groupOf, firstRow)
	}
	// The fold partials aggregateGroups charges, then the group column
	// (at most 8 B per group) and the probabilities.
	nGroups := len(firstRow)
	accBytes := int64(len(aggRanges(n, nGroups))) * int64(nGroups) * 16 * int64(len(a.Aggs)+1)
	if err := ctx.charge(c, accBytes+int64(nGroups)*16); err != nil {
		return nil, false, err
	}
	cols := []relation.Column{{Name: a.GroupBy[0], Vec: key.Gather(firstRow)}}
	for _, spec := range a.Aggs {
		var v vector.Vector
		if v, err = runs.fold(c, ctx, spec.Op, build(spec.Col), groupOf, nGroups); err != nil {
			return nil, false, err
		}
		cols = append(cols, relation.Column{Name: spec.As, Vec: v})
	}
	prob := make([]float64, nGroups)
	for g := range prob {
		prob[g] = 1
	}
	rel, err := relation.FromColumns(cols, prob)
	return rel, true, err
}

// pairRuns lists a dense join's pairs without materializing them: probe
// row i matches the build rows rows[off[i] : off[i]+start[i+1]−start[i]],
// and start[i] pairs come before row i's, in the order probePairs lists
// them.
type pairRuns struct {
	rows, off []int32
	start     []int
}

// denseRuns looks up every probe row's run in d, charging the run arrays
// before it allocates them.
func denseRuns(c context.Context, ctx *Ctx, d *denseIndex, probe vector.Vector) (*pairRuns, error) {
	codes, ints, err := denseProbeKey(c, ctx, probe)
	if err != nil {
		return nil, err
	}
	n := probe.Len()
	if err := ctx.charge(c, int64(n)*12+8); err != nil {
		return nil, err
	}
	r := &pairRuns{rows: d.rows, off: make([]int32, n), start: make([]int, n+1)}
	if codes != nil {
		fillRuns(c, d, codes, r)
	} else {
		fillRuns(c, d, ints, r)
	}
	return r, c.Err()
}

func fillRuns[K denseKey](c context.Context, d *denseIndex, keys []K, r *pairRuns) {
	for i, k := range keys {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			return
		}
		var lo, hi int32
		if s := d.dom.slot(uint64(k)); s < uint64(d.dom.slots) {
			lo, hi = d.off[s], d.off[s+1]
		}
		r.off[i], r.start[i+1] = lo, r.start[i]+int(hi-lo)
	}
}

// pairs is the number of pairs.
func (r *pairRuns) pairs() int { return r.start[len(r.start)-1] }

// each calls fn with the build rows of pairs [lo, hi) in pieces of at most
// 8k, p being the pair number of run[0], and stops once c is cancelled:
// callers check c afterwards.
func (r *pairRuns) each(c context.Context, lo, hi int, fn func(p int, run []int32)) {
	for i := sort.SearchInts(r.start, lo+1) - 1; i+1 < len(r.start) && r.start[i] < hi; i++ {
		for from, to := max(r.start[i], lo), min(r.start[i+1], hi); from < to && c.Err() == nil; from += 0x2000 {
			o := int(r.off[i]) + from - r.start[i]
			fn(from, r.rows[o:o+min(to-from, 0x2000)])
		}
	}
}

// domain is denseDomainOf over the group key's values at the matched
// build rows, the join's output column: a DictStrings key's slots are its
// dict's, an Int64s key's span those rows' values.
func (r *pairRuns) domain(c context.Context, key vector.Vector, maxSlots int) (denseDomain, bool, error) {
	v, ok := key.(*vector.Int64s)
	if !ok {
		return denseDomainOf(c, key, maxSlots)
	}
	if r.pairs() == 0 {
		return denseDomain{}, true, nil
	}
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	r.each(c, 0, r.pairs(), func(_ int, run []int32) {
		for _, b := range run {
			lo, hi = min(lo, v.Values()[b]), max(hi, v.Values()[b])
		}
	})
	dom, ok := spanDomain(lo, hi, maxSlots)
	return dom, ok, c.Err()
}

// numberRuns numbers the groups of the matched build rows' keys in pair
// order through the slot → group array first, as numberDense does a
// column's rows, and returns each group's first build row.
func numberRuns[K denseKey](c context.Context, r *pairRuns, keys []K, dom denseDomain, first []int32, groupOf, firstRow []int) []int {
	r.each(c, 0, len(groupOf), func(p int, run []int32) {
		for k, b := range run {
			s := dom.slot(uint64(keys[b]))
			if first[s] == 0 {
				firstRow = append(firstRow, int(b))
				first[s] = int32(len(firstRow))
			}
			groupOf[p+k] = int(first[s] - 1)
		}
	})
	return firstRow
}

// fold computes the aggregate op per group: a count, or the Sum or Avg of
// col's values at the matched build rows.
func (r *pairRuns) fold(c context.Context, ctx *Ctx, op AggOp, col vector.Vector, groupOf []int, nGroups int) (vector.Vector, error) {
	var fold func(acc []sumCount, lo, hi int)
	switch v := col.(type) {
	case *vector.Int64s:
		fold = sumRuns(c, r, groupOf, v.Values())
	case *vector.Float64s:
		fold = sumRuns(c, r, groupOf, v.Values())
	}
	if op == CountAll || op == Count {
		counts, err := countGroups(c, ctx, groupOf, nGroups)
		return vector.FromInt64s(counts), err
	}
	return sumGroups(c, ctx, op, col.Kind() == vector.Int64, len(groupOf), nGroups, fold)
}

// sumRuns is the Sum and Avg fold over the values at the matched build
// rows.
func sumRuns[V int64 | float64](c context.Context, r *pairRuns, groupOf []int, vals []V) func(acc []sumCount, lo, hi int) {
	return func(acc []sumCount, lo, hi int) {
		r.each(c, lo, hi, func(p int, run []int32) {
			for k, b := range run {
				acc[groupOf[p+k]].sum += float64(vals[b])
				acc[groupOf[p+k]].n++
			}
		})
	}
}
