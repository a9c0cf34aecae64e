package engine

import (
	"context"
	"fmt"
	"hash/maphash"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// AggOp is an aggregate function.
type AggOp int

// Aggregate functions. CountAll and the *Prob ops ignore their column
// argument: CountAll counts tuples, the *Prob ops aggregate the implicit
// tuple-probability column into a visible value column (needed by the
// relational Bayes operator and by retrieval-model score sums such as the
// paper's "sum(tf_bm25.tf)").
const (
	CountAll AggOp = iota
	Count
	Sum
	Avg
	Min
	Max
	SumProb
	MaxProb
)

func (op AggOp) String() string {
	switch op {
	case CountAll:
		return "count(*)"
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	case SumProb:
		return "sum(p)"
	case MaxProb:
		return "max(p)"
	}
	return "?"
}

// AggSpec is one aggregate output: op applied to column Col (ignored for
// CountAll/SumProb/MaxProb), named As in the output.
type AggSpec struct {
	Op  AggOp
	Col string
	As  string
}

// GroupProb selects the probability assigned to each output group, i.e.
// the probabilistic projection semantics of PRA (section 2.3).
type GroupProb int

const (
	// GroupCertain assigns p = 1 to every group: plain SQL aggregation
	// over facts.
	GroupCertain GroupProb = iota
	// GroupDisjoint sums member probabilities (clamped to 1): PRA
	// "PROJECT DISJOINT", valid when member events are mutually exclusive.
	GroupDisjoint
	// GroupIndependent combines members by noisy-or, 1 - ∏(1-p): PRA
	// "PROJECT INDEPENDENT".
	GroupIndependent
	// GroupMax takes the maximum member probability.
	GroupMax
	// GroupSumRaw sums member probabilities without clamping. Not a
	// probability in general — retrieval models use it to accumulate
	// per-term score contributions exactly like the paper's final
	// "sum(tf_bm25.tf) as score".
	GroupSumRaw
)

func (g GroupProb) String() string {
	switch g {
	case GroupCertain:
		return "certain"
	case GroupDisjoint:
		return "disjoint"
	case GroupIndependent:
		return "independent"
	case GroupMax:
		return "max"
	case GroupSumRaw:
		return "sumraw"
	}
	return "?"
}

// Aggregate groups its input by the GroupBy columns (empty = one global
// group) and computes the given aggregates. Output columns are the group
// columns followed by one column per AggSpec; output order is first
// appearance of each group, keeping results deterministic.
type Aggregate struct {
	ident
	Child   Node
	GroupBy []string
	Aggs    []AggSpec
	PMode   GroupProb
}

// NewAggregate builds an aggregation node.
func NewAggregate(child Node, groupBy []string, aggs []AggSpec, pmode GroupProb) *Aggregate {
	h := newHasher("aggregate")
	h.int(int(pmode))
	h.strs(groupBy)
	h.int(len(aggs))
	for _, a := range aggs {
		h.int(int(a.Op))
		h.str(a.Col)
		h.str(a.As)
	}
	return &Aggregate{ident: h.finish(child), Child: child, GroupBy: groupBy, Aggs: aggs, PMode: pmode}
}

// Execute implements Node. Over a bare HashJoin it executes the join's
// inputs itself, to fold from the join index when it can (groupjoin.go).
func (a *Aggregate) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	if j, ok := a.Child.(*HashJoin); ok {
		return a.overJoin(c, ctx, j)
	}
	in, err := ctx.Exec(c, a.Child)
	if err != nil {
		return nil, err
	}
	return aggregateRel(c, ctx, in, a.GroupBy, a.Aggs, a.PMode)
}

// aggregateRel is the operator core, shared with Distinct.
// groupRows hashes the rows and finds each row's group in per-partition
// leader tables, charging its own scaffolding; accumulation —
// the aggregate columns and the probability combine — folds per-chunk
// partials merged in fixed chunk order (foldGroups), so the whole operator
// scales with workers while staying bit-identical at every parallelism.
func aggregateRel(c context.Context, ctx *Ctx, in *relation.Relation, groupBy []string, aggSpecs []AggSpec, pmode GroupProb) (*relation.Relation, error) {
	gIdx, err := colPositions(in, groupBy)
	if err != nil {
		return nil, err
	}
	groupOf, firstRow, err := groupRows(c, ctx, in, gIdx)
	if err != nil {
		return nil, err
	}
	return aggregateGroups(c, ctx, in, gIdx, groupBy, groupOf, firstRow, aggSpecs, pmode)
}

// aggregateGroups is aggregateRel past the grouping: the group columns
// gathered at each group's first row, then the aggregates and the
// probability combine folded per group.
func aggregateGroups(c context.Context, ctx *Ctx, in *relation.Relation, gIdx []int, groupBy []string, groupOf, firstRow []int, aggSpecs []AggSpec, pmode GroupProb) (*relation.Relation, error) {
	nGroups := len(firstRow)
	// Budget the accumulators before any fold runs: each chunk of
	// foldGroups carries a dense nGroups-slot partial per aggregate (the
	// probability combine included), plus the gathered group columns.
	chunks := int64(len(aggRanges(len(groupOf), nGroups)))
	accBytes := chunks * int64(nGroups) * 16 * int64(len(aggSpecs)+1)
	if err := ctx.charge(c, accBytes+in.ApproxRowBytes()*int64(nGroups)); err != nil {
		return nil, err
	}
	cols := make([]relation.Column, 0, len(gIdx)+len(aggSpecs))
	for k, gi := range gIdx {
		cols = append(cols, relation.Column{
			Name: groupBy[k],
			Vec:  in.Col(gi).Vec.Gather(firstRow),
		})
	}

	prob := in.Prob()
	for _, spec := range aggSpecs {
		v, err := evalAgg(c, ctx, in, spec, groupOf, nGroups)
		if err != nil {
			return nil, err
		}
		cols = append(cols, relation.Column{Name: spec.As, Vec: v})
	}

	var outProb []float64
	var err error
	switch pmode {
	case GroupCertain:
		outProb = make([]float64, nGroups)
		for g := range outProb {
			outProb[g] = 1.0
		}
	case GroupDisjoint, GroupSumRaw:
		if outProb, err = sumProbGroups(c, ctx, prob, groupOf, nGroups); err != nil {
			return nil, err
		}
		if pmode == GroupDisjoint {
			for g, s := range outProb {
				if s > 1 {
					outProb[g] = 1
				}
			}
		}
	case GroupIndependent:
		q, qerr := foldGroups(c, ctx, len(groupOf), nGroups,
			func() []float64 {
				acc := make([]float64, nGroups)
				for g := range acc {
					acc[g] = 1.0
				}
				return acc
			},
			func(acc []float64, lo, hi int) {
				for i := lo; i < hi; i++ {
					acc[groupOf[i]] *= 1 - prob[i]
				}
			},
			func(dst, src []float64) {
				for g := range dst {
					dst[g] *= src[g]
				}
			})
		if qerr != nil {
			return nil, qerr
		}
		outProb = make([]float64, nGroups)
		for g := range outProb {
			outProb[g] = 1 - q[g]
		}
	case GroupMax:
		if outProb, err = maxProbGroups(c, ctx, prob, groupOf, nGroups); err != nil {
			return nil, err
		}
	}

	if len(cols) == 0 {
		// Global aggregation with no aggregates is degenerate; surface it.
		return nil, fmt.Errorf("aggregate with no group columns and no aggregates")
	}
	return relation.FromColumns(cols, outProb)
}

// groupRows partitions rows by equality on the given columns. It returns
// the group id of every row and the first row index of each group (group
// ids are assigned in first-appearance order). With no group columns all
// rows (even zero) form a single group, matching SQL's global aggregate.
//
// One key column whose domain fits denseGroupSlots is numbered in one pass
// through a slot → group array (denseGroupRows). Any other key first maps
// every row to its leader, the first row of its group, through a one-pass
// leader table over the row hashes (hashLeaders), and numberGroups turns
// leaders into ids.
func groupRows(c context.Context, ctx *Ctx, in *relation.Relation, gIdx []int) (groupOf, firstRow []int, err error) {
	n := in.NumRows()
	// Leaders are int32 row ids, like the join's bucket index's.
	if err := checkBuildRows(n); err != nil {
		return nil, nil, err
	}
	if len(gIdx) == 1 {
		key := in.Col(gIdx[0]).Vec
		dom, ok, derr := denseDomainOf(c, key, denseGroupSlots(n))
		if derr != nil {
			return nil, nil, derr
		}
		if ok {
			return denseGroupRows(c, ctx, key, dom)
		}
	}
	return hashGroupRows(c, ctx, in, gIdx)
}

// hashGroupRows is groupRows' hashed path, for any number of key columns.
func hashGroupRows(c context.Context, ctx *Ctx, in *relation.Relation, gIdx []int) (groupOf, firstRow []int, err error) {
	n := in.NumRows()
	if len(gIdx) == 0 {
		if err := ctx.charge(c, int64(n)*8); err != nil {
			return nil, nil, err
		}
		return make([]int, n), []int{0}, nil
	}
	// Budget the row→group array, the row→leader array and the first-row
	// list, which has at most one entry per row (8 + 4 + 8 bytes per row);
	// the hashes and leader table charge themselves.
	if err := ctx.charge(c, int64(n)*20); err != nil {
		return nil, nil, err
	}
	groupOf = make([]int, n)
	leader := make([]int32, n)
	vecs := colVecs(in, gIdx)
	hashes, err := hashVecsParallel(c, ctx, vecs, n, maphash.MakeSeed())
	if err != nil {
		return nil, nil, err
	}
	if err := hashLeaders(c, ctx, vecs, hashes, leader); err != nil {
		return nil, nil, err
	}
	return groupOf, numberGroups(leader, groupOf), nil
}

// hashLeaders sets leader[i] to the first row whose key (vecs) equals row
// i's, in one pass per hash partition (partitionRows) over an
// open-addressing table probed linearly at load <= 0.5. A slot holds a
// hash and its key's leader row + 1, so zeroed memory is empty. A
// partition's rows come in ascending order, so the row that claims an
// empty slot is its key's first appearance; a row whose hash matches a
// slot and whose key equals that slot's leader's joins it; any other row
// probes on, so distinct keys that share a 64-bit hash stay apart.
// Partitions write disjoint leader slots.
func hashLeaders(c context.Context, ctx *Ctx, vecs []vector.Vector, hashes []uint64, leader []int32) error {
	// Budget the partition lists (4 B/row) before they are cut, and the
	// tables (12 B/slot) once the partition sizes are known.
	if err := ctx.charge(c, int64(len(hashes))*4); err != nil {
		return err
	}
	lists, err := partitionRows(c, ctx, hashes)
	if err != nil {
		return err
	}
	var slots int64
	for _, l := range lists {
		slots += int64(tableSlots(listsLen(l)))
	}
	if err := ctx.charge(c, slots*12); err != nil {
		return err
	}
	ctx.runRanges(c, taskRanges(len(lists)), func(_, q, _ int) {
		size := tableSlots(listsLen(lists[q]))
		mask := uint64(size - 1)
		hash, lead := make([]uint64, size), make([]int32, size)
		for _, l := range lists[q] {
			for _, r := range l {
				h := hashes[r]
				i := (h >> 6) & mask
				for lead[i] != 0 && (hash[i] != h || !vecsEqual(vecs, int(r), vecs, int(lead[i]-1))) {
					i = (i + 1) & mask
				}
				if lead[i] == 0 {
					hash[i], lead[i] = h, r+1
				}
				leader[r] = lead[i] - 1
			}
		}
	})
	// A cancelled build leaves some leaders unset: the grouping is void.
	return c.Err()
}

// numberGroups turns leaders into group ids in one pass in row order: a
// row that leads its group takes the next id, any other row its leader's,
// which is already set because a leader precedes its members. It returns
// each group's first row, allocated once the leaders are counted; the
// caller has charged one 8 B entry per row, the most groups there can be.
func numberGroups(leader []int32, groupOf []int) (firstRow []int) {
	groups := 0
	for i, l := range leader {
		if int(l) == i {
			groups++
		}
	}
	firstRow = make([]int, 0, groups)
	for i, l := range leader {
		if int(l) == i {
			groupOf[i] = len(firstRow)
			firstRow = append(firstRow, i)
		} else {
			groupOf[i] = groupOf[l]
		}
	}
	return firstRow
}

// aggChunk is the row-range granule for partial aggregation, and
// maxAggChunks caps how many chunks one fold splits into.
const (
	aggChunk     = 4 * minMorsel
	maxAggChunks = 16
)

// aggRanges splits [0, n) into the chunks partial aggregation folds over.
// Unlike morselRanges, the decomposition depends only on n and nGroups —
// never on Ctx.Parallelism: float accumulator merges are ordered but not
// exactly associative, so a parallelism-dependent split would make Sum and
// the probability combines drift in the last bits as worker count changes.
// A fixed split plus a fixed merge order (chunk index order) keeps every
// aggregate bit-identical at parallelism 1, 2 and 8.
//
// Each chunk carries a dense accumulator array of nGroups slots, so the
// chunk count is capped both absolutely and relative to nGroups to keep
// the partial footprint O(n) even for near-distinct groupings.
func aggRanges(n, nGroups int) [][2]int {
	chunks := n / aggChunk
	if chunks > maxAggChunks {
		chunks = maxAggChunks
	}
	if nGroups > 0 && chunks > 1 {
		if m := 8 * n / nGroups; chunks > m {
			chunks = m
		}
	}
	if chunks <= 1 {
		return [][2]int{{0, n}}
	}
	size := (n + chunks - 1) / chunks
	out := make([][2]int, 0, maxAggChunks)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// foldGroups computes a per-group aggregate over n rows with per-chunk
// partial accumulators: fold accumulates rows [lo, hi) into a fresh
// accumulator, and merge combines partials strictly in chunk index order —
// the determinism contract float aggregates rely on (see aggRanges).
// Chunks run on available workers; a single chunk folds inline, which is
// byte-for-byte the serial loop. Cancellation stops dispatching chunks,
// so a cancelled fold returns the context's error instead of merging the
// partials it lacks.
func foldGroups[T any](c context.Context, ctx *Ctx, n, nGroups int, newAcc func() []T, fold func(acc []T, lo, hi int), merge func(dst, src []T)) ([]T, error) {
	ranges := aggRanges(n, nGroups)
	if len(ranges) <= 1 {
		acc := newAcc()
		fold(acc, 0, n)
		return acc, nil
	}
	parts := make([][]T, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		acc := newAcc()
		fold(acc, lo, hi)
		parts[m] = acc
	})
	if err := c.Err(); err != nil {
		return nil, err
	}
	out := parts[0]
	for _, p := range parts[1:] {
		merge(out, p)
	}
	return out, nil
}

func addFloats(dst, src []float64) {
	for g := range dst {
		dst[g] += src[g]
	}
}

func maxFloats(dst, src []float64) {
	for g := range dst {
		if src[g] > dst[g] {
			dst[g] = src[g]
		}
	}
}

func addInts(dst, src []int64) {
	for g := range dst {
		dst[g] += src[g]
	}
}

// countGroups is the shared accumulator of CountAll and Count.
func countGroups(c context.Context, ctx *Ctx, groupOf []int, nGroups int) ([]int64, error) {
	return foldGroups(c, ctx, len(groupOf), nGroups,
		func() []int64 { return make([]int64, nGroups) },
		func(acc []int64, lo, hi int) {
			for _, g := range groupOf[lo:hi] {
				acc[g]++
			}
		},
		addInts)
}

// sumProbGroups sums the probability column per group — the shared
// accumulator of the SumProb aggregate and the disjoint/sum-raw
// probability combines, so the two can never drift apart.
func sumProbGroups(c context.Context, ctx *Ctx, prob []float64, groupOf []int, nGroups int) ([]float64, error) {
	return foldGroups(c, ctx, len(groupOf), nGroups,
		func() []float64 { return make([]float64, nGroups) },
		func(acc []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				acc[groupOf[i]] += prob[i]
			}
		},
		addFloats)
}

// maxProbGroups takes the probability maximum per group — shared by the
// MaxProb aggregate and the max probability combine.
func maxProbGroups(c context.Context, ctx *Ctx, prob []float64, groupOf []int, nGroups int) ([]float64, error) {
	return foldGroups(c, ctx, len(groupOf), nGroups,
		func() []float64 { return make([]float64, nGroups) },
		func(acc []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				if g := groupOf[i]; prob[i] > acc[g] {
					acc[g] = prob[i]
				}
			}
		},
		maxFloats)
}

// sumCount is the partial state of Sum and Avg: the running sum plus the
// member count (Avg's denominator).
type sumCount struct {
	sum float64
	n   int64
}

// evalAgg computes one aggregate column. Accumulation is chunk-parallel
// through foldGroups; every merge is either exact (counts, min/max,
// integer-valued sums) or ordered by chunk index (float sums), so the
// result is identical at every parallelism.
func evalAgg(c context.Context, ctx *Ctx, in *relation.Relation, spec AggSpec, groupOf []int, nGroups int) (vector.Vector, error) {
	prob := in.Prob()
	n := len(groupOf)
	switch spec.Op {
	case CountAll:
		counts, err := countGroups(c, ctx, groupOf, nGroups)
		return vector.FromInt64s(counts), err
	case SumProb:
		sums, err := sumProbGroups(c, ctx, prob, groupOf, nGroups)
		return vector.FromFloat64s(sums), err
	case MaxProb:
		maxes, err := maxProbGroups(c, ctx, prob, groupOf, nGroups)
		return vector.FromFloat64s(maxes), err
	}

	col, err := in.ColByName(spec.Col)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Op, err)
	}
	switch spec.Op {
	case Count:
		counts, err := countGroups(c, ctx, groupOf, nGroups)
		return vector.FromInt64s(counts), err
	case Min, Max:
		// Partials track the best row per group; merging compares the
		// earlier chunk's best against the later one's with the same strict
		// inequality the serial loop uses, so equal values keep the earliest
		// row exactly as a single left-to-right pass would.
		isMin := spec.Op == Min
		better := func(a, b int) bool { // does row a beat incumbent row b?
			if isMin {
				return col.Vec.LessAt(a, col.Vec, b)
			}
			return col.Vec.LessAt(b, col.Vec, a)
		}
		best, err := foldGroups(c, ctx, n, nGroups,
			func() []int {
				acc := make([]int, nGroups)
				for g := range acc {
					acc[g] = -1
				}
				return acc
			},
			func(acc []int, lo, hi int) {
				for i := lo; i < hi; i++ {
					g := groupOf[i]
					if acc[g] < 0 || better(i, acc[g]) {
						acc[g] = i
					}
				}
			},
			func(dst, src []int) {
				for g, b := range src {
					if b >= 0 && (dst[g] < 0 || better(b, dst[g])) {
						dst[g] = b
					}
				}
			})
		if err != nil {
			return nil, err
		}
		for g, b := range best {
			if b < 0 {
				return nil, fmt.Errorf("%s over empty group %d", spec.Op, g)
			}
		}
		return col.Vec.Gather(best), nil
	case Sum, Avg:
		var fold func(acc []sumCount, lo, hi int)
		isInt := col.Vec.Kind() == vector.Int64
		switch v := col.Vec.(type) {
		case *vector.Int64s:
			vals := v.Values()
			fold = func(acc []sumCount, lo, hi int) {
				for i := lo; i < hi; i++ {
					acc[groupOf[i]].sum += float64(vals[i])
					acc[groupOf[i]].n++
				}
			}
		case *vector.Float64s:
			vals := v.Values()
			fold = func(acc []sumCount, lo, hi int) {
				for i := lo; i < hi; i++ {
					acc[groupOf[i]].sum += vals[i]
					acc[groupOf[i]].n++
				}
			}
		default:
			return nil, fmt.Errorf("%s over non-numeric column %q", spec.Op, spec.Col)
		}
		return sumGroups(c, ctx, spec.Op, isInt, n, nGroups, fold)
	}
	return nil, fmt.Errorf("unknown aggregate op %v", spec.Op)
}

// sumGroups folds the Sum or Avg (op) partials of n rows and returns the
// output column: the mean for Avg, the sum otherwise, integer when the
// summed column is.
func sumGroups(c context.Context, ctx *Ctx, op AggOp, isInt bool, n, nGroups int, fold func(acc []sumCount, lo, hi int)) (vector.Vector, error) {
	sums, err := foldGroups(c, ctx, n, nGroups,
		func() []sumCount { return make([]sumCount, nGroups) },
		fold,
		func(dst, src []sumCount) {
			for g := range dst {
				dst[g].sum += src[g].sum
				dst[g].n += src[g].n
			}
		})
	if err != nil {
		return nil, err
	}
	if op == Avg {
		out := make([]float64, len(sums))
		for g := range out {
			if sums[g].n > 0 {
				out[g] = sums[g].sum / float64(sums[g].n)
			}
		}
		return vector.FromFloat64s(out), nil
	}
	if isInt {
		out := make([]int64, len(sums))
		for g := range out {
			out[g] = int64(sums[g].sum)
		}
		return vector.FromInt64s(out), nil
	}
	out := make([]float64, len(sums))
	for g := range out {
		out[g] = sums[g].sum
	}
	return vector.FromFloat64s(out), nil
}

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// Label implements Node.
func (a *Aggregate) Label() string {
	return fmt.Sprintf("Aggregate[%s] by %v", a.PMode, a.GroupBy)
}

// ---------------------------------------------------------------------------
// Distinct

// Distinct removes duplicate rows (over all visible columns), combining
// the probabilities of collapsed duplicates according to PMode. This is
// the probabilistic PROJECT of PRA once composed with a Project node.
type Distinct struct {
	ident
	Child Node
	PMode GroupProb
}

// NewDistinct deduplicates child rows with the given probability combine
// mode.
func NewDistinct(child Node, pmode GroupProb) *Distinct {
	h := newHasher("distinct")
	h.int(int(pmode))
	return &Distinct{ident: h.finish(child), Child: child, PMode: pmode}
}

// Execute implements Node.
func (d *Distinct) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, d.Child)
	if err != nil {
		return nil, err
	}
	return aggregateRel(c, ctx, in, in.ColumnNames(), nil, d.PMode)
}

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// Label implements Node.
func (d *Distinct) Label() string { return fmt.Sprintf("Distinct[%s]", d.PMode) }
