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

// Execute implements Node.
func (a *Aggregate) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, a.Child)
	if err != nil {
		return nil, err
	}
	return aggregateRel(c, ctx, in, a.GroupBy, a.Aggs, a.PMode)
}

// aggregateRel is the operator core, shared with Distinct and Unite. Row
// hashing and grouping are morsel-parallel (groupRows), and accumulation —
// the aggregate columns and the probability combine — folds per-chunk
// partials merged in fixed chunk order (foldGroups), so the whole operator
// scales with workers while staying bit-identical at every parallelism.
func aggregateRel(c context.Context, ctx *Ctx, in *relation.Relation, groupBy []string, aggSpecs []AggSpec, pmode GroupProb) (*relation.Relation, error) {
	gIdx, err := colPositions(in, groupBy)
	if err != nil {
		return nil, err
	}
	// Budget the grouping scaffolding up front: the per-row hash array
	// plus the row→group array (8 bytes each per row).
	if err := ctx.charge(c, int64(in.NumRows())*16); err != nil {
		return nil, err
	}
	groupOf, firstRow := groupRows(c, ctx, in, gIdx)
	if err := c.Err(); err != nil {
		// A cancelled grouping leaves groupOf/firstRow inconsistent; the
		// accumulators below would index past them.
		return nil, err
	}

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
	switch pmode {
	case GroupCertain:
		outProb = make([]float64, nGroups)
		for g := range outProb {
			outProb[g] = 1.0
		}
	case GroupDisjoint, GroupSumRaw:
		outProb = sumProbGroups(c, ctx, prob, groupOf, nGroups)
		if pmode == GroupDisjoint {
			for g, s := range outProb {
				if s > 1 {
					outProb[g] = 1
				}
			}
		}
	case GroupIndependent:
		q := foldGroups(c, ctx, len(groupOf), nGroups,
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
		outProb = make([]float64, nGroups)
		for g := range outProb {
			outProb[g] = 1 - q[g]
		}
	case GroupMax:
		outProb = maxProbGroups(c, ctx, prob, groupOf, nGroups)
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
// Large inputs group in two parallel phases: every morsel deduplicates its
// own rows against a local table (phase 1), then a serial re-rank pass
// walks only the per-morsel representatives — in morsel order, so global
// ids come out in exactly the first-appearance order the serial loop
// assigns — and a final parallel sweep rewrites local ids to global ones.
// The serial stage therefore costs O(distinct groups), not O(rows).
func groupRows(c context.Context, ctx *Ctx, in *relation.Relation, gIdx []int) (groupOf []int, firstRow []int) {
	n := in.NumRows()
	if len(gIdx) == 0 {
		groupOf = make([]int, n)
		return groupOf, []int{0}
	}
	// Grouping by one dict-encoded column needs no hashing at all: codes
	// are dense ints, so a code→group array replaces the hash table. The
	// same morsel/re-rank structure keeps ids in first-appearance order,
	// so the result is bit-identical to the generic path.
	if len(gIdx) == 1 {
		if dv, ok := in.Col(gIdx[0]).Vec.(*vector.DictStrings); ok && dv.Dict().DenseIn(n) {
			return groupRowsCodes(c, ctx, dv, n)
		}
	}
	seed := maphash.MakeSeed()
	hashes := hashRowsParallel(c, ctx, in, seed, gIdx)
	groupOf = make([]int, n)
	ranges := ctx.morselRanges(n)
	if len(ranges) <= 1 {
		return groupOf, dedupRange(c, in, gIdx, hashes, 0, n, groupOf)
	}

	// Phase 1: per-morsel local dedup. groupOf temporarily holds ids local
	// to the row's morsel; localFirst[m] lists each local group's first row
	// in local first-appearance order.
	localFirst := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		localFirst[m] = dedupRange(c, in, gIdx, hashes, lo, hi, groupOf)
	})

	// Phase 2: re-rank. Morsels are visited in order and their local groups
	// in local first-appearance order, so a group's global id is assigned
	// when its earliest representative — its true global first row — is
	// seen. remap[m][localID] = globalID.
	remap := make([][]int, len(ranges))
	gFirst := make(map[uint64]int, 1024)
	var gSpill map[uint64][]int
	for m, firsts := range localFirst {
		if c.Err() != nil {
			// The re-rank is serial and O(distinct groups); bail between
			// morsels so a cancelled high-cardinality group-by stops here.
			return groupOf, firstRow
		}
		mr := make([]int, len(firsts))
		for lg, row := range firsts {
			h := hashes[row]
			gid := -1
			if g, ok := gFirst[h]; ok {
				if in.RowsEqual(row, gIdx, in, firstRow[g], gIdx) {
					gid = g
				} else {
					for _, g2 := range gSpill[h] {
						if in.RowsEqual(row, gIdx, in, firstRow[g2], gIdx) {
							gid = g2
							break
						}
					}
				}
			}
			if gid < 0 {
				gid = len(firstRow)
				firstRow = append(firstRow, row)
				if _, ok := gFirst[h]; !ok {
					gFirst[h] = gid
				} else {
					if gSpill == nil {
						gSpill = make(map[uint64][]int)
					}
					gSpill[h] = append(gSpill[h], gid)
				}
			}
			mr[lg] = gid
		}
		remap[m] = mr
	}

	// Phase 3: rewrite local ids to global ids, one morsel per worker.
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		mr := remap[m]
		for i := lo; i < hi; i++ {
			groupOf[i] = mr[groupOf[i]]
		}
	})
	return groupOf, firstRow
}

// groupRowsCodes groups rows by a single dict-encoded column through
// dense code→group arrays: no hashing, no map, no string bytes. The
// three-phase shape mirrors groupRows (per-morsel local dedup, serial
// re-rank of representatives in morsel order, parallel rewrite), so group
// ids come out in exactly the same first-appearance order.
func groupRowsCodes(c context.Context, ctx *Ctx, dv *vector.DictStrings, n int) (groupOf []int, firstRow []int) {
	codes := dv.Codes()
	d := dv.Dict().Len()
	groupOf = make([]int, n)
	ranges := ctx.morselRanges(n)
	dedup := func(lo, hi int) []int {
		table := make([]int32, d)
		for i := range table {
			table[i] = -1
		}
		var firsts []int
		for i := lo; i < hi; i++ {
			c := codes[i]
			g := table[c]
			if g < 0 {
				g = int32(len(firsts))
				table[c] = g
				firsts = append(firsts, i)
			}
			groupOf[i] = int(g)
		}
		return firsts
	}
	if len(ranges) <= 1 {
		if n == 0 {
			return groupOf, nil
		}
		return groupOf, dedup(0, n)
	}
	localFirst := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		localFirst[m] = dedup(lo, hi)
	})
	global := make([]int32, d)
	for i := range global {
		global[i] = -1
	}
	remap := make([][]int, len(ranges))
	for m, firsts := range localFirst {
		mr := make([]int, len(firsts))
		for lg, row := range firsts {
			c := codes[row]
			g := global[c]
			if g < 0 {
				g = int32(len(firstRow))
				global[c] = g
				firstRow = append(firstRow, row)
			}
			mr[lg] = int(g)
		}
		remap[m] = mr
	}
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		mr := remap[m]
		for i := lo; i < hi; i++ {
			groupOf[i] = mr[groupOf[i]]
		}
	})
	return groupOf, firstRow
}

// dedupRange assigns rows [lo, hi) to groups keyed by hash plus row
// equality, writing ids (0-based within this range, in first-appearance
// order) into groupOf[lo:hi] and returning each group's first row index.
// The single map insert per distinct group (plus a rare spill map for
// 64-bit hash collisions between distinct keys) keeps high-cardinality
// group-bys — the tf view has one group per (term, document) pair —
// allocation-light. Cancellation is checked every few thousand rows; a
// cut-short range leaves partial state the caller discards.
func dedupRange(c context.Context, in *relation.Relation, gIdx []int, hashes []uint64, lo, hi int, groupOf []int) (firsts []int) {
	first := make(map[uint64]int, 1024)
	var spill map[uint64][]int
	for i := lo; i < hi; i++ {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			return firsts
		}
		h := hashes[i]
		gid := -1
		if g, ok := first[h]; ok {
			if in.RowsEqual(i, gIdx, in, firsts[g], gIdx) {
				gid = g
			} else {
				for _, g2 := range spill[h] {
					if in.RowsEqual(i, gIdx, in, firsts[g2], gIdx) {
						gid = g2
						break
					}
				}
			}
		}
		if gid < 0 {
			gid = len(firsts)
			firsts = append(firsts, i)
			if _, ok := first[h]; !ok {
				first[h] = gid
			} else {
				if spill == nil {
					spill = make(map[uint64][]int)
				}
				spill[h] = append(spill[h], gid)
			}
		}
		groupOf[i] = gid
	}
	return firsts
}

// aggChunk is the row-range granule for partial aggregation.
const aggChunk = 4 * minMorsel

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
	if chunks > 16 {
		chunks = 16
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
	out := make([][2]int, 0, chunks)
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
// byte-for-byte the serial loop.
func foldGroups[T any](c context.Context, ctx *Ctx, n, nGroups int, newAcc func() []T, fold func(acc []T, lo, hi int), merge func(dst, src []T)) []T {
	ranges := aggRanges(n, nGroups)
	if len(ranges) <= 1 {
		acc := newAcc()
		fold(acc, 0, n)
		return acc
	}
	parts := make([][]T, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		acc := newAcc()
		fold(acc, lo, hi)
		parts[m] = acc
	})
	out := parts[0]
	for _, p := range parts[1:] {
		merge(out, p)
	}
	return out
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
func countGroups(c context.Context, ctx *Ctx, groupOf []int, nGroups int) []int64 {
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
func sumProbGroups(c context.Context, ctx *Ctx, prob []float64, groupOf []int, nGroups int) []float64 {
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
func maxProbGroups(c context.Context, ctx *Ctx, prob []float64, groupOf []int, nGroups int) []float64 {
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
		return vector.FromInt64s(countGroups(c, ctx, groupOf, nGroups)), nil
	case SumProb:
		return vector.FromFloat64s(sumProbGroups(c, ctx, prob, groupOf, nGroups)), nil
	case MaxProb:
		return vector.FromFloat64s(maxProbGroups(c, ctx, prob, groupOf, nGroups)), nil
	}

	col, err := in.ColByName(spec.Col)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Op, err)
	}
	switch spec.Op {
	case Count:
		return vector.FromInt64s(countGroups(c, ctx, groupOf, nGroups)), nil
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
		best := foldGroups(c, ctx, n, nGroups,
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
		sums := foldGroups(c, ctx, n, nGroups,
			func() []sumCount { return make([]sumCount, nGroups) },
			fold,
			func(dst, src []sumCount) {
				for g := range dst {
					dst[g].sum += src[g].sum
					dst[g].n += src[g].n
				}
			})
		if spec.Op == Avg {
			out := make([]float64, nGroups)
			for g := range out {
				if sums[g].n > 0 {
					out[g] = sums[g].sum / float64(sums[g].n)
				}
			}
			return vector.FromFloat64s(out), nil
		}
		if isInt {
			out := make([]int64, nGroups)
			for g := range out {
				out[g] = int64(sums[g].sum)
			}
			return vector.FromInt64s(out), nil
		}
		out := make([]float64, nGroups)
		for g := range out {
			out[g] = sums[g].sum
		}
		return vector.FromFloat64s(out), nil
	}
	return nil, fmt.Errorf("unknown aggregate op %v", spec.Op)
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
