package engine

import (
	"context"
	"fmt"
	"hash/maphash"
	"slices"
	"strings"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// JoinProb selects how an equi-join combines the probabilities of matching
// tuples, per the probabilistic relational algebra of section 2.3.
type JoinProb int

const (
	// JoinIndependent multiplies the two tuple probabilities — the "JOIN
	// INDEPENDENT" of SpinQL, shown in the paper translating to
	// "t1.p * t2.p".
	JoinIndependent JoinProb = iota
	// JoinLeft keeps the left tuple's probability (the right side acts as
	// a certain filter).
	JoinLeft
)

func (m JoinProb) String() string {
	switch m {
	case JoinIndependent:
		return "independent"
	case JoinLeft:
		return "left"
	}
	return "?"
}

// HashJoin is an inner equi-join on pairwise equality of the named key
// columns. The build side is the right input; the probe side the left.
//
// Out lists the output columns. nil means all: every left column, then
// every right column, named by relation.UniqueNames — a right name the
// left side already took becomes name_2, name_3, …, the same names the
// optimizer and PRA derive before the plan runs. The prune pass sets Out
// to the columns the join's consumer reads (late materialization: the
// join gathers only those, and reads both inputs' probabilities through
// its pair lists). A set list keeps the names the unpruned join gave its
// columns, so narrowing an input never renames a column above the join.
type HashJoin struct {
	ident
	L, R  Node
	LKeys []string
	RKeys []string
	PMode JoinProb
	Out   []JoinCol

	// auxKey keys the build side's index in the aux cache: the build
	// side's digest and its key columns.
	auxKey string
}

// JoinCol is one output column of a HashJoin: input column Col of the
// right side when Right, of the left side otherwise, named Name.
type JoinCol struct {
	Right bool
	Col   string
	Name  string
}

// NewHashJoin joins l and r on pairwise equality of the named key
// columns, keeping every column of both.
func NewHashJoin(l, r Node, lkeys, rkeys []string, mode JoinProb) *HashJoin {
	return newHashJoin(l, r, lkeys, rkeys, mode, nil)
}

// newHashJoin is NewHashJoin with the output list out; an empty list
// means all columns. A set list enters the digest, so a join without one
// keeps the digest it always had.
func newHashJoin(l, r Node, lkeys, rkeys []string, mode JoinProb, out []JoinCol) *HashJoin {
	h := newHasher("join")
	h.int(int(mode))
	h.strs(lkeys)
	h.strs(rkeys)
	if len(out) == 0 {
		out = nil
	} else {
		h.byte('o')
		h.int(len(out))
		for _, oc := range out {
			h.bool(oc.Right)
			h.str(oc.Col)
			h.str(oc.Name)
		}
	}
	j := &HashJoin{ident: h.finish(l, r), L: l, R: r, LKeys: lkeys, RKeys: rkeys, PMode: mode, Out: out}
	j.auxKey = "hashidx|" + r.Fingerprint() + "|" + strings.Join(rkeys, "|")
	return j
}

// outCols returns the join's output list over inputs with column names l
// and r: Out when set, otherwise every column of both.
func (j *HashJoin) outCols(l, r []string) []JoinCol {
	if j.Out != nil {
		return j.Out
	}
	names := relation.UniqueNames(slices.Concat(l, r))
	var out []JoinCol
	for i, name := range names {
		if i < len(l) {
			out = append(out, JoinCol{Col: l[i], Name: name})
		} else {
			out = append(out, JoinCol{Right: true, Col: r[i-len(l)], Name: name})
		}
	}
	return out
}

// Execute implements Node.
func (j *HashJoin) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := j.index(c, ctx)
	if err != nil {
		return nil, err
	}
	return j.join(c, ctx, in)
}

// joinInputs is a join's executed inputs and the index over its right
// one. lKeys are the left key columns aligned with the build side's key
// domains (dict columns decoded or re-encoded; see dictkeys.go), rKeys
// the right ones.
type joinInputs struct {
	left, right  *relation.Relation
	idx          *joinIndex
	lKeys, rKeys []vector.Vector
}

// index executes both inputs, checks their key columns and indexes the
// right one.
func (j *HashJoin) index(c context.Context, ctx *Ctx) (*joinInputs, error) {
	if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return nil, fmt.Errorf("join wants matching non-empty key lists, got %v and %v", j.LKeys, j.RKeys)
	}
	left, right, err := ctx.execPair(c, j.L, j.R)
	if err != nil {
		return nil, err
	}
	lIdx, err := colPositions(left, j.LKeys)
	if err != nil {
		return nil, err
	}
	rIdx, err := colPositions(right, j.RKeys)
	if err != nil {
		return nil, err
	}
	for k := range lIdx {
		lk := left.Col(lIdx[k]).Vec.Kind()
		rk := right.Col(rIdx[k]).Vec.Kind()
		if lk != rk {
			return nil, fmt.Errorf("join key %s (%v) vs %s (%v): kind mismatch",
				left.Col(lIdx[k]).Name, lk, right.Col(rIdx[k]).Name, rk)
		}
	}
	idx, err := j.buildIndex(c, ctx, right, rIdx)
	if err != nil {
		return nil, err
	}
	rKeys := colVecs(right, rIdx)
	lKeys, err := alignProbeVecs(c, ctx, colVecs(left, lIdx), rKeys)
	if err != nil {
		return nil, err
	}
	return &joinInputs{left: left, right: right, idx: idx, lKeys: lKeys, rKeys: rKeys}, nil
}

// join probes in's index with every left row and gathers the output at
// the matched pairs.
func (j *HashJoin) join(c context.Context, ctx *Ctx, in *joinInputs) (*relation.Relation, error) {
	lSel, rSel, err := probePairs(c, ctx, in.idx, in.lKeys, in.rKeys, in.left.NumRows())
	if err != nil {
		return nil, err
	}
	return j.joinPairs(c, ctx, in.left, in.right, lSel, rSel)
}

// joinPairs gathers the output columns at the matched (left, right) row
// pairs and recombines their probabilities per PMode. It copies only the
// listed columns, and reads both inputs' probabilities through the pair
// lists instead of gathering them.
func (j *HashJoin) joinPairs(c context.Context, ctx *Ctx, left, right *relation.Relation, lSel, rSel []int) (*relation.Relation, error) {
	out := j.outCols(left.ColumnNames(), right.ColumnNames())
	if len(out) == 0 {
		return nil, fmt.Errorf("join produced zero columns")
	}
	side := func(oc JoinCol) (*relation.Relation, []int) {
		if oc.Right {
			return right, rSel
		}
		return left, lSel
	}
	// Budget the output before any of it is allocated: the probability
	// column plus each kept column's width, per pair.
	perRow := int64(8)
	for _, oc := range out {
		in, _ := side(oc)
		k := in.ColIndex(oc.Col)
		if k < 0 {
			return nil, fmt.Errorf("join output %s: no column %q (have %s)", oc.Name, oc.Col, strings.Join(in.ColumnNames(), ", "))
		}
		perRow += in.ApproxColBytes(k)
	}
	n := len(lSel)
	if err := ctx.charge(c, perRow*int64(n)); err != nil {
		return nil, err
	}
	cols := make([]relation.Column, len(out))
	srcs := make([]vector.Vector, len(out))
	for i, oc := range out {
		in, _ := side(oc)
		srcs[i] = in.Col(in.ColIndex(oc.Col)).Vec
		cols[i] = relation.Column{Name: oc.Name, Vec: srcs[i].NewSized(n)}
	}
	// Every output row writes only its own slots, so morsels fill
	// disjoint ranges of the pre-sized columns.
	lp, rp := left.Prob(), right.Prob()
	prob := make([]float64, n)
	ctx.parallelRanges(c, n, func(lo, hi int) {
		for i, oc := range out {
			_, sel := side(oc)
			srcs[i].GatherRangeInto(cols[i].Vec, sel, lo, hi, 0)
		}
		switch j.PMode {
		case JoinIndependent:
			for i := lo; i < hi; i++ {
				prob[i] = lp[lSel[i]] * rp[rSel[i]]
			}
		case JoinLeft:
			for i := lo; i < hi; i++ {
				prob[i] = lp[lSel[i]]
			}
		}
	})
	return relation.FromColumns(cols, prob)
}

// probePairs probes the index with probeVecs and returns matching
// (probe, build) row pairs, ordered by ascending probe row with build rows
// ascending within each probe row.
func probePairs(c context.Context, ctx *Ctx, idx *joinIndex, probeVecs, buildVecs []vector.Vector, probeRows int) ([]int, []int, error) {
	// probe appends the pairs of probe rows [lo, hi) to pp and bp. A dense
	// index reads the probe key's slot; a hashed one hashes the probe keys
	// with the index's seed and checks every bucket row's key.
	var probe func(lo, hi int, pp, bp []int) ([]int, []int)
	if d := idx.dense; d != nil {
		codes, ints, err := denseProbeKey(c, ctx, probeVecs[0])
		if err != nil {
			return nil, nil, err
		}
		probe = func(lo, hi int, pp, bp []int) ([]int, []int) {
			if codes != nil {
				return probeDense(c, d, codes, lo, hi, pp, bp)
			}
			return probeDense(c, d, ints, lo, hi, pp, bp)
		}
	} else {
		pHash, err := hashVecsParallel(c, ctx, probeVecs, probeRows, idx.seed)
		if err != nil {
			return nil, nil, err
		}
		probe = func(lo, hi int, pp, bp []int) ([]int, []int) {
			for i := lo; i < hi; i++ {
				// The probe is the join's longest loop; check cancellation
				// every few thousand rows so even a single-morsel (serial)
				// probe stops promptly. Partial parts are discarded below.
				if i&0x1fff == 0x1fff && c.Err() != nil {
					break
				}
				for _, bi := range idx.buckets.lookup(pHash[i]) {
					if vecsEqual(probeVecs, i, buildVecs, int(bi)) {
						pp = append(pp, i)
						bp = append(bp, int(bi))
					}
				}
			}
			return pp, bp
		}
	}

	// Probe in parallel: each morsel of probe rows collects its matches
	// into its own pair lists, merged in morsel order below — the same
	// output order the serial loop produces. A dense index counts each
	// morsel's pairs before it appends (probeDense); a hashed probe starts
	// with one slot per probe row, since many-to-one joins (foreign key →
	// dictionary) are the common case. The per-morsel lists are all
	// retained until the merge below; budget one slot per probe row before
	// any worker allocates (16 bytes per probe row across the two lists).
	if err := ctx.charge(c, int64(probeRows)*16); err != nil {
		return nil, nil, err
	}
	ranges := ctx.morselRanges(probeRows)
	pParts := make([][]int, len(ranges))
	bParts := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		var pp, bp []int
		if idx.dense == nil {
			pp, bp = make([]int, 0, hi-lo), make([]int, 0, hi-lo)
		}
		pParts[m], bParts[m] = probe(lo, hi, pp, bp)
	})
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	total := 0
	for _, p := range pParts {
		total += len(p)
	}
	// The merged pair lists are the join's cross-product risk: a skewed
	// key can explode total far past either input, so budget them before
	// allocation (16 bytes per pair across the two lists).
	if err := ctx.charge(c, int64(total)*16); err != nil {
		return nil, nil, err
	}
	if len(pParts) == 1 {
		// One morsel: its lists already are the result.
		return pParts[0], bParts[0], nil
	}
	pSel := make([]int, 0, total)
	bSel := make([]int, 0, total)
	for m := range pParts {
		pSel = append(pSel, pParts[m]...)
		bSel = append(bSel, bParts[m]...)
	}
	return pSel, bSel, nil
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node. A set output list is shown as its source
// columns, l. or r. by side, each with " as name" where the join renames
// it.
func (j *HashJoin) Label() string {
	var b strings.Builder
	fmt.Fprintf(&b, "HashJoin[%s] %s=%s", j.PMode, strings.Join(j.LKeys, "|"), strings.Join(j.RKeys, "|"))
	if j.Out == nil {
		return b.String()
	}
	b.WriteString(" out(")
	for i, oc := range j.Out {
		if i > 0 {
			b.WriteString(", ")
		}
		if oc.Right {
			b.WriteString("r.")
		} else {
			b.WriteString("l.")
		}
		b.WriteString(oc.Col)
		if oc.Name != oc.Col {
			b.WriteString(" as " + oc.Name)
		}
	}
	b.WriteString(")")
	return b.String()
}

// joinIndex is a reusable index over the build side of an equi-join.
// For materialized (cached) build sides — the on-demand index tables of
// section 2.1 — the index is built once and reused by every later query,
// which is what makes "hot" query latencies possible: probing costs only
// the matching postings, as in Figure 1's term look-up. A single key
// column with a narrow domain is indexed directly by value (dense, see
// dense.go); any other key is hashed into a bucket table partitioned by
// low hash bits, so the build itself runs on all workers (hashing and
// partition merging are both morsel-parallel).
type joinIndex struct {
	seed    maphash.Seed
	buckets *bucketIndex       // hashed path
	dense   *denseIndex        // direct-addressed path; nil when hashed
	rel     *relation.Relation // identity check: index is valid for this exact relation
}

// EstimatedBytes implements catalog.Sized: cached join indexes count
// toward (and are evictable under) the cache's byte budget. The build-side
// relation is not counted — it is cached, and weighed, separately.
func (ix *joinIndex) EstimatedBytes() int64 {
	if ix.dense != nil {
		return ix.dense.EstimatedBytes()
	}
	return ix.buckets.EstimatedBytes()
}

// newJoinIndex indexes n build rows on the key vectors: directly when one
// key column's domain fits denseJoinSlots, hashed otherwise.
func newJoinIndex(c context.Context, ctx *Ctx, keys []vector.Vector, n int) (*joinIndex, error) {
	if err := checkBuildRows(n); err != nil {
		return nil, err
	}
	if len(keys) == 1 {
		dom, ok, err := denseDomainOf(c, keys[0], denseJoinSlots(n))
		if err != nil {
			return nil, err
		}
		if ok {
			d, err := buildDenseIndex(c, ctx, keys[0], dom)
			if err != nil {
				return nil, err
			}
			return &joinIndex{dense: d}, nil
		}
	}
	return hashJoinIndex(c, ctx, keys, n)
}

// hashJoinIndex is newJoinIndex's hashed path: the build side's own key
// vectors define the hash domain — a dict-encoded column hashes codes, a
// plain one strings. Probes align to it (alignProbeVecs), so the index
// stays valid for probes of either representation.
func hashJoinIndex(c context.Context, ctx *Ctx, keys []vector.Vector, n int) (*joinIndex, error) {
	idx := &joinIndex{seed: maphash.MakeSeed()}
	sHash, err := hashVecsParallel(c, ctx, keys, n, idx.seed)
	if err != nil {
		return nil, err
	}
	if idx.buckets, err = buildBuckets(c, ctx, sHash); err != nil {
		return nil, err
	}
	return idx, nil
}

// buildIndex indexes the build (right) side's key columns, sharing the
// index through the aux cache when that side is a materialized sub-plan.
func (j *HashJoin) buildIndex(c context.Context, ctx *Ctx, side *relation.Relation, keyIdx []int) (*joinIndex, error) {
	build := func(bc context.Context) (*joinIndex, error) {
		idx, err := newJoinIndex(bc, ctx, colVecs(side, keyIdx), side.NumRows())
		if err != nil {
			return nil, err
		}
		if err := bc.Err(); err != nil {
			// Belt and braces: an index assembled under a cancelled
			// context (partial hashes, partitions or slot counts) must
			// never reach the aux cache, where it would poison every
			// later query.
			return nil, err
		}
		idx.rel = side
		return idx, nil
	}
	cacheable := ctx.UseCache && ctx.Cat != nil && isMaterialize(j.R)
	if !cacheable {
		return build(c)
	}
	// Single-flight the index build: concurrent joins probing the same
	// materialized build side wait for one index instead of each building
	// their own (the on-demand index tables of section 2.1).
	for try := 0; try < 2; try++ {
		v, _, err := ctx.Cat.Cache().GetOrComputeAuxDeps(c, j.auxKey, j.R.identity().scans, func(bc context.Context) (any, error) {
			return build(bc)
		})
		if err != nil {
			return nil, err
		}
		idx, ok := v.(*joinIndex)
		if ok && idx.rel == side {
			return idx, nil
		}
		// The cached index belongs to a stale relation (base data was
		// replaced mid-flight). Drop it and rebuild once; if it is still
		// stale after that — two queries racing over different snapshots —
		// fall through to a private, unshared build.
		ctx.Cat.Cache().DropAux(j.auxKey)
	}
	return build(c)
}

func colPositions(r *relation.Relation, names []string) ([]int, error) {
	out := make([]int, len(names)) //lint:allow chargedalloc O(#key columns) position lookup, plan-shaped
	for i, n := range names {
		idx := r.ColIndex(n)
		if idx < 0 {
			return nil, fmt.Errorf("no column %q (have %s)", n, strings.Join(r.ColumnNames(), ", "))
		}
		out[i] = idx
	}
	return out, nil
}
