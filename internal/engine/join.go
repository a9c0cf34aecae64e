package engine

import (
	"context"
	"fmt"
	"hash/maphash"
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
	// JoinRight keeps the right tuple's probability.
	JoinRight
)

func (m JoinProb) String() string {
	switch m {
	case JoinIndependent:
		return "independent"
	case JoinLeft:
		return "left"
	case JoinRight:
		return "right"
	}
	return "?"
}

// HashJoin is an inner equi-join. The build side is the right input; the
// probe side the left. Output columns are all left columns followed by all
// right columns, with clashing right names deduplicated by a numeric
// suffix (positional access, as used by SpinQL's $n, is unaffected).
//
// Keys are given either by name (LKeys/RKeys) or by 0-based position
// (LPos/RPos), the latter serving SpinQL's positional join conditions
// such as JOIN INDEPENDENT [$1=$1].
type HashJoin struct {
	ident
	L, R  Node
	LKeys []string
	RKeys []string
	LPos  []int
	RPos  []int
	PMode JoinProb

	// auxKey keys the build side's index in the aux cache: the build
	// side's digest and its key spec.
	auxKey string
}

// NewHashJoin joins l and r on pairwise equality of the named key columns.
func NewHashJoin(l, r Node, lkeys, rkeys []string, mode JoinProb) *HashJoin {
	return newHashJoin(l, r, lkeys, rkeys, nil, nil, mode)
}

// NewHashJoinPos joins l and r on pairwise equality of 0-based column
// positions.
func NewHashJoinPos(l, r Node, lpos, rpos []int, mode JoinProb) *HashJoin {
	return newHashJoin(l, r, nil, nil, lpos, rpos, mode)
}

func newHashJoin(l, r Node, lkeys, rkeys []string, lpos, rpos []int, mode JoinProb) *HashJoin {
	h := newHasher("join")
	h.int(int(mode))
	h.strs(lkeys)
	h.strs(rkeys)
	h.ints(lpos)
	h.ints(rpos)
	j := &HashJoin{ident: h.finish(l, r), L: l, R: r, LKeys: lkeys, RKeys: rkeys, LPos: lpos, RPos: rpos, PMode: mode}
	j.auxKey = "hashidx|" + r.Fingerprint() + "|" + j.rKeySpec()
	return j
}

func (j *HashJoin) positional() bool { return len(j.LPos) > 0 }

// Execute implements Node.
func (j *HashJoin) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	if j.positional() {
		if len(j.LPos) != len(j.RPos) {
			return nil, fmt.Errorf("join wants matching positional key lists, got %v and %v", j.LPos, j.RPos)
		}
	} else if len(j.LKeys) == 0 || len(j.LKeys) != len(j.RKeys) {
		return nil, fmt.Errorf("join wants matching non-empty key lists, got %v and %v", j.LKeys, j.RKeys)
	}
	left, right, err := ctx.execPair(c, j.L, j.R)
	if err != nil {
		return nil, err
	}
	var lIdx, rIdx []int
	if j.positional() {
		if lIdx, err = checkPositions(left, j.LPos); err != nil {
			return nil, err
		}
		if rIdx, err = checkPositions(right, j.RPos); err != nil {
			return nil, err
		}
	} else {
		if lIdx, err = colPositions(left, j.LKeys); err != nil {
			return nil, err
		}
		if rIdx, err = colPositions(right, j.RKeys); err != nil {
			return nil, err
		}
	}
	for k := range lIdx {
		lk := left.Col(lIdx[k]).Vec.Kind()
		rk := right.Col(rIdx[k]).Vec.Kind()
		if lk != rk {
			return nil, fmt.Errorf("join key %s (%v) vs %s (%v): kind mismatch",
				left.Col(lIdx[k]).Name, lk, right.Col(rIdx[k]).Name, rk)
		}
	}

	lSel, rSel, err := j.match(c, ctx, left, right, lIdx, rIdx)
	if err != nil {
		return nil, err
	}
	// Budget the output probability column as soon as the pair count is
	// known (the gathered columns charge themselves in gatherParallel).
	if err := ctx.charge(c, int64(len(lSel))*8); err != nil {
		return nil, err
	}

	lOut, err := gatherParallel(c, ctx, left, lSel)
	if err != nil {
		return nil, err
	}
	rOut, err := gatherParallel(c, ctx, right, rSel)
	if err != nil {
		return nil, err
	}
	names := make(map[string]bool, lOut.NumCols()+rOut.NumCols())
	cols := make([]relation.Column, 0, lOut.NumCols()+rOut.NumCols())
	for _, c := range lOut.Columns() {
		names[c.Name] = true
		cols = append(cols, c)
	}
	for _, c := range rOut.Columns() {
		name := c.Name
		for i := 2; names[name]; i++ {
			name = fmt.Sprintf("%s_%d", c.Name, i)
		}
		names[name] = true
		cols = append(cols, relation.Column{Name: name, Vec: c.Vec})
	}
	// Probability recombination is embarrassingly parallel: every output
	// row writes only its own slot.
	lp, rp := lOut.Prob(), rOut.Prob()
	prob := make([]float64, len(lSel))
	ctx.parallelRanges(c, len(prob), func(lo, hi int) {
		switch j.PMode {
		case JoinIndependent:
			for i := lo; i < hi; i++ {
				prob[i] = lp[i] * rp[i]
			}
		case JoinLeft:
			copy(prob[lo:hi], lp[lo:hi])
		case JoinRight:
			copy(prob[lo:hi], rp[lo:hi])
		}
	})
	if len(cols) == 0 {
		return nil, fmt.Errorf("join produced zero columns")
	}
	return relation.FromColumns(cols, prob)
}

// match builds the hash table over the right input and probes it with left
// rows. Pairs come out in the canonical order — ascending left row, ties in
// ascending right row (bucket segments store build rows ascending).
func (j *HashJoin) match(c context.Context, ctx *Ctx, left, right *relation.Relation, lIdx, rIdx []int) ([]int, []int, error) {
	idx, err := j.buildIndex(c, ctx, right, rIdx)
	if err != nil {
		return nil, nil, err
	}
	// Align the probe keys with the build side's hash domains (decode or
	// re-encode dict columns as needed; see dictkeys.go), then hash the
	// aligned vectors with the index's seed.
	rKeyVecs := colVecs(right, rIdx)
	lKeyVecs := alignProbeVecs(colVecs(left, lIdx), rKeyVecs)
	return probePairs(c, ctx, idx, lKeyVecs, rKeyVecs, left.NumRows())
}

// probePairs probes the index with probeVecs and returns matching
// (probe, build) row pairs, ordered by ascending probe row with build rows
// ascending within each probe row.
func probePairs(c context.Context, ctx *Ctx, idx *joinIndex, probeVecs, buildVecs []vector.Vector, probeRows int) ([]int, []int, error) {
	pHash, err := hashVecsParallel(c, ctx, probeVecs, probeRows, idx.seed)
	if err != nil {
		return nil, nil, err
	}

	// Probe in parallel: each morsel of probe rows collects its matches
	// into its own pair lists, merged in morsel order below — the same
	// output order the serial loop produces. Many-to-one joins (foreign
	// key → dictionary) are the common case; start with one output row per
	// probe row.
	// The per-morsel pair lists start at one slot per probe row and are
	// all retained until the merge below; budget that floor before any
	// worker allocates (16 bytes per probe row across the two lists).
	if err := ctx.charge(c, int64(probeRows)*16); err != nil {
		return nil, nil, err
	}
	ranges := ctx.morselRanges(len(pHash))
	pParts := make([][]int, len(ranges))
	bParts := make([][]int, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		pp := make([]int, 0, hi-lo)
		bp := make([]int, 0, hi-lo)
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
		pParts[m], bParts[m] = pp, bp
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
	pSel := make([]int, 0, total)
	bSel := make([]int, 0, total)
	for m := range pParts {
		pSel = append(pSel, pParts[m]...)
		bSel = append(bSel, bParts[m]...)
	}
	return pSel, bSel, nil
}

func (j *HashJoin) lKeySpec() string {
	if j.positional() {
		return fmt.Sprintf("#%v", j.LPos)
	}
	return strings.Join(j.LKeys, "|")
}

func (j *HashJoin) rKeySpec() string {
	if j.positional() {
		return fmt.Sprintf("#%v", j.RPos)
	}
	return strings.Join(j.RKeys, "|")
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *HashJoin) Label() string {
	return fmt.Sprintf("HashJoin[%s] %s=%s", j.PMode, j.lKeySpec(), j.rKeySpec())
}

func checkPositions(r *relation.Relation, pos []int) ([]int, error) {
	for _, p := range pos {
		if p < 0 || p >= r.NumCols() {
			return nil, fmt.Errorf("join key position %d out of range (relation has %d columns)", p+1, r.NumCols())
		}
	}
	return pos, nil
}

// joinIndex is a reusable hash table over the build side of an equi-join.
// For materialized (cached) build sides — the on-demand index tables of
// section 2.1 — the index is built once and reused by every later query,
// which is what makes "hot" query latencies possible: probing costs only
// the matching postings, as in Figure 1's term look-up. The bucket table
// is partitioned by low hash bits so the build itself runs on all workers
// (hashing and partition merging are both morsel-parallel).
type joinIndex struct {
	seed    maphash.Seed
	buckets *bucketIndex
	rel     *relation.Relation // identity check: index is valid for this exact relation
}

// EstimatedBytes implements catalog.Sized: cached join indexes count
// toward (and are evictable under) the cache's byte budget. The build-side
// relation is not counted — it is cached, and weighed, separately.
func (ix *joinIndex) EstimatedBytes() int64 { return ix.buckets.EstimatedBytes() }

// buildIndex hashes the build (right) side's key columns, sharing the
// index through the aux cache when that side is a materialized sub-plan.
func (j *HashJoin) buildIndex(c context.Context, ctx *Ctx, side *relation.Relation, keyIdx []int) (*joinIndex, error) {
	build := func(bc context.Context) (*joinIndex, error) {
		idx := &joinIndex{seed: maphash.MakeSeed(), rel: side}
		// The build side's own key vectors define the hash domain: a
		// dict-encoded column hashes codes, a plain one hashes strings.
		// Probes align to it (alignProbeVecs), so the index stays valid
		// for probes of either representation.
		sHash, err := hashVecsParallel(bc, ctx, colVecs(side, keyIdx), side.NumRows(), idx.seed)
		if err != nil {
			return nil, err
		}
		buckets, err := buildBuckets(bc, ctx, sHash)
		if err != nil {
			return nil, err
		}
		if err := bc.Err(); err != nil {
			// Belt and braces: an index assembled under a cancelled
			// context (partial hashes or partitions) must never reach the
			// aux cache, where it would poison every later query.
			return nil, err
		}
		idx.buckets = buckets
		return idx, nil
	}
	cacheable := ctx.UseCache && ctx.Cat != nil && (ctx.CacheAll || isMaterialize(j.R))
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
