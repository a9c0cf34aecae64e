package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// denseFamily is one key family of the direct-addressed key suite: a
// build side B(k, w) and a probe side P(k, v) whose k columns take the
// representation under test, and which path each side's key must take.
type denseFamily struct {
	name      string
	build     *relation.Relation
	probe     *relation.Relation
	denseJoin bool // B.k is indexed directly
	denseProb bool // P.k is grouped directly
}

// denseKeyRel builds an n-row relation whose first column k holds key,
// with an int payload column and random probabilities.
func denseKeyRel(r *rand.Rand, key vector.Vector, payload string) *relation.Relation {
	n := key.Len()
	vals := make([]int64, n)
	prob := make([]float64, n)
	for i := range vals {
		vals[i] = int64(r.Intn(1000))
		prob[i] = 0.05 + 0.9*r.Float64()
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: key},
		{Name: payload, Vec: vector.FromInt64s(vals)},
	}, prob)
}

// randInts draws n ints uniformly from [lo, hi].
func randInts(r *rand.Rand, n int, lo, hi int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + r.Int63n(hi-lo+1)
	}
	return out
}

// keyStrings names the ints as strings, so dict families share the int
// families' key distribution.
func keyStrings(ks []int64) []string {
	out := make([]string, len(ks))
	for i, k := range ks {
		out[i] = fmt.Sprintf("key%06d", k)
	}
	return out
}

func denseFamilies(t *testing.T, r *rand.Rand) []denseFamily {
	const nBuild, nProbe, dom = 5000, 9000, 1500
	bInts := randInts(r, nBuild, -dom, dom)
	pInts := randInts(r, nProbe, -dom, dom)
	bStrs, pStrs := vector.FromStrings(keyStrings(bInts)), vector.FromStrings(keyStrings(pInts))

	shared, err := relation.EncodeStringsShared([]*relation.Relation{
		relation.MustFromColumns([]relation.Column{{Name: "k", Vec: bStrs}}, nil),
		relation.MustFromColumns([]relation.Column{{Name: "k", Vec: pStrs}}, nil),
	}, [][]string{{"k"}, {"k"}})
	if err != nil {
		t.Fatal(err)
	}
	bShared, pShared := shared[0].Col(0).Vec, shared[1].Col(0).Vec
	pForeign := vector.EncodeStrings(pStrs) // its own dict: the probe re-encodes
	bOwn := vector.EncodeStrings(bStrs)

	extremes := func(n int) []int64 {
		ks := randInts(r, n, -dom, dom)
		ks[n/3], ks[2*n/3] = math.MinInt64, math.MaxInt64
		return ks
	}
	return []denseFamily{
		{"dict-same", denseKeyRel(r, bShared, "w"), denseKeyRel(r, pShared, "v"), true, true},
		{"dict-foreign", denseKeyRel(r, bOwn, "w"), denseKeyRel(r, pForeign, "v"), true, true},
		{"dict-plain", denseKeyRel(r, bOwn, "w"), denseKeyRel(r, pStrs, "v"), true, false},
		{"dict-const", denseKeyRel(r, bOwn, "w"), denseKeyRel(r, vector.ConstString(bStrs.Values()[7], nProbe), "v"), true, false},
		{"int-negative", denseKeyRel(r, vector.FromInt64s(bInts), "w"), denseKeyRel(r, vector.FromInt64s(pInts), "v"), true, true},
		{"int-outside", denseKeyRel(r, vector.FromInt64s(bInts), "w"),
			denseKeyRel(r, vector.FromInt64s(randInts(r, nProbe, -4*dom, 4*dom)), "v"), true, true},
		{"int-const", denseKeyRel(r, vector.FromInt64s(bInts), "w"), denseKeyRel(r, vector.ConstInt64(bInts[3], nProbe), "v"), true, false},
		{"int-overflow", denseKeyRel(r, vector.FromInt64s(extremes(nBuild)), "w"),
			denseKeyRel(r, vector.FromInt64s(extremes(nProbe)), "v"), false, false},
	}
}

// isDense reports whether key takes the direct-addressed path under the
// operator's slot limit.
func isDense(t *testing.T, key vector.Vector, maxSlots int) bool {
	t.Helper()
	_, ok, err := denseDomainOf(context.Background(), key, maxSlots)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

// keyFamilies are the two key scales the operator suites run over: keys
// dense enough to index and group by value, and the same keys spread by
// 2^40 so they hash.
var keyFamilies = []struct {
	name  string
	scale int64
	dense bool
}{{"dense", 1, true}, {"sparse", sparseScale, false}}

const sparseScale = 1 << 40

// assertKeyPath fails unless the key column k of rel takes the expected
// path under the operator's slot limit (denseJoinSlots or
// denseGroupSlots), so a change to the rule cannot quietly drop a case
// onto the other path.
func assertKeyPath(t *testing.T, rel *relation.Relation, col string, limit func(int) int, dense bool) {
	t.Helper()
	key, err := rel.ColByName(col)
	if err != nil {
		t.Fatal(err)
	}
	if got := isDense(t, key.Vec, limit(rel.NumRows())); got != dense {
		t.Fatalf("key %s dense = %v, want %v", col, got, dense)
	}
}

// keyOnly projects a relation to its key column k, keeping probabilities.
func keyOnly(r *relation.Relation) *relation.Relation {
	return relation.MustFromColumns(r.Columns()[:1], r.Prob())
}

// hashedRef computes each operator through the hashed builders
// (hashJoinIndex, hashGroupRows) at parallelism 1: the reference the
// direct-addressed operators must match bit for bit.
func hashedRef(t *testing.T, op string, b, p *relation.Relation) *relation.Relation {
	t.Helper()
	c, ctx := context.Background(), &Ctx{Parallelism: 1}
	var out *relation.Relation
	var err error
	group := func(in *relation.Relation, gIdx []int) ([]int, []int) {
		groupOf, firstRow, gerr := hashGroupRows(c, ctx, in, gIdx)
		if gerr != nil {
			t.Fatal(gerr)
		}
		return groupOf, firstRow
	}
	switch op {
	case "join":
		bKeys := colVecs(b, []int{0})
		idx, ierr := hashJoinIndex(c, ctx, bKeys, b.NumRows())
		if ierr != nil {
			t.Fatal(ierr)
		}
		aligned, aerr := alignProbeVecs(c, ctx, colVecs(p, []int{0}), bKeys)
		if aerr != nil {
			t.Fatal(aerr)
		}
		lSel, rSel, perr := probePairs(c, ctx, idx, aligned, bKeys, p.NumRows())
		if perr != nil {
			t.Fatal(perr)
		}
		out, err = denseJoinPlan().(*HashJoin).joinPairs(c, ctx, p, b, lSel, rSel)
	case "subtract":
		l, r := keyOnly(p), keyOnly(b)
		rKeys := colVecs(r, []int{0})
		idx, ierr := hashJoinIndex(c, ctx, rKeys, r.NumRows())
		if ierr != nil {
			t.Fatal(ierr)
		}
		aligned, aerr := alignProbeVecs(c, ctx, colVecs(l, []int{0}), rKeys)
		if aerr != nil {
			t.Fatal(aerr)
		}
		out, err = antiProbe(c, ctx, l, r, aligned, rKeys, idx, false)
	case "aggregate":
		groupOf, firstRow := group(p, []int{0})
		out, err = aggregateGroups(c, ctx, p, []int{0}, []string{"k"}, groupOf, firstRow, denseAggs, GroupIndependent)
	case "distinct":
		in := keyOnly(p)
		groupOf, firstRow := group(in, []int{0})
		out, err = aggregateGroups(c, ctx, in, []int{0}, []string{"k"}, groupOf, firstRow, nil, GroupDisjoint)
	case "unite":
		in, cerr := concatAll(c, ctx, []*relation.Relation{keyOnly(p), keyOnly(b)})
		if cerr != nil {
			t.Fatal(cerr)
		}
		groupOf, firstRow := group(in, []int{0})
		out, err = aggregateGroups(c, ctx, in, []int{0}, []string{"k"}, groupOf, firstRow, nil, GroupIndependent)
	case "normalize":
		groupOf, firstRow := group(p, []int{0})
		out, err = normalizeGroups(c, ctx, p, groupOf, len(firstRow), NormSum)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

var denseAggs = []AggSpec{
	{Op: CountAll, As: "n"},
	{Op: Sum, Col: "v", As: "sv"},
	{Op: Min, Col: "v", As: "minv"},
	{Op: SumProb, As: "sp"},
}

func denseJoinPlan() Node {
	return NewHashJoin(NewScan("P"), NewScan("B"), []string{"k"}, []string{"k"}, JoinIndependent)
}

// densePlans are the operators under test, over tables B and P and their
// key-only projections BK and PK.
func densePlans() map[string]Node {
	return map[string]Node{
		"join":      denseJoinPlan(),
		"subtract":  NewSubtract(NewScan("PK"), NewScan("BK"), false),
		"aggregate": NewAggregate(NewScan("P"), []string{"k"}, denseAggs, GroupIndependent),
		"distinct":  NewDistinct(NewScan("PK"), GroupDisjoint),
		"unite":     NewDistinct(NewUnion(NewScan("PK"), NewScan("BK")), GroupIndependent),
		"normalize": NewNormalize(NewScan("P"), []string{"k"}, NormSum),
	}
}

// TestDenseMatchesHashed runs join, Subtract, Aggregate, Distinct (alone
// and over a Union) and grouped Normalize over dict keys (probed from
// the same dict, a foreign dict, plain strings and a Const), ints with
// negative values, probes outside the build's [min, max], and a column
// holding both MinInt64 and MaxInt64, whose range overflows and must
// hash. At parallelism 1, 2 and 8 every result must equal the hashed
// builders' bit for bit, and the keys must take the expected path.
func TestDenseMatchesHashed(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for _, fam := range denseFamilies(t, r) {
		t.Run(fam.name, func(t *testing.T) {
			b, p := fam.build, fam.probe
			if got := isDense(t, b.Col(0).Vec, denseJoinSlots(b.NumRows())); got != fam.denseJoin {
				t.Fatalf("build key dense = %v, want %v", got, fam.denseJoin)
			}
			if got := isDense(t, p.Col(0).Vec, denseGroupSlots(p.NumRows())); got != fam.denseProb {
				t.Fatalf("probe key grouped dense = %v, want %v", got, fam.denseProb)
			}
			tables := map[string]*relation.Relation{"B": b, "P": p, "BK": keyOnly(b), "PK": keyOnly(p)}
			for op, plan := range densePlans() {
				if _, isConst := p.Col(0).Vec.(*vector.Const); isConst && op != "join" && op != "subtract" {
					continue // a Const key is a probe-side case
				}
				want := hashedRef(t, op, b, p)
				if want.NumRows() == 0 {
					t.Fatalf("%s: degenerate case, no rows", op)
				}
				for _, par := range []int{1, 2, 8} {
					got, err := ctxAt(par, tables).Exec(context.Background(), plan)
					if err != nil {
						t.Fatalf("%s par=%d: %v", op, par, err)
					}
					mustEqualRelations(t, fmt.Sprintf("%s par=%d", op, par), got, want)
				}
			}
		})
	}
}

// TestDenseIndexNoLarger pins the join path rule: wherever a build key is
// indexed directly, the dense index weighs no more than the hashed index
// over the same build side — for the suite's families and at the edge of
// the rule, a key spanning exactly denseJoinSlots(n) values.
func TestDenseIndexNoLarger(t *testing.T) {
	r := rand.New(rand.NewSource(37))
	var keys []vector.Vector
	for _, fam := range denseFamilies(t, r) {
		keys = append(keys, fam.build.Col(0).Vec)
	}
	for _, n := range []int{1, 2, 7, 100, 3000, 2*minMorsel + 5} {
		ks := randInts(r, n, 0, int64(denseJoinSlots(n)-1))
		ks[0], ks[n-1] = 0, int64(denseJoinSlots(n)-1)
		keys = append(keys, vector.FromInt64s(ks))
		if wide := isDense(t, vector.FromInt64s([]int64{0, int64(denseJoinSlots(n))}), denseJoinSlots(n)); wide {
			t.Fatalf("n=%d: a key one slot past the rule takes the dense path", n)
		}
	}
	for _, key := range keys {
		n := key.Len()
		for _, par := range []int{1, 2, 8} {
			ctx := &Ctx{Parallelism: par}
			idx, err := newJoinIndex(context.Background(), ctx, []vector.Vector{key}, n)
			if err != nil {
				t.Fatal(err)
			}
			if idx.dense == nil {
				continue
			}
			hashed, err := hashJoinIndex(context.Background(), ctx, []vector.Vector{key}, n)
			if err != nil {
				t.Fatal(err)
			}
			if d, h := idx.EstimatedBytes(), hashed.EstimatedBytes(); d > h {
				t.Fatalf("n=%d par=%d: dense index %d B > hashed %d B", n, par, d, h)
			}
		}
	}
}

// TestDenseDomainBounds pins the slot arithmetic at the int64 edges: the
// full range overflows max − min + 1 and is rejected at any limit, a
// narrow range at either end is accepted, and probes past either end of
// a domain — by any distance — miss.
func TestDenseDomainBounds(t *testing.T) {
	c := context.Background()
	for _, tc := range []struct {
		vals  []int64
		ok    bool
		slots int
	}{
		{[]int64{math.MinInt64, math.MaxInt64}, false, 0},
		{[]int64{math.MinInt64, 0}, false, 0},
		{[]int64{math.MinInt64 + 3, math.MinInt64}, true, 4},
		{[]int64{math.MaxInt64, math.MaxInt64 - 9}, true, 10},
		{[]int64{-5, 5}, true, 11},
		{nil, true, 0},
	} {
		dom, ok, err := denseDomainOf(c, vector.FromInt64s(tc.vals), math.MaxInt32)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.ok || (ok && dom.slots != tc.slots) {
			t.Fatalf("%v: ok=%v slots=%d, want ok=%v slots=%d", tc.vals, ok, dom.slots, tc.ok, tc.slots)
		}
		if !ok {
			continue
		}
		d, err := buildDenseIndex(c, &Ctx{}, vector.FromInt64s(tc.vals), dom)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range tc.vals {
			if rows := d.lookup(uint64(v)); len(rows) != 1 || int(rows[0]) != i {
				t.Fatalf("%v: lookup(%d) = %v, want [%d]", tc.vals, v, rows, i)
			}
		}
		for _, v := range []int64{math.MinInt64, math.MaxInt64, -6, 6, 0, -1} {
			in := false
			for _, x := range tc.vals {
				in = in || x == v
			}
			if rows := d.lookup(uint64(v)); !in && len(rows) != 0 {
				t.Fatalf("%v: lookup(%d) = %v, want no rows", tc.vals, v, rows)
			}
		}
	}
}
