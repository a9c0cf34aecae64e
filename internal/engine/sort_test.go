package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"irdb/internal/memory"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// nullishRel builds a relation whose string key column mixes empty strings
// (the engine's NULL-like value) with a tiny domain of real values, so the
// merge's tie-break has to order many equal — and many empty — keys.
func nullishRel(r *rand.Rand, n int) *relation.Relation {
	a := make([]string, n)
	x := make([]int64, n)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		if r.Intn(3) == 0 {
			a[i] = "" // NULL-like
		} else {
			a[i] = fmt.Sprintf("v%d", r.Intn(4))
		}
		x[i] = int64(r.Intn(7))
		p[i] = float64(r.Intn(3)) / 2
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "a", Vec: vector.FromStrings(a)},
		{Name: "x", Vec: vector.FromInt64s(x)},
	}, p)
}

// allEqualRel builds a relation whose sort keys are identical on every row,
// the degenerate case where the merge output must be exactly the identity
// permutation (stable sort of all-equal keys changes nothing).
func allEqualRel(n int) *relation.Relation {
	a := make([]string, n)
	p := make([]float64, n)
	for i := range a {
		a[i] = "same"
		p[i] = 0.5
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "a", Vec: vector.FromStrings(a)},
	}, p)
}

// TestSortSelMatchesSliceStable is the property test for the parallel
// merge sort: over duplicate-heavy, NULL-like-empty-string and all-equal
// inputs, sortSel at parallelism 1, 2 and 8 must reproduce the serial
// sort.SliceStable permutation (relation.SortedSel) exactly — same rows,
// same order, including the stable handling of ties.
func TestSortSelMatchesSliceStable(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	sizes := []int{0, 100, 2*minMorsel + 123, 30000}
	type input struct {
		name string
		rel  func(n int) *relation.Relation
		keys [][]relation.SortKey
	}
	inputs := []input{
		{
			name: "duplicate-keys",
			rel:  func(n int) *relation.Relation { return dupRel(r, n) },
			keys: [][]relation.SortKey{
				{{Col: 0}, {Col: 1, Desc: true}},
				{{Col: relation.ProbCol, Desc: true}, {Col: 0}},
				{{Col: 1}},
			},
		},
		{
			name: "empty-strings",
			rel:  func(n int) *relation.Relation { return nullishRel(r, n) },
			keys: [][]relation.SortKey{
				{{Col: 0}},
				{{Col: 0, Desc: true}, {Col: 1}},
				{{Col: relation.ProbCol}, {Col: 0, Desc: true}},
			},
		},
		{
			name: "all-equal",
			rel:  func(n int) *relation.Relation { return allEqualRel(n) },
			keys: [][]relation.SortKey{
				{{Col: 0}},
				{{Col: 0, Desc: true}, {Col: relation.ProbCol}},
			},
		},
	}
	for _, in := range inputs {
		for _, rows := range sizes {
			rel := in.rel(rows)
			for ki, keys := range in.keys {
				want := rel.SortedSel(keys)
				for _, par := range []int{1, 2, 8} {
					got, err := sortSel(context.Background(), &Ctx{Parallelism: par}, rel, keys)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != len(want) {
						t.Fatalf("%s rows=%d keys=%d par=%d: len = %d, want %d",
							in.name, rows, ki, par, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s rows=%d keys=%d par=%d: position %d = row %d, want %d",
								in.name, rows, ki, par, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestSortNodeEquivalenceEmptyStrings runs the full Sort operator — not
// just the permutation — over the NULL-like input at parallelism 1, 2 and
// 8 and demands bit-identical relations, covering the parallel gather of
// the merged permutation too.
func TestSortNodeEquivalenceEmptyStrings(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	tables := map[string]*relation.Relation{"N": nullishRel(r, 2*minMorsel+517)}
	plan := NewSort(NewScan("N"), SortSpec{Col: "a"}, SortSpec{Col: "x", Desc: true}, SortSpec{Col: "", Desc: true})
	var want *relation.Relation
	for _, par := range []int{1, 2, 8} {
		got, err := ctxAt(par, tables).Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if want == nil {
			want = got
			continue
		}
		mustEqualRel(t, want, got, fmt.Sprintf("parallelism %d", par))
	}
}

// TestAggRangesDecompositionIsParallelismFree pins the determinism
// contract of chunked aggregation: the chunk boundaries depend only on the
// row count and group count, cover [0, n) exactly, and never explode the
// dense-partial footprint for near-distinct groupings.
func TestAggRangesDecompositionIsParallelismFree(t *testing.T) {
	for _, n := range []int{0, 1, aggChunk, 2*aggChunk + 3, 400000} {
		for _, nGroups := range []int{1, 16, n/2 + 1, n + 1} {
			ranges := aggRanges(n, nGroups)
			last := 0
			for _, rg := range ranges {
				if rg[0] != last {
					t.Fatalf("n=%d groups=%d: gap before %d", n, nGroups, rg[0])
				}
				last = rg[1]
			}
			if last != n {
				t.Fatalf("n=%d groups=%d: ranges end at %d", n, nGroups, last)
			}
			if len(ranges) > 1 && len(ranges)*nGroups > 8*n+nGroups {
				t.Fatalf("n=%d groups=%d: %d chunks would allocate %d dense slots",
					n, nGroups, len(ranges), len(ranges)*nGroups)
			}
		}
	}
}

// countingSortRel is an n-row relation whose columns take sortSel's
// counting path: "i" an Int64s column of negative, sparse values (about
// one in three slots of its span used) with many ties, "s" a DictStrings
// column interned in shuffled order, so its code order is not its string
// order.
func countingSortRel(r *rand.Rand, n int) *relation.Relation {
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(3*r.Intn(max(n/2, 1))) - int64(n)
		strs[i] = fmt.Sprintf("w%04d", r.Intn(max(n/4, 1)))
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "i", Vec: vector.FromInt64s(ints)},
		{Name: "s", Vec: vector.EncodeStrings(vector.FromStrings(strs))},
	}, nil)
}

// TestCountingSortMatchesMergeSort: a Sort by one Int64s or DictStrings
// key is counting-sorted, and its permutation equals the stable merge
// sort's (relation.SortedSel) ascending and descending, at parallelism 1,
// 2 and 8, empty input included. The budget peak tells the two paths
// apart: the counting sort charges its dense index, the rank table of a
// dict key and the permutation; the merge sort 16 B per row.
func TestCountingSortMatchesMergeSort(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for _, rows := range []int{0, 100, 3*minMorsel + 7} {
		rel := countingSortRel(r, rows)
		if rows > 0 {
			d := rel.Col(1).Vec.(*vector.DictStrings)
			inverted := false
			for i := 1; i < rows && !inverted; i++ {
				a, b := d.Codes()[i-1], d.Codes()[i]
				inverted = (a < b) != (d.Dict().Rank(a) < d.Dict().Rank(b))
			}
			if !inverted {
				t.Fatalf("rows=%d: dict code order equals string order; the input does not test ranks", rows)
			}
		}
		for col, name := range []string{"i", "s"} {
			dom, ok, err := denseDomainOf(context.Background(), rel.Col(col).Vec, denseJoinSlots(rows))
			if err != nil || !ok {
				t.Fatalf("rows=%d %s: not direct-addressed (%v)", rows, name, err)
			}
			wantPeak := int64(dom.slots+1+rows)*4 + int64(rows)*8
			if name == "s" {
				wantPeak += int64(dom.slots) * 4
			}
			for _, desc := range []bool{false, true} {
				keys := []relation.SortKey{{Col: col, Desc: desc}}
				want := rel.SortedSel(keys)
				for _, par := range []int{1, 2, 8} {
					label := fmt.Sprintf("rows=%d %s desc=%v par=%d", rows, name, desc, par)
					res := memory.NewPool(0).Reserve(1 << 30)
					got, err := sortSel(memory.WithReservation(context.Background(), res), &Ctx{Parallelism: par}, rel, keys)
					res.Release()
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.Peak() != wantPeak {
						t.Fatalf("%s: peak charge %d, want the counting sort's %d", label, res.Peak(), wantPeak)
					}
					if len(got) != len(want) {
						t.Fatalf("%s: len = %d, want %d", label, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("%s: position %d = row %d, want %d", label, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestCountingSortBudget: the counting sort charges everything it
// allocates before allocating it, so a budget at its peak admits it and
// one byte less denies it with ErrBudgetExceeded.
func TestCountingSortBudget(t *testing.T) {
	rel := countingSortRel(rand.New(rand.NewSource(43)), 2*minMorsel)
	for col := range []string{"i", "s"} {
		keys := []relation.SortKey{{Col: col}}
		run := func(budget int64) (int64, error) {
			res := memory.NewPool(0).Reserve(budget)
			defer res.Release()
			_, err := sortSel(memory.WithReservation(context.Background(), res), &Ctx{Parallelism: 2}, rel, keys)
			return res.Peak(), err
		}
		peak, err := run(1 << 30)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(peak); err != nil {
			t.Fatalf("col %d under its own peak %d: %v", col, peak, err)
		}
		if _, err := run(peak - 1); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("col %d at peak-1: err = %v, want ErrBudgetExceeded", col, err)
		}
	}
}

// TestCountingSortCancelled: a counting sort reads its context at least
// once per 8k rows, so a longer input reads it more often, and every
// cancellation before it completes returns context.Canceled, never a
// partial permutation.
func TestCountingSortCancelled(t *testing.T) {
	for col, name := range []string{"i", "s"} {
		checks := func(rows int) int {
			rel := countingSortRel(rand.New(rand.NewSource(47)), rows)
			keys := []relation.SortKey{{Col: col}}
			for after := 0; after < 100; after++ {
				sel, err := sortSel(&flipCtx{Context: context.Background(), after: after}, &Ctx{Parallelism: 1}, rel, keys)
				if err == nil {
					if len(sel) != rows {
						t.Fatalf("%s rows=%d after=%d: %d rows sorted", name, rows, after, len(sel))
					}
					return after
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("%s rows=%d after=%d: err = %v, want context.Canceled", name, rows, after, err)
				}
			}
			t.Fatalf("%s rows=%d: never completed", name, rows)
			return 0
		}
		if one, four := checks(0x2000), checks(4*0x2000); four-one < 3 {
			t.Fatalf("%s: a 32k-row sort reads the context %d times more than an 8k-row one, want at least 3", name, four-one)
		}
	}
}
