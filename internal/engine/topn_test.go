package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/memory"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// dupRel builds a relation whose sort keys are heavily duplicated, so the
// original-index tie-break does real work: a tiny int domain, a 3-value
// string column and probabilities quantized to quarters.
func dupRel(r *rand.Rand, n int) *relation.Relation {
	a := make([]int64, n)
	b := make([]string, n)
	p := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = int64(r.Intn(5))
		b[i] = fmt.Sprintf("s%d", r.Intn(3))
		p[i] = float64(r.Intn(4)) / 4
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "a", Vec: vector.FromInt64s(a)},
		{Name: "b", Vec: vector.FromStrings(b)},
	}, p)
}

// TestTopNSelDeterminism is the property test for the parallel TopN path:
// over randomized duplicate-heavy inputs, every (keys, n, parallelism)
// combination must return exactly the first n entries of the serial stable
// sort's permutation — the same rows, in the same order, at parallelism 1,
// 2 and 8.
func TestTopNSelDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	for _, rows := range []int{100, 2*minMorsel + 123, 20000} {
		in := dupRel(r, rows)
		keySets := [][]relation.SortKey{
			{{Col: relation.ProbCol, Desc: true}, {Col: 0}},
			{{Col: 0}, {Col: 1, Desc: true}},
			{{Col: 1}},
			{{Col: relation.ProbCol}},
		}
		for ki, keys := range keySets {
			want := in.SortedSel(keys)
			for _, n := range []int{0, 1, 10, 500, rows / 2, rows, rows + 17} {
				capped := n
				if capped > rows {
					capped = rows
				}
				for _, par := range []int{1, 2, 8} {
					ctx := &Ctx{Parallelism: par}
					got, err := topNSel(context.Background(), ctx, in, keys, n)
					if err != nil {
						t.Fatal(err)
					}
					if len(got) != capped {
						t.Fatalf("rows=%d keys=%d n=%d par=%d: len = %d, want %d",
							rows, ki, n, par, len(got), capped)
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("rows=%d keys=%d n=%d par=%d: position %d = row %d, want %d",
								rows, ki, n, par, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBuildBucketsMatchesSerial checks the partitioned build produces the
// same bucket contents, in the same (ascending row) order, as the serial
// single-map build at any parallelism.
func TestBuildBucketsMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for _, n := range []int{0, 100, 2*minMorsel + 7, 30000} {
		hashes := make([]uint64, n)
		for i := range hashes {
			hashes[i] = uint64(r.Intn(997)) * 0x9e3779b97f4a7c15 // duplicate-heavy
		}
		serial, _ := buildBuckets(context.Background(), &Ctx{Parallelism: 1}, hashes)
		for _, par := range []int{2, 8} {
			idx, _ := buildBuckets(context.Background(), &Ctx{Parallelism: par}, hashes)
			for _, h := range hashes {
				a, b := serial.lookup(h), idx.lookup(h)
				if len(a) != len(b) {
					t.Fatalf("n=%d par=%d hash %x: %d rows, want %d", n, par, h, len(b), len(a))
				}
				for i := range a {
					if a[i] != b[i] {
						t.Fatalf("n=%d par=%d hash %x: row order %v, want %v", n, par, h, b, a)
					}
				}
			}
		}
	}
}

// distinctRel is dupRel's shape with a near-distinct string column: keys
// are drawn from ten times as many values as there are rows.
func distinctRel(r *rand.Rand, n int) *relation.Relation {
	a := make([]int64, n)
	b := make([]string, n)
	for i := 0; i < n; i++ {
		a[i] = int64(r.Intn(5))
		b[i] = fmt.Sprintf("k%d", r.Intn(10*n+1))
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "a", Vec: vector.FromInt64s(a)},
		{Name: "b", Vec: vector.FromStrings(b)},
	}, nil)
}

// refGroupRows is the naive first-appearance grouping groupRows must
// match: one map keyed on the row's values.
func refGroupRows(in *relation.Relation, gIdx []int) (groupOf, firstRow []int) {
	groupOf = make([]int, in.NumRows())
	if len(gIdx) == 0 {
		return groupOf, []int{0}
	}
	ids := map[string]int{}
	for i := range groupOf {
		var key []string
		for _, ci := range gIdx {
			key = append(key, in.Col(ci).Vec.Format(i))
		}
		k := fmt.Sprintf("%q", key)
		g, ok := ids[k]
		if !ok {
			g = len(firstRow)
			ids[k] = g
			firstRow = append(firstRow, i)
		}
		groupOf[i] = g
	}
	return groupOf, firstRow
}

func checkGroups(t *testing.T, label string, gotOf, gotFirst, wantOf, wantFirst []int) {
	t.Helper()
	if len(gotFirst) != len(wantFirst) {
		t.Fatalf("%s: %d groups, want %d", label, len(gotFirst), len(wantFirst))
	}
	for g := range wantFirst {
		if gotFirst[g] != wantFirst[g] {
			t.Fatalf("%s: group %d first row %d, want %d", label, g, gotFirst[g], wantFirst[g])
		}
	}
	if len(gotOf) != len(wantOf) {
		t.Fatalf("%s: %d row ids, want %d", label, len(gotOf), len(wantOf))
	}
	for i := range wantOf {
		if gotOf[i] != wantOf[i] {
			t.Fatalf("%s: row %d group %d, want %d", label, i, gotOf[i], wantOf[i])
		}
	}
}

// TestGroupRowsParallelMatchesSerial checks groupRows against the naive
// first-appearance reference at parallelism 1, 2 and 8: duplicate-heavy
// and near-distinct keys, plain and dict-encoded (column b alone takes the
// dense code path; with a it hashes codes).
func TestGroupRowsParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 50, 2*minMorsel + 11, 25000} {
		for _, shape := range []struct {
			name string
			rel  func(*rand.Rand, int) *relation.Relation
		}{{"dup", dupRel}, {"distinct", distinctRel}} {
			plain := shape.rel(r, n)
			dict, err := relation.EncodeStringCols(plain, "b")
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range []struct {
				name string
				rel  *relation.Relation
			}{{"plain", plain}, {"dict", dict}} {
				for _, gIdx := range [][]int{{0}, {1}, {0, 1}, {}} {
					wantOf, wantFirst := refGroupRows(in.rel, gIdx)
					for _, par := range []int{1, 2, 8} {
						gotOf, gotFirst, err := groupRows(context.Background(), &Ctx{Parallelism: par}, in.rel, gIdx)
						if err != nil {
							t.Fatal(err)
						}
						checkGroups(t, fmt.Sprintf("n=%d %s/%s gIdx=%v par=%d", n, shape.name, in.name, gIdx, par),
							gotOf, gotFirst, wantOf, wantFirst)
					}
				}
			}
		}
	}
}

// TestHashLeadersCollisions forces the hashes hashLeaders sees: every row
// on one hash, and two hashes alternating by key (different partitions,
// one home slot), so distinct keys share probe chains. Over repeated and
// distinct keys, below and above the 2*minMorsel partition threshold, at
// parallelism 1, 2 and 8, the leaders must number into the naive
// first-appearance grouping, and a cancelled context must fail.
func TestHashLeadersCollisions(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	forced := []struct {
		name string
		hash func(group int) uint64
	}{
		{"one", func(int) uint64 { return 0x9e3779b97f4a7c15 }},
		{"alternating", func(g int) uint64 { return uint64(g % 2) }},
	}
	for _, n := range []int{50, 2*minMorsel + 11} {
		for _, in := range []*relation.Relation{dupRel(r, n), distinctRel(r, n)} {
			for _, f := range forced {
				for _, gIdx := range [][]int{{0}, {1}, {0, 1}} {
					wantOf, wantFirst := refGroupRows(in, gIdx)
					hashes := make([]uint64, n)
					for i, g := range wantOf {
						hashes[i] = f.hash(g)
					}
					for _, par := range []int{1, 2, 8} {
						ctx := &Ctx{Parallelism: par}
						leader := make([]int32, n)
						if err := hashLeaders(context.Background(), ctx, colVecs(in, gIdx), hashes, leader); err != nil {
							t.Fatal(err)
						}
						gotOf := make([]int, n)
						checkGroups(t, fmt.Sprintf("n=%d %s gIdx=%v par=%d", n, f.name, gIdx, par),
							gotOf, numberGroups(leader, gotOf), wantOf, wantFirst)

						c, cancel := context.WithCancel(context.Background())
						cancel()
						if err := hashLeaders(c, ctx, colVecs(in, gIdx), hashes, leader); err == nil {
							t.Fatalf("n=%d %s gIdx=%v par=%d: cancelled grouping returned no error", n, f.name, gIdx, par)
						}
					}
				}
			}
		}
	}
}

// TestGatherParallelMatchesSerial checks the write-at-offset Gather equals
// relation.Gather bit for bit.
func TestGatherParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	in := dupRel(r, 9000)
	sel := make([]int, 3*minMorsel+77)
	for i := range sel {
		sel[i] = r.Intn(in.NumRows())
	}
	want := in.Gather(sel)
	for _, par := range []int{1, 2, 8} {
		got, err := gatherParallel(context.Background(), &Ctx{Parallelism: par}, in, sel)
		if err != nil {
			t.Fatal(err)
		}
		mustEqualRel(t, want, got, fmt.Sprintf("gatherParallel par=%d", par))
	}
}

// TestLimitNonPositive: a Limit of zero or fewer rows returns no rows and
// keeps its input's schema, both as written and after the optimizer fused
// a Limit over a Sort into a TopN.
func TestLimitNonPositive(t *testing.T) {
	in := randRel(rand.New(rand.NewSource(25)), 3*minMorsel, 400)
	cat := catalog.New(0)
	cat.Put("t", in)
	for _, n := range []int{0, -1} {
		for _, naive := range []Node{
			NewLimit(NewScan("t"), n),
			NewLimit(NewSort(NewScan("t"), SortSpec{Col: "", Desc: true}, SortSpec{Col: "a"}), n),
		} {
			optimized, _ := Optimize(cat, naive)
			for _, par := range []int{1, 2, 8} {
				for _, plan := range []Node{naive, optimized} {
					label := fmt.Sprintf("n=%d par=%d %s over %s", n, par, plan.Label(), plan.Children()[0].Label())
					got, err := (&Ctx{Cat: cat, Parallelism: par}).Exec(context.Background(), plan)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					mustEqualRel(t, in.Gather(nil), got, label)
				}
			}
		}
	}
}

// TestFusedTopNKeepsDocIDOrderOnTies ranks documents whose scores tie in
// large blocks by (score desc, docID): the fused TopN must return the
// naive Limit-over-Sort rows at every parallelism, with tied scores in
// ascending docID order.
func TestFusedTopNKeepsDocIDOrderOnTies(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	rows := 3*minMorsel + 5
	ids := make([]int64, rows)
	for i, id := range r.Perm(rows) {
		ids[i] = int64(id)
	}
	scores := make([]float64, rows)
	for i := range scores {
		scores[i] = float64(r.Intn(4)) / 4
	}
	cat := catalog.New(0)
	cat.Put("scored", relation.MustFromColumns([]relation.Column{
		{Name: "docID", Vec: vector.FromInt64s(ids)},
	}, scores))
	for _, n := range []int{1, 10, 1000, rows} {
		naive := NewLimit(NewSort(NewScan("scored"), SortSpec{Col: "", Desc: true}, SortSpec{Col: "docID"}), n)
		optimized, info := Optimize(cat, naive)
		if _, ok := optimized.(*TopN); !ok || info.SortsFused != 1 {
			t.Fatalf("n=%d: optimized to %s (SortsFused %d), want one TopN", n, optimized.Label(), info.SortsFused)
		}
		want, err := (&Ctx{Cat: cat, Parallelism: 1}).Exec(context.Background(), naive)
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{1, 2, 8} {
			got, err := (&Ctx{Cat: cat, Parallelism: par}).Exec(context.Background(), optimized)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("n=%d par=%d", n, par)
			mustEqualRel(t, want, got, label)
			doc := got.Col(0).Vec.(*vector.Int64s).Values()
			p := got.Prob()
			for i := 1; i < len(doc); i++ {
				if p[i] > p[i-1] || p[i] == p[i-1] && doc[i] <= doc[i-1] {
					t.Fatalf("%s: row %d (%v, doc %d) after (%v, doc %d)", label, i, p[i], doc[i], p[i-1], doc[i-1])
				}
			}
		}
	}
}

// TestTopNSingleRunBudget: a TopN over one sort run holds only its n row
// ids, so at parallelism 1 it runs under a budget far smaller than the
// 8 bytes per input row a full sort permutation would take.
func TestTopNSingleRunBudget(t *testing.T) {
	const rows, n = 50000, 10
	cat := catalog.New(0)
	cat.Put("t", randRel(rand.New(rand.NewSource(27)), rows, 400))
	ctx := &Ctx{Cat: cat, Parallelism: 1}
	if runs := len(ctx.sortRanges(rows)); runs != 1 {
		t.Fatalf("%d sort runs at parallelism 1, want the single-run path", runs)
	}
	keys := []SortSpec{{Col: "", Desc: true}, {Col: "a"}}
	want, err := ctx.Exec(context.Background(), NewLimit(NewSort(NewScan("t"), keys...), n))
	if err != nil {
		t.Fatal(err)
	}
	pool := memory.NewPool(0)
	res := pool.Reserve(rows * 8 / 4)
	defer res.Release()
	got, err := ctx.Exec(memory.WithReservation(context.Background(), res), NewTopN(NewScan("t"), n, keys...))
	if err != nil {
		t.Fatalf("TopN %d over %d rows under a %d-byte budget: %v", n, rows, rows*8/4, err)
	}
	mustEqualRel(t, want, got, "budgeted TopN")
	if peak := res.Peak(); peak == 0 || peak >= rows*8 {
		t.Fatalf("reservation peak %d bytes, want in (0, %d)", peak, rows*8)
	}
}
