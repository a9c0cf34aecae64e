package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// The optimizer suite: each of the three rewrite passes is pinned by
// golden Explain output over hand-built plans, and a randomized
// differential proves optimized plans produce bit-identical relations to
// their naive forms at parallelism 1, 2 and 8.

// eq builds the equality conjuncts the golden tests use.
func eq(col, lit string) expr.Expr {
	return expr.Cmp{Op: expr.Eq, L: expr.Column(col), R: expr.Str(lit)}
}

func and(l, r expr.Expr) expr.Expr { return expr.And{L: l, R: r} }

// runPass applies one optimizer pass and renders the result.
func runPass(t *testing.T, pass func(*catalog.Catalog, Node, *OptInfo) Node, cat *catalog.Catalog, plan Node) (string, OptInfo) {
	t.Helper()
	var info OptInfo
	out := pass(cat, plan, &info)
	return Explain(out), info
}

func wantExplain(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

func TestPushdownPassGolden(t *testing.T) {
	cat := newTestCtx().Cat
	selfJoin := func() *HashJoin {
		return NewHashJoin(NewScan("triples"), NewScan("triples"),
			[]string{"subject"}, []string{"subject"}, JoinIndependent)
	}

	t.Run("merge-stacked-selects", func(t *testing.T) {
		plan := NewSelect(NewSelect(NewScan("triples"), eq("property", "category")), eq("object", "toy"))
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "merge", got,
			"Select ((property = \"category\") and (object = \"toy\"))\n"+
				"  Scan triples\n")
		if info.SelectsMerged != 1 {
			t.Errorf("SelectsMerged = %d, want 1", info.SelectsMerged)
		}
	})

	t.Run("join-named-both-sides", func(t *testing.T) {
		// property names the left occurrence; object_2 the deduplicated
		// right one, which must be renamed back to object below the join.
		plan := NewSelect(selfJoin(), and(eq("property", "category"), eq("object_2", "toy")))
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "join-named", got,
			"HashJoin[independent] subject=subject\n"+
				"  Select (property = \"category\")\n"+
				"    Scan triples\n"+
				"  Select (object = \"toy\")\n"+
				"    Scan triples\n")
		if info.SelectsPushed != 2 {
			t.Errorf("SelectsPushed = %d, want 2", info.SelectsPushed)
		}
	})

	t.Run("join-output-list", func(t *testing.T) {
		// A join with an output list resolves names through it: object_2
		// is the right side's object, renamed back below the join, though
		// over these narrowed inputs the name would not arise.
		l := NewProject(NewScan("triples"), ByName("subject")...)
		r := NewProject(NewScan("triples"), ByName("subject", "object")...)
		j := newHashJoin(l, r, []string{"subject"}, []string{"subject"},
			JoinIndependent, []JoinCol{{Col: "subject", Name: "subject"}, {Right: true, Col: "object", Name: "object_2"}})
		plan := NewSelect(j, and(eq("subject", "p1"), eq("object_2", "toy")))
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "join-out", got,
			"HashJoin[independent] subject=subject out(l.subject, r.object as object_2)\n"+
				"  Select (subject = \"p1\")\n"+
				"    Project subject\n"+
				"      Scan triples\n"+
				"  Select (object = \"toy\")\n"+
				"    Project subject, object\n"+
				"      Scan triples\n")
		if info.SelectsPushed != 2 {
			t.Errorf("SelectsPushed = %d, want 2", info.SelectsPushed)
		}
	})

	t.Run("join-prob-stays", func(t *testing.T) {
		// PROB() depends on the join's probability recombination; the
		// conjunct must stay above while the pushable one moves.
		pred := and(expr.Cmp{Op: expr.Gt, L: expr.Prob{}, R: expr.Float(0.5)}, eq("property", "category"))
		plan := NewSelect(selfJoin(), pred)
		got, _ := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "join-prob", got,
			"Select (PROB() > 0.5)\n"+
				"  HashJoin[independent] subject=subject\n"+
				"    Select (property = \"category\")\n"+
				"      Scan triples\n"+
				"    Scan triples\n")
	})

	t.Run("union-both-branches", func(t *testing.T) {
		// A UNITE is a Distinct over a Union: a value predicate passes the
		// grouping, then enters both branches.
		plan := NewSelect(NewDistinct(NewUnion(NewScan("triples"), NewScan("triples")), GroupMax), eq("object", "toy"))
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "union", got,
			"Distinct[max]\n"+
				"  Union\n"+
				"    Select (object = \"toy\")\n"+
				"      Scan triples\n"+
				"    Select (object = \"toy\")\n"+
				"      Scan triples\n")
		if info.SelectsPushed != 3 {
			t.Errorf("SelectsPushed = %d, want 3 (distinct, both branches)", info.SelectsPushed)
		}
	})

	t.Run("unite-prob-stays", func(t *testing.T) {
		// PROB() reads the merged probability: it stays above the grouping.
		pred := expr.Cmp{Op: expr.Gt, L: expr.Prob{}, R: expr.Float(0.5)}
		plan := NewSelect(NewDistinct(NewUnion(NewScan("triples"), NewScan("triples")), GroupMax), pred)
		got, _ := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "unite-prob", got, Explain(plan))
	})

	t.Run("materialize-is-a-barrier", func(t *testing.T) {
		plan := NewSelect(NewMaterialize(NewScan("triples")), eq("object", "toy"))
		got, _ := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "materialize", got,
			"Select (object = \"toy\")\n"+
				"  Materialize\n"+
				"    Scan triples\n")
	})

	t.Run("limit-over-sort-fuses", func(t *testing.T) {
		plan := NewLimit(NewSort(NewScan("triples"), SortSpec{Col: "", Desc: true}, SortSpec{Col: "subject"}), 5)
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "fuse", got,
			"TopN 5 by p desc,subject\n"+
				"  Scan triples\n")
		if info.SortsFused != 1 {
			t.Errorf("SortsFused = %d, want 1", info.SortsFused)
		}
	})

	t.Run("limit-over-select-over-sort-fuses", func(t *testing.T) {
		plan := NewLimit(NewSelect(NewSort(NewScan("triples"), SortSpec{Col: "subject"}), eq("object", "toy")), 3)
		got, info := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "select-then-fuse", got,
			"TopN 3 by subject\n"+
				"  Select (object = \"toy\")\n"+
				"    Scan triples\n")
		if info.SortsFused != 1 || info.SelectsPushed != 1 {
			t.Errorf("SortsFused/SelectsPushed = %d/%d, want 1/1", info.SortsFused, info.SelectsPushed)
		}
	})

	for _, tc := range []struct {
		name    string
		between func(Node) Node
	}{
		{"materialize", func(n Node) Node { return NewMaterialize(n) }},
		{"project", func(n Node) Node {
			return NewProject(n, ProjCol{Name: "subject", E: expr.Column("subject")})
		}},
	} {
		t.Run("limit-over-"+tc.name+"-over-sort-stays", func(t *testing.T) {
			plan := NewLimit(tc.between(NewSort(NewScan("triples"), SortSpec{Col: "subject"})), 2)
			got, info := runPass(t, pushdownPass, cat, plan)
			wantExplain(t, tc.name, got, Explain(plan))
			if info.SortsFused != 0 {
				t.Errorf("SortsFused = %d, want 0", info.SortsFused)
			}
		})
	}

	t.Run("sort-always-passes", func(t *testing.T) {
		plan := NewSelect(NewSort(NewScan("triples"), SortSpec{Col: "subject"}), eq("object", "toy"))
		got, _ := runPass(t, pushdownPass, cat, plan)
		wantExplain(t, "sort", got,
			"Sort subject\n"+
				"  Select (object = \"toy\")\n"+
				"    Scan triples\n")
	})
}

func TestEmptyPassGolden(t *testing.T) {
	cat := newTestCtx().Cat
	empty := func() Node {
		return NewSelect(NewScan("triples"), expr.BoolLit(false))
	}

	t.Run("const-true-select-vanishes", func(t *testing.T) {
		plan := NewSelect(NewScan("triples"), expr.BoolLit(true))
		got, info := runPass(t, emptyPass, cat, plan)
		wantExplain(t, "const-true", got, "Scan triples\n")
		if info.EmptyRewrites != 1 {
			t.Errorf("EmptyRewrites = %d, want 1", info.EmptyRewrites)
		}
	})

	t.Run("union-drops-empty-branch", func(t *testing.T) {
		plan := NewUnion(NewScan("triples"), empty())
		got, _ := runPass(t, emptyPass, cat, plan)
		wantExplain(t, "union-empty", got, "Scan triples\n")
	})

	t.Run("subtract-empty-right", func(t *testing.T) {
		plan := NewSubtract(NewScan("triples"), empty(), false)
		got, _ := runPass(t, emptyPass, cat, plan)
		wantExplain(t, "subtract-empty", got, "Scan triples\n")
	})

	t.Run("unite-empty-becomes-distinct", func(t *testing.T) {
		plan := NewDistinct(NewUnion(NewScan("triples"), empty()), GroupMax)
		got, _ := runPass(t, emptyPass, cat, plan)
		wantExplain(t, "unite-empty", got,
			"Distinct[max]\n"+
				"  Scan triples\n")
	})

	t.Run("concat-drops-empty-inputs", func(t *testing.T) {
		plan := NewUnion(NewUnion(NewScan("triples"), empty()), NewScan("triples"))
		got, _ := runPass(t, emptyPass, cat, plan)
		wantExplain(t, "concat-empty", got,
			"Union\n"+
				"  Scan triples\n"+
				"  Scan triples\n")
	})
}

func TestPrunePassGolden(t *testing.T) {
	cat := newTestCtx().Cat

	t.Run("aggregate-narrows-scan", func(t *testing.T) {
		// Grouping by property and counting reads one column; the scan
		// shrinks to it before any downstream materialization.
		plan := NewAggregate(NewScan("triples"), []string{"property"},
			[]AggSpec{{Op: CountAll, As: "n"}}, GroupCertain)
		got, info := runPass(t, prunePass, cat, plan)
		wantExplain(t, "aggregate-prune", got,
			"Aggregate[certain] by [property]\n"+
				"  Project property\n"+
				"    Scan triples\n")
		if info.ColumnsPruned != 2 {
			t.Errorf("ColumnsPruned = %d, want 2 (subject, object)", info.ColumnsPruned)
		}
	})

	t.Run("join-inputs-narrow-through-projects", func(t *testing.T) {
		// Only subject and property survive the projection above the
		// join, so the join outputs only them; the right side needs
		// nothing beyond its key.
		j := NewHashJoin(NewScan("triples"), NewScan("triples"),
			[]string{"subject"}, []string{"subject"}, JoinLeft)
		plan := NewProject(j,
			ProjCol{Name: "subject", E: expr.Column("subject")},
			ProjCol{Name: "property", E: expr.Column("property")})
		got, _ := runPass(t, prunePass, cat, plan)
		wantExplain(t, "join-prune", got,
			"Project subject, property\n"+
				"  HashJoin[left] subject=subject out(l.subject, l.property)\n"+
				"    Project subject, property\n"+
				"      Scan triples\n"+
				"    Project subject\n"+
				"      Scan triples\n")
	})

	t.Run("materialize-is-a-needs-barrier", func(t *testing.T) {
		// The materialized subtree keeps its full width (its fingerprint
		// must not depend on this consumer); the narrowing happens above
		// the barrier instead.
		plan := NewAggregate(NewMaterialize(NewScan("triples")), []string{"property"},
			[]AggSpec{{Op: CountAll, As: "n"}}, GroupCertain)
		got, _ := runPass(t, prunePass, cat, plan)
		wantExplain(t, "materialize-barrier", got,
			"Aggregate[certain] by [property]\n"+
				"  Project property\n"+
				"    Materialize\n"+
				"      Scan triples\n")
	})

	t.Run("tokenize-reads-two-columns", func(t *testing.T) {
		plan := NewTokenize(NewScan("triples"), "subject", "object", text.Tokenizer{}, false)
		got, _ := runPass(t, prunePass, cat, plan)
		wantExplain(t, "tokenize-prune", got,
			"Tokenize subject(object)\n"+
				"  Project subject, object\n"+
				"    Scan triples\n")
	})
}

// TestOptimizeNestedViewGolden: a Materialize chain is a view inside a
// view. Each is optimized on its own, so Optimize(M(M(x))) is
// M(M(Optimize(x))) — the same digest (Materialize takes its child's
// identity) and the same rendering, the chain kept — with no special
// case for the chain.
func TestOptimizeNestedViewGolden(t *testing.T) {
	cat := newTestCtx().Cat
	x := NewAggregate(NewScan("triples"), []string{"property"},
		[]AggSpec{{Op: CountAll, As: "n"}}, GroupCertain)
	optX, _ := Optimize(cat, x)
	for _, tc := range []struct {
		name       string
		plan, want Node
		explain    string
	}{
		{"chain", NewMaterialize(NewMaterialize(x)), NewMaterialize(NewMaterialize(optX)),
			"Materialize\n" +
				"  Materialize\n" +
				"    Aggregate[certain] by [property]\n" +
				"      Project property\n" +
				"        Scan triples\n"},
		{"chain-under-limit", NewLimit(NewMaterialize(NewMaterialize(x)), 3), NewLimit(NewMaterialize(NewMaterialize(optX)), 3),
			"Limit 3\n" +
				"  Materialize\n" +
				"    Materialize\n" +
				"      Aggregate[certain] by [property]\n" +
				"        Project property\n" +
				"          Scan triples\n"},
	} {
		got, _ := Optimize(cat, tc.plan)
		if got.Fingerprint() != tc.want.Fingerprint() {
			t.Errorf("%s: digest differs from the chain over Optimize(x):\n%s", tc.name, ExplainChange(tc.want, got))
		}
		wantExplain(t, tc.name, Explain(got), Explain(tc.want))
		wantExplain(t, tc.name, Explain(got), tc.explain)
		assertFresh(t, got)
	}
}

// factDimCatalog builds dict-encoded fact/dim tables: fact(k,g,v) with
// nKeys distinct keys, dim(k,w) with one row per key.
func factDimCatalog(t testing.TB, n, nKeys int) *catalog.Catalog {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	ks := make([]string, n)
	gs := make([]string, n)
	vs := make([]int64, n)
	prob := make([]float64, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("key%06d", rng.Intn(nKeys))
		gs[i] = fmt.Sprintf("grp%03d", rng.Intn(89))
		vs[i] = int64(rng.Intn(1000))
		prob[i] = 0.1 + 0.9*rng.Float64()
	}
	fact := relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(ks)},
		{Name: "g", Vec: vector.FromStrings(gs)},
		{Name: "v", Vec: vector.FromInt64s(vs)},
	}, prob)
	dks := make([]string, nKeys)
	dws := make([]int64, nKeys)
	for i := range dks {
		dks[i] = fmt.Sprintf("key%06d", i)
		dws[i] = int64(i * 7)
	}
	dim := relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(dks)},
		{Name: "w", Vec: vector.FromInt64s(dws)},
	}, nil)
	encFact, err := relation.EncodeStringCols(fact, "k", "g")
	if err != nil {
		t.Fatal(err)
	}
	encDim, err := relation.EncodeStringCols(dim, "k")
	if err != nil {
		t.Fatal(err)
	}
	cat := catalog.New(0)
	cat.Put("fact", encFact)
	cat.Put("dim", encDim)
	return cat
}

// TestJoinManyToMany executes a duplicate-heavy join, with right keys that
// match nothing, at several parallelism settings and requires the exact
// output of parallelism 1 from each: the per-morsel probe lists must merge
// back into ascending left rows with ascending right rows per left row.
func TestJoinManyToMany(t *testing.T) {
	n := 3 * minMorsel
	ks := make([]string, n)
	vs := make([]int64, n)
	prob := make([]float64, n)
	rng := rand.New(rand.NewSource(3))
	for i := range ks {
		ks[i] = fmt.Sprintf("k%02d", rng.Intn(40)) // ~150 duplicates per key
		vs[i] = int64(i)
		prob[i] = 0.05 + 0.9*rng.Float64()
	}
	left := relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(ks)},
		{Name: "v", Vec: vector.FromInt64s(vs)},
	}, prob)
	m := n / 4
	rks := make([]string, m)
	rws := make([]int64, m)
	for i := range rks {
		rks[i] = fmt.Sprintf("k%02d", rng.Intn(50)) // some keys unmatched
		rws[i] = int64(i * 3)
	}
	right := relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings(rks)},
		{Name: "w", Vec: vector.FromInt64s(rws)},
	}, nil)

	cat := catalog.New(0)
	cat.Put("L", left)
	cat.Put("R", right)

	canonical := NewHashJoin(NewScan("L"), NewScan("R"), []string{"k"}, []string{"k"}, JoinIndependent)
	refCtx := &Ctx{Cat: cat, Parallelism: 1}
	want, err := refCtx.Exec(context.Background(), canonical)
	if err != nil {
		t.Fatal(err)
	}
	if want.NumRows() == 0 {
		t.Fatal("degenerate test: join produced no rows")
	}
	// v is the left row number and w three times the right one: the
	// canonical order sorts pairs by (v, w).
	v := want.Col(want.ColIndex("v")).Vec.(*vector.Int64s).Values()
	w := want.Col(want.ColIndex("w")).Vec.(*vector.Int64s).Values()
	for i := 1; i < len(v); i++ {
		if v[i] < v[i-1] || v[i] == v[i-1] && w[i] <= w[i-1] {
			t.Fatalf("row %d: pair (%d,%d) after (%d,%d), want ascending left then right rows", i, v[i], w[i], v[i-1], w[i-1])
		}
	}
	for _, par := range []int{1, 2, 8} {
		ctx := &Ctx{Cat: cat, Parallelism: par}
		got, err := ctx.Exec(context.Background(), canonical)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		mustEqualRelations(t, fmt.Sprintf("par=%d", par), got, want)
	}
}

// randomPlan builds a random plan over fact(k,g,v) and dim(k,w) whose
// sub-structure exercises every optimizer pass: stacked and conjunctive
// selections above joins, unions and sorts,
// statically-empty branches, narrow projections, and aggregation on top.
func randomPlan(rng *rand.Rand, depth int) Node {
	if depth <= 0 {
		return NewScan("fact")
	}
	sub := func() Node { return randomPlan(rng, depth-1) }
	preds := []func() expr.Expr{
		func() expr.Expr { return eq("k", fmt.Sprintf("key%06d", rng.Intn(64))) },
		func() expr.Expr { return eq("g", fmt.Sprintf("grp%03d", rng.Intn(89))) },
		func() expr.Expr {
			return expr.Cmp{Op: expr.Lt, L: expr.Column("v"), R: expr.Int(int64(rng.Intn(1000)))}
		},
		func() expr.Expr {
			return expr.Cmp{Op: expr.Gt, L: expr.Prob{}, R: expr.Float(rng.Float64() * 0.5)}
		},
	}
	pred := func() expr.Expr {
		p := preds[rng.Intn(len(preds))]()
		if rng.Intn(2) == 0 {
			p = and(p, preds[rng.Intn(len(preds))]())
		}
		return p
	}
	toFact := func(n Node) Node { // back to (k, g, v) shape
		return NewProject(n,
			ProjCol{Name: "k", E: expr.Column("k")},
			ProjCol{Name: "g", E: expr.Column("g")},
			ProjCol{Name: "v", E: expr.Column("v")})
	}
	// Limits take sizes from "none" through "more than any input".
	limit := func() int { return []int{-1, 0, 1, 7, 500, 1 << 20}[rng.Intn(6)] }
	switch rng.Intn(11) {
	case 0, 1:
		return NewSelect(sub(), pred())
	case 2:
		mode := []JoinProb{JoinIndependent, JoinLeft}[rng.Intn(2)]
		return toFact(NewHashJoin(sub(), NewScan("dim"), []string{"k"}, []string{"k"}, mode))
	case 3:
		return NewUnion(sub(), sub())
	case 4:
		// One statically-empty branch for the empty-elimination pass.
		return NewUnion(sub(), NewSelect(NewScan("fact"), expr.BoolLit(false)))
	case 5:
		return NewSort(sub(), SortSpec{Col: "v", Desc: true}, SortSpec{Col: "k"})
	case 6:
		return NewSelect(NewSelect(sub(), pred()), pred())
	case 7:
		// Limit over Sort fuses into TopN; the probability key ties
		// often, so the stable tie-break decides which rows survive.
		keys := [][]SortSpec{
			{{Col: "v", Desc: true}, {Col: "k"}},
			{{Col: "", Desc: true}},
			{{Col: "g"}},
		}[rng.Intn(3)]
		return NewLimit(NewSort(sub(), keys...), limit())
	case 8:
		// Limit over anything else stays a Limit.
		return NewLimit(sub(), limit())
	case 9:
		// A Select between Limit and Sort sinks below the Sort first,
		// after which the pair fuses.
		return NewLimit(NewSelect(NewSort(sub(), SortSpec{Col: "", Desc: true}, SortSpec{Col: "k"}), pred()), limit())
	default:
		return NewMaterialize(sub())
	}
}

// TestOptimizedEquivalenceRandom: for each random plan, the reference is
// the naive plan at parallelism 1; the optimized plan must reproduce it
// bit-identically (rows, order, probabilities) at parallelism 1, 2 and 8.
func TestOptimizedEquivalenceRandom(t *testing.T) {
	seedCat := factDimCatalog(t, 3*minMorsel, 512)
	fact, err := seedCat.Table("fact")
	if err != nil {
		t.Fatal(err)
	}
	dim, err := seedCat.Table("dim")
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(42))
	const plans = 40
	fused := 0
	// Plan identity across every naive and optimized plan and all their
	// sub-plans: distinct plans get distinct digests, equal plans equal
	// ones, and no optimized node holds a stale digest.
	ledger := newDigestLedger()
	for i := 0; i < plans; i++ {
		inner := randomPlan(rng, 3)
		plan := NewAggregate(inner, []string{"g"},
			[]AggSpec{{Op: CountAll, As: "n"}, {Op: Sum, Col: "v", As: "s"}, {Op: SumProb, As: "sp"}},
			GroupCertain)

		refCat := catalog.New(0)
		refCat.Put("fact", fact)
		refCat.Put("dim", dim)
		want, err := (&Ctx{Cat: refCat, Parallelism: 1, UseCache: true}).Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("plan %d naive: %v\n%s", i, err, Explain(plan))
		}

		var info OptInfo
		optimized, oErr := func() (n Node, err error) {
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("optimizer panicked: %v", r)
				}
			}()
			n, info = Optimize(refCat, plan)
			return n, nil
		}()
		if oErr != nil {
			t.Fatalf("plan %d: %v\n%s", i, oErr, Explain(plan))
		}
		fused += info.SortsFused
		ledger.add(t, plan)
		ledger.add(t, optimized)
		assertFresh(t, optimized)
		for _, par := range []int{1, 2, 8} {
			cat := catalog.New(0)
			cat.Put("fact", fact)
			cat.Put("dim", dim)
			ctx := &Ctx{Cat: cat, Parallelism: par, UseCache: true}
			got, err := ctx.Exec(context.Background(), optimized)
			if err != nil {
				t.Fatalf("plan %d optimized par=%d: %v\nnaive:\n%s\noptimized:\n%s",
					i, par, err, Explain(plan), Explain(optimized))
			}
			label := fmt.Sprintf("plan %d par=%d (%+v)\nnaive:\n%s\noptimized:\n%s",
				i, par, info, Explain(plan), Explain(optimized))
			mustEqualRelations(t, label, got, want)
		}
	}
	if len(ledger.byDigest) < plans {
		t.Errorf("%d distinct digests over %d random plans", len(ledger.byDigest), plans)
	}
	if fused == 0 {
		t.Errorf("no random plan fused a Limit over a Sort; the rule went unchecked")
	}
}

// TestCtxOptimizeCounters: Ctx.Optimize accumulates per-plan pass
// counters into the context's OptimizerStats.
func TestCtxOptimizeCounters(t *testing.T) {
	cat := factDimCatalog(t, 4096, 512)
	ctx := &Ctx{Cat: cat, Parallelism: 1, UseCache: true}
	plan := NewSelect(
		NewHashJoin(NewScan("fact"), NewScan("dim"), []string{"k"}, []string{"k"}, JoinLeft),
		eq("k", "key000007"))
	_ = ctx.Optimize(plan)
	st := ctx.OptimizerStats()
	if st.Plans != 1 || st.PlansChanged != 1 {
		t.Errorf("Plans/PlansChanged = %d/%d, want 1/1", st.Plans, st.PlansChanged)
	}
	if st.SelectsPushed == 0 {
		t.Errorf("SelectsPushed = 0, want > 0 (stats: %+v)", st)
	}
	unchanged := NewScan("dim")
	_ = ctx.Optimize(unchanged)
	if st := ctx.OptimizerStats(); st.Plans != 2 || st.PlansChanged != 1 {
		t.Errorf("after no-op plan: Plans/PlansChanged = %d/%d, want 2/1", st.Plans, st.PlansChanged)
	}
}
