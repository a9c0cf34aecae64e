package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/memory"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// budgetPlan is a composite plan hitting every budget charge site: join
// (hashes, build table, pair lists, gathers), selection gather via
// sort/topn, concat prefix sums, and aggregation accumulators. Its root
// is a Materialize, so a context with UseCache may cache it.
func budgetPlan() Node {
	join := NewHashJoin(NewScan("fact"), NewMaterialize(NewScan("dim")), []string{"a"}, []string{"a"}, JoinIndependent)
	agg := NewAggregate(join, []string{"b"}, []AggSpec{
		{Op: CountAll, As: "n"},
		{Op: Sum, Col: "x", As: "sx"},
	}, GroupIndependent)
	u := NewUnion(agg, agg)
	return NewMaterialize(NewSort(u, SortSpec{Col: "b"}, SortSpec{Col: "n", Desc: true}))
}

func budgetCatalog() *catalog.Catalog { return budgetCatalogScaled(1) }

// budgetCatalogScaled is budgetCatalog with the int key column a of both
// tables multiplied by scale (see keyFamilies).
func budgetCatalogScaled(scale int64) *catalog.Catalog {
	r := rand.New(rand.NewSource(77))
	cat := catalog.New(0)
	cat.Put("fact", scaleKeys(randRel(r, 3*minMorsel, 400), "a", scale))
	cat.Put("dim", scaleKeys(randRel(r, minMorsel, 400), "a", scale))
	return cat
}

// assertBudgetKeyPaths pins which path the budget plans' int key a takes
// in the catalog: the join on dim.a and the grouping of fact.a.
func assertBudgetKeyPaths(t *testing.T, cat *catalog.Catalog, dense bool) {
	t.Helper()
	for _, tc := range []struct {
		table string
		limit func(int) int
	}{{"dim", denseJoinSlots}, {"fact", denseGroupSlots}} {
		rel, err := cat.Table(tc.table)
		if err != nil {
			t.Fatal(err)
		}
		assertKeyPath(t, rel, "a", tc.limit, dense)
	}
}

// TestBudgetEquivalence pins that a query under a sufficient budget is
// bit-identical to the unbudgeted path at parallelism 1/2/8 and that
// its reservation is fully returned to the pool.
func TestBudgetEquivalence(t *testing.T) {
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) { budgetEquivalence(t, keys.scale, keys.dense) })
	}
}

func budgetEquivalence(t *testing.T, scale int64, dense bool) {
	cat := budgetCatalogScaled(scale)
	assertBudgetKeyPaths(t, cat, dense)
	want, err := (&Ctx{Cat: cat, Parallelism: 1}).Exec(context.Background(), budgetPlan())
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{1, 2, 8} {
		ctx := &Ctx{Cat: budgetCatalogScaled(scale), Parallelism: par, UseCache: true}
		pool := memory.NewPool(0)
		res := pool.Reserve(1 << 30)
		c := memory.WithReservation(context.Background(), res)
		got, err := ctx.Exec(c, budgetPlan())
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		mustEqualRel(t, want, got, fmt.Sprintf("budgeted par=%d", par))
		if res.Peak() == 0 {
			t.Fatalf("par=%d: no charges reached the reservation", par)
		}
		res.Release()
		if used := pool.Used(); used != 0 {
			t.Fatalf("par=%d: pool holds %d bytes after release", par, used)
		}
	}
}

// TestBudgetExceeded pins the failure mode: a tiny budget aborts with
// ErrBudgetExceeded (matchable through the operator-label wrapping), the
// error is never cached, and the reservation leaks nothing. It runs over
// both key families. The grouping inputs get a reservation sized so the
// denial comes from inside the grouping: the hashed path (string column
// b, or the sparse int column a) is admitted its own 20 bytes per row
// but not the row hashes it charges next; the dense path (the dense int
// column a) charges its arrays at once, past a reservation of 8 bytes
// per row.
func TestBudgetExceeded(t *testing.T) {
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) { budgetExceeded(t, keys.scale, keys.dense) })
	}
}

func budgetExceeded(t *testing.T, scale int64, dense bool) {
	assertBudgetKeyPaths(t, budgetCatalogScaled(scale), dense)
	rows := int64(3 * minMorsel) // fact's rows
	hashedBudget, keyBudget := rows*24, rows*24
	if dense {
		keyBudget = rows * 8
	}
	for _, in := range []struct {
		name   string
		plan   func() Node
		budget int64
	}{
		{"composite", budgetPlan, 512}, // far below any gather output
		{"aggregate", func() Node {
			return NewMaterialize(NewAggregate(NewScan("fact"), []string{"b"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupCertain))
		}, hashedBudget},
		{"normalize", func() Node { return NewMaterialize(NewNormalize(NewScan("fact"), []string{"b"}, NormSum)) }, hashedBudget},
		{"aggregate-int-key", func() Node {
			return NewMaterialize(NewAggregate(NewScan("fact"), []string{"a"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupCertain))
		}, keyBudget},
		{"normalize-int-key", func() Node { return NewMaterialize(NewNormalize(NewScan("fact"), []string{"a"}, NormSum)) }, keyBudget},
	} {
		for _, par := range []int{1, 2, 8} {
			cat := budgetCatalogScaled(scale)
			ctx := &Ctx{Cat: cat, Parallelism: par, UseCache: true}
			pool := memory.NewPool(0)
			res := pool.Reserve(in.budget)
			c := memory.WithReservation(context.Background(), res)
			_, err := ctx.Exec(c, in.plan())
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("%s par=%d: err = %v, want ErrBudgetExceeded", in.name, par, err)
			}
			var be *memory.BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("%s par=%d: err %v carries no *memory.BudgetError", in.name, par, err)
			}
			if ctx.BudgetDenials() == 0 {
				t.Fatalf("%s par=%d: denial not counted", in.name, par)
			}
			res.Release()
			if used := pool.Used(); used != 0 {
				t.Fatalf("%s par=%d: pool holds %d bytes after failed query", in.name, par, used)
			}
			if _, ok := cat.Cache().Get(in.plan().Fingerprint()); ok {
				t.Fatalf("%s par=%d: failed plan root found in cache", in.name, par)
			}

			// The failure must not have been cached: the same plan under no
			// budget must execute cleanly and match the reference.
			want, err := (&Ctx{Cat: budgetCatalogScaled(scale), Parallelism: 1}).Exec(context.Background(), in.plan())
			if err != nil {
				t.Fatal(err)
			}
			got, err := ctx.Exec(context.Background(), in.plan())
			if err != nil {
				t.Fatalf("%s par=%d: unbudgeted rerun after budget failure: %v", in.name, par, err)
			}
			mustEqualRel(t, want, got, fmt.Sprintf("%s rerun par=%d", in.name, par))
		}
	}
}

// TestBudgetExceededNotCached drives the never-cached guarantee
// directly: after a budget abort the cache holds no entry for any
// fingerprint of the failed plan.
func TestBudgetExceededNotCached(t *testing.T) {
	cat := budgetCatalog()
	ctx := &Ctx{Cat: cat, Parallelism: 2, UseCache: true}
	pool := memory.NewPool(0)
	res := pool.Reserve(512)
	c := memory.WithReservation(context.Background(), res)
	if _, err := ctx.Exec(c, budgetPlan()); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	res.Release()
	// Walk the failed plan: no node whose execution failed may be
	// resident. Leaves (scans) are never cached; the root and the nodes
	// above the failing charge must be absent.
	var walk func(n Node)
	var roots []string
	walk = func(n Node) {
		roots = append(roots, n.Fingerprint())
		for _, ch := range n.Children() {
			walk(ch)
		}
	}
	walk(budgetPlan())
	if _, ok := cat.Cache().Get(roots[0]); ok {
		t.Fatal("failed plan root found in cache")
	}
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool holds %d bytes", used)
	}
}

// TestBudgetPoolCapacity pins the pool-scope denial: two reservations
// against a bounded pool, the second query is refused when the first
// holds the capacity.
func TestBudgetPoolCapacity(t *testing.T) {
	pool := memory.NewPool(4096)
	holder := pool.Reserve(0)
	if err := holder.Grow(4000); err != nil {
		t.Fatal(err)
	}
	ctx := &Ctx{Cat: budgetCatalog(), Parallelism: 2}
	res := pool.Reserve(0)
	c := memory.WithReservation(context.Background(), res)
	_, err := ctx.Exec(c, budgetPlan())
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want pool-capacity ErrBudgetExceeded", err)
	}
	var be *memory.BudgetError
	if !errors.As(err, &be) || be.Scope != "pool" {
		t.Fatalf("scope = %+v, want pool", be)
	}
	res.Release()
	holder.Release()
	if used := pool.Used(); used != 0 {
		t.Fatalf("pool holds %d bytes", used)
	}
}

// TestBudgetChargesAlignedProbe: a probe key that must be re-encoded
// through the build side's dict (4 bytes per row) or decoded to plain
// strings (a 16-byte header per row plus payload) is charged before it is
// built. Under a budget one byte short of that charge, the join and the
// anti-join are denied at it: the denied request is the aligned probe's.
func TestBudgetChargesAlignedProbe(t *testing.T) {
	const n = 50_000
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i) // 8-byte payloads
	}
	keyRel := func(vals []string, encoded bool) *relation.Relation {
		b := relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String})
		for _, v := range vals {
			b.Add(v)
		}
		rel := b.Build()
		if encoded {
			var err error
			if rel, err = relation.EncodeStringCols(rel, "k"); err != nil {
				t.Fatal(err)
			}
		}
		return rel
	}
	build := []string{"a", "b", "c"}
	for _, tc := range []struct {
		name         string
		probe, build *relation.Relation
		want         int64
	}{
		{"re-encode", keyRel(keys, false), keyRel(build, true), n * 4},
		{"decode", keyRel(keys, true), keyRel(build, false), n * (16 + 8)},
	} {
		probe, bside := NewValues("probe", tc.probe), NewValues("build", tc.build)
		for _, plan := range []Node{
			NewHashJoin(probe, bside, []string{"k"}, []string{"k"}, JoinLeft),
			NewSubtract(probe, bside, true),
		} {
			ctx := &Ctx{Cat: catalog.New(0), Parallelism: 1}
			pool := memory.NewPool(0)
			res := pool.Reserve(tc.want - 1)
			_, err := ctx.Exec(memory.WithReservation(context.Background(), res), plan)
			var be *memory.BudgetError
			if !errors.As(err, &be) || be.Requested != tc.want {
				t.Errorf("%s %s: err = %v, want the %d-byte aligned probe denied", tc.name, plan.Label(), err, tc.want)
			}
			res.Release()
			if used := pool.Used(); used != 0 {
				t.Errorf("%s %s: pool holds %d bytes after release", tc.name, plan.Label(), used)
			}
		}
	}
}

// TestBudgetChargesComputedColumns: Project charges every column an
// expression computes, a literal at its materialized size; a bare column
// reference shares its input's vector and the output shares its input's
// probabilities, so neither adds anything. A pass-through or renaming
// projection therefore runs under a one-byte budget (0 sets no ceiling),
// and a computed one is denied there at exactly its computed column.
func TestBudgetChargesComputedColumns(t *testing.T) {
	const n = 50_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	rel := relation.MustFromColumns([]relation.Column{{Name: "x", Vec: vector.FromInt64s(xs)}}, nil)
	in := NewValues("in", rel)
	x := expr.Column("x")
	twice := expr.Arith{Op: expr.Mul, L: x, R: expr.Int(2)}
	run := func(plan Node, budget int64) error {
		pool := memory.NewPool(0)
		res := pool.Reserve(budget)
		defer res.Release()
		_, err := (&Ctx{Cat: catalog.New(0), Parallelism: 1}).Exec(memory.WithReservation(context.Background(), res), plan)
		return err
	}
	for _, plan := range []Node{
		NewProject(in, ProjCol{Name: "x", E: x}),
		NewProject(in, ProjCol{Name: "y", E: x}),
		NewProject(in, ProjCol{Name: "x", E: x}, ProjCol{Name: "y", E: x}),
	} {
		if err := run(plan, 1); err != nil {
			t.Errorf("%s: %v under a one-byte budget", plan.Label(), err)
		}
	}
	for _, tc := range []struct {
		plan Node
		want int64
	}{
		{NewProject(in, ProjCol{Name: "y", E: twice}), n * 8},
		{NewProject(in, ProjCol{Name: "one", E: expr.Int(1)}), n * 8},
		{NewProject(in, ProjCol{Name: "x", E: x}, ProjCol{Name: "s", E: expr.Str("ab")}), n * (16 + 2)},
		{NewProject(in, ProjCol{Name: "x", E: x}, ProjCol{Name: "y", E: twice}), n * 8},
		{NewProject(in, ProjCol{Name: "x", E: x}, ProjCol{Name: "p", E: expr.Prob{}}), n * 8},
	} {
		err := run(tc.plan, 1)
		var be *memory.BudgetError
		if !errors.As(err, &be) || be.Requested != tc.want {
			t.Errorf("%s: err = %v, want the %d-byte computed column denied", tc.plan.Label(), err, tc.want)
		}
		if err := run(tc.plan, tc.want); err != nil {
			t.Errorf("%s: %v under a budget for the computed column", tc.plan.Label(), err)
		}
	}
}
