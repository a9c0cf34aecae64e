package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// The dictionary-encoding equivalence suite: every string-keyed operator
// must produce bit-identical relations (rows, order, probabilities)
// whether its inputs are plain Strings columns, DictStrings columns over
// one shared dict, or DictStrings columns over different dicts (the
// mixed-dict fallback path), at parallelism 1, 2 and 8.

// equivDataset builds one logical dataset in three physical
// representations. Schema: fact(k string, g string, v int64) with
// non-trivial probabilities, and dim(k string, w int64) to join against.
type equivDataset struct {
	name      string
	fact, dim *relation.Relation
}

func equivDatasets(t testing.TB, n int) []equivDataset {
	rng := rand.New(rand.NewSource(7))
	nKeys := n / 3
	ks := make([]string, n)
	gs := make([]string, n)
	vs := make([]int64, n)
	prob := make([]float64, n)
	for i := range ks {
		ks[i] = fmt.Sprintf("key%06d", rng.Intn(nKeys))
		gs[i] = fmt.Sprintf("grp%03d", rng.Intn(97))
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

	mustEnc := func(r *relation.Relation, cols ...string) *relation.Relation {
		out, err := relation.EncodeStringCols(r, cols...)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	// shared: fact and dim encoded in ONE freeze, so fact.k and dim.k
	// share a dict (the fast path). mixed: encoded separately, so the
	// join meets two different dicts (the fallback path). half: only the
	// fact side encoded, the dim side plain (plain-vs-dict fallback).
	shared, err := relation.EncodeStringsShared(
		[]*relation.Relation{fact, dim},
		[][]string{{"k", "g"}, {"k"}})
	if err != nil {
		t.Fatal(err)
	}
	return []equivDataset{
		{name: "raw", fact: fact, dim: dim},
		{name: "shared-dict", fact: shared[0], dim: shared[1]},
		{name: "mixed-dicts", fact: mustEnc(fact, "k", "g"), dim: mustEnc(dim, "k")},
		{name: "half-encoded", fact: mustEnc(fact, "k", "g"), dim: dim},
	}
}

// equivPlans enumerates the string-keyed operator shapes under test.
func equivPlans() map[string]Node {
	fact := NewScan("fact")
	dim := NewScan("dim")
	return map[string]Node{
		"join-left":    NewHashJoin(fact, dim, []string{"k"}, []string{"k"}, JoinLeft),
		"join-indep":   NewHashJoin(fact, dim, []string{"k"}, []string{"k"}, JoinIndependent),
		"group-by":     NewAggregate(fact, []string{"g"}, []AggSpec{{Op: CountAll, As: "n"}, {Op: Sum, Col: "v", As: "s"}}, GroupCertain),
		"group-hicard": NewAggregate(fact, []string{"k"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupCertain),
		"distinct":     NewDistinct(NewProject(fact, ProjCol{Name: "g", E: expr.Column("g")}), GroupIndependent),
		"sort":         NewSort(fact, SortSpec{Col: "k"}, SortSpec{Col: "v", Desc: true}),
		"topn":         NewTopN(fact, 50, SortSpec{Col: "k", Desc: true}, SortSpec{Col: "v"}),
		"select-eq":    NewSelect(fact, expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Str("key000007")}),
		"select-ne":    NewSelect(fact, expr.Cmp{Op: expr.Ne, L: expr.Column("g"), R: expr.Str("grp005")}),
		"select-lt":    NewSelect(fact, expr.Cmp{Op: expr.Lt, L: expr.Column("k"), R: expr.Str("key000100")}),
		"select-col":   NewSelect(fact, expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Column("g")}),
		"subtract": NewSubtract(
			NewProject(fact, ProjCol{Name: "k", E: expr.Column("k")}),
			NewProject(dim, ProjCol{Name: "k", E: expr.Column("k")}), false),
		"unite": NewDistinct(NewUnion(
			NewProject(fact, ProjCol{Name: "g", E: expr.Column("g")}),
			NewProject(fact, ProjCol{Name: "g", E: expr.Column("g")})), GroupMax),
		"union-mixed-reps": NewUnion(
			NewProject(fact, ProjCol{Name: "k", E: expr.Column("k")}),
			NewProject(dim, ProjCol{Name: "k", E: expr.Column("k")})),
	}
}

// mustEqualRelations asserts two relations are identical: schema, row
// order, every formatted value, and bit-identical probabilities.
func mustEqualRelations(t *testing.T, label string, got, want *relation.Relation) {
	t.Helper()
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", label, got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for c := 0; c < want.NumCols(); c++ {
		gc, wc := got.Col(c), want.Col(c)
		if gc.Name != wc.Name || gc.Vec.Kind() != wc.Vec.Kind() {
			t.Fatalf("%s: column %d is %s/%v, want %s/%v", label, c, gc.Name, gc.Vec.Kind(), wc.Name, wc.Vec.Kind())
		}
		for i := 0; i < want.NumRows(); i++ {
			if gc.Vec.Format(i) != wc.Vec.Format(i) {
				t.Fatalf("%s: col %s row %d = %q, want %q", label, gc.Name, i, gc.Vec.Format(i), wc.Vec.Format(i))
			}
		}
	}
	gp, wp := got.Prob(), want.Prob()
	for i := range wp {
		if math.Float64bits(gp[i]) != math.Float64bits(wp[i]) {
			t.Fatalf("%s: prob[%d] = %x, want %x (not bit-identical)", label, i, math.Float64bits(gp[i]), math.Float64bits(wp[i]))
		}
	}
}

// TestDictEncodingEquivalence runs every plan over every representation at
// parallelism 1, 2 and 8 and requires results identical to the raw
// Strings plan at parallelism 1.
func TestDictEncodingEquivalence(t *testing.T) {
	datasets := equivDatasets(t, 3*minMorsel)
	plans := equivPlans()

	// Reference: raw representation, serial.
	refCat := catalog.New(0)
	refCat.Put("fact", datasets[0].fact)
	refCat.Put("dim", datasets[0].dim)
	refCtx := &Ctx{Cat: refCat, Parallelism: 1}
	refs := map[string]*relation.Relation{}
	for name, plan := range plans {
		r, err := refCtx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("ref %s: %v", name, err)
		}
		refs[name] = r
	}

	for _, ds := range datasets {
		for _, par := range []int{1, 2, 8} {
			cat := catalog.New(0)
			cat.Put("fact", ds.fact)
			cat.Put("dim", ds.dim)
			ctx := &Ctx{Cat: cat, Parallelism: par}
			for name, plan := range plans {
				got, err := ctx.Exec(context.Background(), plan)
				if err != nil {
					t.Fatalf("%s/%s/par=%d: %v", ds.name, name, par, err)
				}
				mustEqualRelations(t, fmt.Sprintf("%s/%s/par=%d", ds.name, name, par), got, refs[name])
			}
		}
	}
}

// TestDictEncodedOutputsStayEncoded checks the perf contract: operators
// over shared-dict inputs must keep their string outputs dict-encoded
// (codes copied, never re-expanded), so downstream operators keep the
// cheap compares.
func TestDictEncodedOutputsStayEncoded(t *testing.T) {
	datasets := equivDatasets(t, 3*minMorsel)
	shared := datasets[1]
	cat := catalog.New(0)
	cat.Put("fact", shared.fact)
	cat.Put("dim", shared.dim)
	ctx := &Ctx{Cat: cat, Parallelism: 2}
	for _, name := range []string{"join-left", "group-by", "sort", "topn", "select-eq", "unite"} {
		plan := equivPlans()[name]
		out, err := ctx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		for _, col := range out.Columns() {
			if col.Vec.Kind() != vector.String {
				continue
			}
			if _, ok := col.Vec.(*vector.DictStrings); !ok {
				t.Errorf("%s: string column %q lost its encoding (%T)", name, col.Name, col.Vec)
			}
		}
	}
	// With DIFFERENT dicts on the two branches, the union must fall back
	// to a plain string column (the decode path).
	mixed := datasets[2]
	mixedCat := catalog.New(0)
	mixedCat.Put("fact", mixed.fact)
	mixedCat.Put("dim", mixed.dim)
	mixedCtx := &Ctx{Cat: mixedCat, Parallelism: 2}
	out, err := mixedCtx.Exec(context.Background(), equivPlans()["union-mixed-reps"])
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := out.Col(0).Vec.(*vector.Strings); !ok {
		t.Errorf("mixed-representation union should decode, got %T", out.Col(0).Vec)
	}
}

// TestCheckBuildRowsGuard exercises the int32 row-id guard of the
// open-addressing join table with faked counts — 2^31 rows cannot be
// materialized, but the guard must reject them before the build corrupts.
func TestCheckBuildRowsGuard(t *testing.T) {
	for _, n := range []int{0, 1, math.MaxInt32} {
		if err := checkBuildRows(n); err != nil {
			t.Fatalf("checkBuildRows(%d) = %v, want nil", n, err)
		}
	}
	if err := checkBuildRows(math.MaxInt32 + 1); err == nil {
		t.Fatal("checkBuildRows(2^31) = nil, want error")
	}
	if err := checkBuildRows(1 << 33); err == nil {
		t.Fatal("checkBuildRows(2^33) = nil, want error")
	}
	// buildBuckets must propagate the guard (faked via a huge len is not
	// possible; assert the wiring compiles to the same helper by checking
	// a normal build still succeeds).
	idx, err := buildBuckets(context.Background(), &Ctx{Parallelism: 1}, []uint64{1, 2, 3})
	if err != nil || idx == nil {
		t.Fatalf("small build failed: %v", err)
	}
}
