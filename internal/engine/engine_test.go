package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// newTestCtx builds a catalog holding the paper's toy triples table and
// returns a fresh context over it.
func newTestCtx() *Ctx {
	cat := catalog.New(0)
	cat.Put("triples", relation.NewBuilder(
		[]string{"subject", "property", "object"},
		[]vector.Kind{vector.String, vector.String, vector.String},
	).
		Add("p1", "category", "toy").
		Add("p1", "description", "wooden train set").
		Add("p2", "category", "toy").
		Add("p2", "description", "a history book about toys").
		Add("p3", "category", "book").
		Add("p3", "description", "a history of venice").
		AddP(0.5, "p4", "category", "toy").
		Add("p4", "description", "toy train tracks").
		Build())
	return NewCtx(cat)
}

func mustExec(t *testing.T, ctx *Ctx, n Node) *relation.Relation {
	t.Helper()
	r, err := ctx.Exec(context.Background(), n)
	if err != nil {
		t.Fatalf("exec %s: %v", n.Label(), err)
	}
	return r
}

func TestScan(t *testing.T) {
	ctx := newTestCtx()
	r := mustExec(t, ctx, NewScan("triples"))
	if r.NumRows() != 8 {
		t.Errorf("rows = %d, want 8", r.NumRows())
	}
	if _, err := ctx.Exec(context.Background(), NewScan("missing")); err == nil {
		t.Error("scan of missing table should fail")
	}
}

func TestSelectEquality(t *testing.T) {
	ctx := newTestCtx()
	pred := expr.And{
		L: expr.Cmp{Op: expr.Eq, L: expr.Column("property"), R: expr.Str("category")},
		R: expr.Cmp{Op: expr.Eq, L: expr.Column("object"), R: expr.Str("toy")},
	}
	r := mustExec(t, ctx, NewSelect(NewScan("triples"), pred))
	if r.NumRows() != 3 {
		t.Fatalf("rows = %d, want 3 (p1, p2, p4)", r.NumRows())
	}
	// p4's probability must ride along untouched.
	if got := r.Prob()[2]; got != 0.5 {
		t.Errorf("p4 probability = %g, want 0.5", got)
	}
}

func TestSelectTypeError(t *testing.T) {
	ctx := newTestCtx()
	if _, err := ctx.Exec(context.Background(), NewSelect(NewScan("triples"), expr.Column("subject"))); err == nil {
		t.Error("non-boolean predicate should fail")
	}
}

// The paper's docs view: self-join of triples on subject, category=toy
// with description extraction, p = t1.p * t2.p.
func docsPlan() Node {
	cat := NewSelect(NewScan("triples"), expr.And{
		L: expr.Cmp{Op: expr.Eq, L: expr.Column("property"), R: expr.Str("category")},
		R: expr.Cmp{Op: expr.Eq, L: expr.Column("object"), R: expr.Str("toy")},
	})
	desc := NewSelect(NewScan("triples"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("property"), R: expr.Str("description")})
	join := NewHashJoin(cat, desc, []string{"subject"}, []string{"subject"}, JoinIndependent)
	return NewProject(join,
		ProjCol{Name: "docID", E: expr.Column("subject")},
		ProjCol{Name: "data", E: expr.Column("object_2")},
	)
}

func TestHashJoinDocsView(t *testing.T) {
	ctx := newTestCtx()
	r := mustExec(t, ctx, docsPlan())
	if r.NumRows() != 3 {
		t.Fatalf("docs rows = %d, want 3", r.NumRows())
	}
	byID := map[string]float64{}
	ids := r.Col(0).Vec.(*vector.Strings).Values()
	for i, id := range ids {
		byID[id] = r.Prob()[i]
	}
	if byID["p1"] != 1.0 || byID["p2"] != 1.0 {
		t.Errorf("certain docs got p %v", byID)
	}
	// JOIN INDEPENDENT: 0.5 * 1.0 = 0.5 (the paper's t1.p * t2.p)
	if byID["p4"] != 0.5 {
		t.Errorf("p4 joined probability = %g, want 0.5", byID["p4"])
	}
}

func TestHashJoinProbModes(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("l", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.Int64}).AddP(0.5, 1).Build())
	cat.Put("r", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.Int64}).AddP(0.4, 1).Build())
	ctx := NewCtx(cat)
	cases := map[JoinProb]float64{JoinIndependent: 0.2, JoinLeft: 0.5}
	for mode, want := range cases {
		r := mustExec(t, ctx, NewHashJoin(NewScan("l"), NewScan("r"), []string{"k"}, []string{"k"}, mode))
		if r.NumRows() != 1 {
			t.Fatalf("mode %v: rows = %d", mode, r.NumRows())
		}
		if got := r.Prob()[0]; math.Abs(got-want) > 1e-12 {
			t.Errorf("mode %v: p = %g, want %g", mode, got, want)
		}
	}
}

func TestHashJoinErrors(t *testing.T) {
	ctx := newTestCtx()
	// key kind mismatch
	cat := catalog.New(0)
	cat.Put("a", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.Int64}).Add(1).Build())
	cat.Put("b", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String}).Add("1").Build())
	ctx2 := NewCtx(cat)
	if _, err := ctx2.Exec(context.Background(), NewHashJoin(NewScan("a"), NewScan("b"), []string{"k"}, []string{"k"}, JoinIndependent)); err == nil {
		t.Error("kind mismatch join should fail")
	}
	// missing key column
	if _, err := ctx.Exec(context.Background(), NewHashJoin(NewScan("triples"), NewScan("triples"), []string{"nope"}, []string{"subject"}, JoinIndependent)); err == nil {
		t.Error("missing key should fail")
	}
	// empty keys
	if _, err := ctx.Exec(context.Background(), NewHashJoin(NewScan("triples"), NewScan("triples"), nil, nil, JoinIndependent)); err == nil {
		t.Error("empty key join should fail")
	}
}

func TestProjectAndExtend(t *testing.T) {
	ctx := newTestCtx()
	p := NewProject(NewScan("triples"),
		ProjCol{Name: "s", E: expr.Column("subject")},
		ProjCol{Name: "upper", E: expr.NewCall("ucase", expr.Column("object"))},
	)
	r := mustExec(t, ctx, p)
	if r.NumCols() != 2 {
		t.Fatalf("cols = %d", r.NumCols())
	}
	if got := r.Col(1).Vec.(*vector.Strings).Values()[0]; got != "TOY" {
		t.Errorf("ucase = %q", got)
	}
	// Extending: every input column passes through and one is appended.
	e := NewProject(NewScan("triples"), append(ByName("subject", "property", "object"),
		ProjCol{Name: "double", E: expr.Arith{Op: expr.Mul, L: expr.Prob{}, R: expr.Float(2)}})...)
	re := mustExec(t, ctx, e)
	if re.NumCols() != 4 {
		t.Errorf("extend cols = %d, want 4", re.NumCols())
	}
	if got := re.Col(3).Vec.(*vector.Float64s).Values()[6]; got != 1 {
		t.Errorf("double(p4 category) = %g, want 1", got)
	}
}

func TestAggregateCountsAndSums(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder(
		[]string{"doc", "len"}, []vector.Kind{vector.String, vector.Int64}).
		Add("a", 3).Add("a", 5).Add("b", 7).Build())
	ctx := NewCtx(cat)
	agg := NewAggregate(NewScan("t"), []string{"doc"}, []AggSpec{
		{Op: CountAll, As: "n"},
		{Op: Sum, Col: "len", As: "total"},
		{Op: Avg, Col: "len", As: "mean"},
		{Op: Min, Col: "len", As: "lo"},
		{Op: Max, Col: "len", As: "hi"},
	}, GroupCertain)
	r := mustExec(t, ctx, agg)
	if r.NumRows() != 2 {
		t.Fatalf("groups = %d, want 2", r.NumRows())
	}
	// first-appearance order: a then b
	if r.Col(0).Vec.Format(0) != "a" {
		t.Fatalf("group order wrong: %s", r.Format(-1))
	}
	if n := r.Col(1).Vec.(*vector.Int64s).Values()[0]; n != 2 {
		t.Errorf("count(a) = %d", n)
	}
	if s := r.Col(2).Vec.(*vector.Int64s).Values()[0]; s != 8 {
		t.Errorf("sum(a) = %d", s)
	}
	if m := r.Col(3).Vec.(*vector.Float64s).Values()[0]; m != 4.0 {
		t.Errorf("avg(a) = %g", m)
	}
	if lo := r.Col(4).Vec.(*vector.Int64s).Values()[1]; lo != 7 {
		t.Errorf("min(b) = %d", lo)
	}
	if hi := r.Col(5).Vec.(*vector.Int64s).Values()[0]; hi != 5 {
		t.Errorf("max(a) = %d", hi)
	}
}

func TestAggregateGlobalOnEmptyInput(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("e", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build())
	ctx := NewCtx(cat)
	r := mustExec(t, ctx, NewAggregate(NewScan("e"), nil, []AggSpec{{Op: CountAll, As: "n"}}, GroupCertain))
	if r.NumRows() != 1 {
		t.Fatalf("global aggregate rows = %d, want 1", r.NumRows())
	}
	if n := r.Col(0).Vec.(*vector.Int64s).Values()[0]; n != 0 {
		t.Errorf("count = %d, want 0", n)
	}
}

func TestAggregateProbModes(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String}).
		AddP(0.5, "a").AddP(0.5, "a").AddP(0.9, "b").Build())
	ctx := NewCtx(cat)
	get := func(mode GroupProb) []float64 {
		r := mustExec(t, ctx, NewAggregate(NewScan("t"), []string{"k"}, nil, mode))
		return r.Prob()
	}
	if p := get(GroupDisjoint); math.Abs(p[0]-1.0) > 1e-12 || math.Abs(p[1]-0.9) > 1e-12 {
		t.Errorf("disjoint = %v", p)
	}
	if p := get(GroupIndependent); math.Abs(p[0]-0.75) > 1e-12 {
		t.Errorf("independent = %v, want 0.75 (noisy-or)", p)
	}
	if p := get(GroupMax); p[0] != 0.5 || p[1] != 0.9 {
		t.Errorf("max = %v", p)
	}
	if p := get(GroupCertain); p[0] != 1 || p[1] != 1 {
		t.Errorf("certain = %v", p)
	}
	// GroupDisjoint clamps; GroupSumRaw must not.
	cat.Put("u", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String}).
		AddP(0.8, "a").AddP(0.8, "a").Build())
	r := mustExec(t, ctx, NewAggregate(NewScan("u"), []string{"k"}, nil, GroupSumRaw))
	if math.Abs(r.Prob()[0]-1.6) > 1e-12 {
		t.Errorf("sumraw = %v, want 1.6", r.Prob())
	}
}

func TestAggregateSumProbMaxProb(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String}).
		AddP(0.5, "a").AddP(0.25, "a").Build())
	ctx := NewCtx(cat)
	r := mustExec(t, ctx, NewAggregate(NewScan("t"), []string{"k"}, []AggSpec{
		{Op: SumProb, As: "sp"}, {Op: MaxProb, As: "mp"},
	}, GroupCertain))
	if got := r.Col(1).Vec.(*vector.Float64s).Values()[0]; math.Abs(got-0.75) > 1e-12 {
		t.Errorf("sum(p) = %g", got)
	}
	if got := r.Col(2).Vec.(*vector.Float64s).Values()[0]; got != 0.5 {
		t.Errorf("max(p) = %g", got)
	}
}

func TestDistinct(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).
		AddP(0.5, "a").AddP(0.5, "a").Add("b").Build())
	ctx := NewCtx(cat)
	r := mustExec(t, ctx, NewDistinct(NewScan("t"), GroupIndependent))
	if r.NumRows() != 2 {
		t.Fatalf("distinct rows = %d", r.NumRows())
	}
	if math.Abs(r.Prob()[0]-0.75) > 1e-12 {
		t.Errorf("collapsed p = %g, want 0.75", r.Prob()[0])
	}
}

func TestUnionAndUnite(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("l", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).AddP(0.5, "a").Build())
	cat.Put("r", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).AddP(0.5, "a").Add("b").Build())
	ctx := NewCtx(cat)
	u := mustExec(t, ctx, NewUnion(NewScan("l"), NewScan("r")))
	if u.NumRows() != 3 {
		t.Errorf("union rows = %d, want 3 (bag)", u.NumRows())
	}
	un := mustExec(t, ctx, NewDistinct(NewUnion(NewScan("l"), NewScan("r")), GroupIndependent))
	if un.NumRows() != 2 {
		t.Fatalf("unite rows = %d, want 2", un.NumRows())
	}
	if math.Abs(un.Prob()[0]-0.75) > 1e-12 {
		t.Errorf("unite p(a) = %g, want 0.75", un.Prob()[0])
	}
	// arity mismatch
	cat.Put("w", relation.NewBuilder([]string{"x", "y"}, []vector.Kind{vector.String, vector.String}).Build())
	if _, err := ctx.Exec(context.Background(), NewUnion(NewScan("l"), NewScan("w"))); err == nil {
		t.Error("arity mismatch union should fail")
	}
}

func TestSubtract(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("l", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).
		AddP(0.8, "a").Add("b").Build())
	cat.Put("r", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).
		AddP(0.5, "a").Build())
	ctx := NewCtx(cat)
	// probabilistic: p(a) = 0.8 * (1-0.5) = 0.4, b kept at 1.0
	r := mustExec(t, ctx, NewSubtract(NewScan("l"), NewScan("r"), false))
	if r.NumRows() != 2 {
		t.Fatalf("rows = %d, want 2", r.NumRows())
	}
	if math.Abs(r.Prob()[0]-0.4) > 1e-12 {
		t.Errorf("p(a) = %g, want 0.4", r.Prob()[0])
	}
	// boolean: a removed entirely
	rb := mustExec(t, ctx, NewSubtract(NewScan("l"), NewScan("r"), true))
	if rb.NumRows() != 1 || rb.Col(0).Vec.Format(0) != "b" {
		t.Errorf("boolean subtract = %s", rb.Format(-1))
	}
}

func TestSortTopNLimit(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).
		AddP(0.3, 1).AddP(0.9, 2).AddP(0.6, 3).Build())
	ctx := NewCtx(cat)
	s := mustExec(t, ctx, NewSort(NewScan("t"), SortSpec{Col: "", Desc: true}))
	if got := s.Col(0).Vec.(*vector.Int64s).Values(); got[0] != 2 || got[2] != 1 {
		t.Errorf("sort by p desc = %v", got)
	}
	top := mustExec(t, ctx, NewTopN(NewScan("t"), 2, SortSpec{Col: "", Desc: true}))
	if top.NumRows() != 2 || top.Prob()[0] != 0.9 {
		t.Errorf("topN = %v", top.Prob())
	}
	lim := mustExec(t, ctx, NewLimit(NewScan("t"), 2))
	if lim.NumRows() != 2 {
		t.Errorf("limit rows = %d", lim.NumRows())
	}
	lim2 := mustExec(t, ctx, NewLimit(NewScan("t"), 99))
	if lim2.NumRows() != 3 {
		t.Errorf("limit beyond size rows = %d", lim2.NumRows())
	}
	if _, err := ctx.Exec(context.Background(), NewSort(NewScan("t"), SortSpec{Col: "nope"})); err == nil {
		t.Error("sort on missing column should fail")
	}
}

// TestRename: a Project of bare column references renames its input's
// columns, sharing its column vectors and its probabilities.
func TestRename(t *testing.T) {
	ctx := newTestCtx()
	rename := func(names ...string) Node {
		cols := make([]ProjCol, len(names))
		for i, n := range names {
			cols[i] = ProjCol{Name: n, E: expr.Column([]string{"subject", "property", "object", "extra"}[i])}
		}
		return NewProject(NewScan("triples"), cols...)
	}
	r := mustExec(t, ctx, rename("s", "p", "o"))
	if strings.Join(r.ColumnNames(), ",") != "s,p,o" {
		t.Errorf("renamed = %v", r.ColumnNames())
	}
	base, _ := ctx.Cat.Table("triples")
	if r.Col(2).Vec != base.Col(2).Vec || &r.Prob()[0] != &base.Prob()[0] {
		t.Error("renaming Project copied its input")
	}
	if _, err := ctx.Exec(context.Background(), rename("a", "b", "c", "d")); err == nil {
		t.Error("renaming a column the input does not have should fail")
	}
}

func TestScaleProbAndProbCols(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).AddP(0.5, 1).Build())
	ctx := NewCtx(cat)
	w := mustExec(t, ctx, NewScaleProb(NewScan("t"), 0.6))
	if math.Abs(w.Prob()[0]-0.3) > 1e-12 {
		t.Errorf("weight p = %g, want 0.3", w.Prob()[0])
	}
	// weighting must not mutate the base table (relations are immutable)
	base, _ := cat.Table("t")
	if base.Prob()[0] != 0.5 {
		t.Errorf("base table mutated: p = %g", base.Prob()[0])
	}
	if _, err := ctx.Exec(context.Background(), NewScaleProb(NewScan("t"), -1)); err == nil {
		t.Error("negative weight should fail")
	}

	pc := mustExec(t, ctx, NewProject(NewScan("t"), ProjCol{Name: "x", E: expr.Column("x")}, ProjCol{Name: "score", E: expr.Prob{}}))
	if pc.NumCols() != 2 || pc.Col(1).Vec.(*vector.Float64s).Values()[0] != 0.5 {
		t.Errorf("Project PROB() = %s", pc.Format(-1))
	}
	back := mustExec(t, ctx, NewProbFromCol(NewValues("pc", pc), "score", false, true))
	if back.NumCols() != 1 || back.Prob()[0] != 0.5 {
		t.Errorf("ProbFromCol = %s", back.Format(-1))
	}
	// clamp
	cat.Put("big", relation.NewBuilder([]string{"s"}, []vector.Kind{vector.Float64}).Add(3.5).Build())
	cl := mustExec(t, ctx, NewProbFromCol(NewScan("big"), "s", true, false))
	if cl.Prob()[0] != 1.0 {
		t.Errorf("clamped p = %g", cl.Prob()[0])
	}
}

func TestTokenizeNode(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("docs", relation.NewBuilder(
		[]string{"docID", "data"}, []vector.Kind{vector.Int64, vector.String}).
		Add(3, "a book about history").
		AddP(0.5, 10, "the cake book").
		Build())
	ctx := NewCtx(cat)
	r := mustExec(t, ctx, NewTokenize(NewScan("docs"), "docID", "data", text.Default(), false))
	if r.NumRows() != 7 {
		t.Fatalf("token rows = %d, want 7", r.NumRows())
	}
	if strings.Join(r.ColumnNames(), ",") != "docID,token,pos" {
		t.Errorf("schema = %v", r.ColumnNames())
	}
	// doc 10's tokens inherit p=0.5
	ids := r.Col(0).Vec.(*vector.Int64s).Values()
	for i, id := range ids {
		want := 1.0
		if id == 10 {
			want = 0.5
		}
		if r.Prob()[i] != want {
			t.Errorf("token %d of doc %d has p=%g", i, id, r.Prob()[i])
		}
	}
	// wrong column kind
	if _, err := ctx.Exec(context.Background(), NewTokenize(NewScan("docs"), "data", "docID", text.Default(), false)); err == nil {
		t.Error("tokenize on int column should fail")
	}
}

func TestMaterializeCaching(t *testing.T) {
	ctx := newTestCtx()
	plan := NewMaterialize(NewSelect(NewScan("triples"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("property"), R: expr.Str("description")}))
	mustExec(t, ctx, plan)
	stats := ctx.Cat.Cache().Stats()
	if stats.Entries != 1 {
		t.Fatalf("cache entries = %d, want 1", stats.Entries)
	}
	mustExec(t, ctx, plan)
	if got := ctx.Cat.Cache().Stats().Hits; got != 1 {
		t.Errorf("cache hits = %d, want 1", got)
	}
	// an equivalent but distinct plan object must also hit
	plan2 := NewMaterialize(NewSelect(NewScan("triples"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("property"), R: expr.Str("description")}))
	mustExec(t, ctx, plan2)
	if got := ctx.Cat.Cache().Stats().Hits; got != 2 {
		t.Errorf("cache hits = %d, want 2", got)
	}
	// replacing the base table invalidates
	ctx.Cat.Put("triples", relation.NewBuilder(
		[]string{"subject", "property", "object"},
		[]vector.Kind{vector.String, vector.String, vector.String}).Build())
	if ctx.Cat.Cache().Stats().Entries != 0 {
		t.Error("cache not invalidated on table replacement")
	}
}

func TestExplainAndCountNodes(t *testing.T) {
	plan := docsPlan()
	out := Explain(plan)
	for _, want := range []string{"Project", "HashJoin", "Select", "Scan triples"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	if n := CountNodes(plan); n != 6 {
		t.Errorf("CountNodes = %d, want 6", n)
	}
}

func TestFingerprintsDiffer(t *testing.T) {
	a := NewSelect(NewScan("t"), expr.Cmp{Op: expr.Eq, L: expr.Column("x"), R: expr.Str("1")})
	b := NewSelect(NewScan("t"), expr.Cmp{Op: expr.Eq, L: expr.Column("x"), R: expr.Str("2")})
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("different predicates share a fingerprint")
	}
	c := NewSelect(NewScan("u"), expr.Cmp{Op: expr.Eq, L: expr.Column("x"), R: expr.Str("1")})
	if a.Fingerprint() == c.Fingerprint() {
		t.Error("different tables share a fingerprint")
	}
}

func TestValuesNode(t *testing.T) {
	rel := relation.NewBuilder([]string{"q"}, []vector.Kind{vector.String}).Add("history book").Build()
	ctx := NewCtx(catalog.New(0))
	r := mustExec(t, ctx, NewValues("query-1", rel))
	if r.NumRows() != 1 {
		t.Errorf("values rows = %d", r.NumRows())
	}
}
