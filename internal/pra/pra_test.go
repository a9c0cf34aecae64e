package pra

import (
	"context"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

func triplesBase(cat *catalog.Catalog) *Base {
	cat.Put("triples", relation.NewBuilder(
		[]string{"subject", "property", "object"},
		[]vector.Kind{vector.String, vector.String, vector.String},
	).
		Add("p1", "category", "toy").
		Add("p1", "description", "wooden train set").
		AddP(0.8, "p2", "category", "toy").
		Add("p2", "description", "toy cars").
		Add("p3", "category", "book").
		Add("p3", "description", "a history of toys").
		Build())
	return NewBase("triples", engine.NewScan("triples"), "subject", "property", "object")
}

func compileAndRun(t *testing.T, ctx *engine.Ctx, n Node) *relation.Relation {
	t.Helper()
	plan, err := n.Compile()
	if err != nil {
		t.Fatalf("compile %s: %v", n.String(), err)
	}
	rel, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatalf("exec %s: %v", n.String(), err)
	}
	return rel
}

// eqCond builds the SpinQL condition $idx = "value".
func eqCond(idx int, value string) expr.Expr {
	return expr.Cmp{Op: expr.Eq, L: expr.ColumnAt(idx), R: expr.Str(value)}
}

// paperDocsPlan is the exact plan from section 2.3:
//
//	docs = PROJECT [$1,$6] (
//	  JOIN INDEPENDENT [$1=$1] (
//	    SELECT [$2="category" and $3="toy"] (triples),
//	    SELECT [$2="description"] (triples) ) );
func paperDocsPlan(base *Base) Node {
	return NewProject(
		NewJoin(
			NewSelect(base, expr.And{L: eqCond(2, "category"), R: eqCond(3, "toy")}),
			NewSelect(base, eqCond(2, "description")),
			Independent,
			JoinCond{L: 1, R: 1},
		),
		None, 1, 6)
}

func TestPaperDocsPlan(t *testing.T) {
	cat := catalog.New(0)
	base := triplesBase(cat)
	ctx := engine.NewCtx(cat)
	docs := compileAndRun(t, ctx, paperDocsPlan(base))
	if docs.NumRows() != 2 {
		t.Fatalf("docs rows = %d, want 2", docs.NumRows())
	}
	got := map[string]float64{}
	for i := 0; i < docs.NumRows(); i++ {
		got[docs.Col(0).Vec.Format(i)] = docs.Prob()[i]
	}
	// p2's category triple has p=0.8 → JOIN INDEPENDENT: 0.8 · 1.0
	if got["p1"] != 1.0 || math.Abs(got["p2"]-0.8) > 1e-12 {
		t.Errorf("docs probabilities = %v", got)
	}
	// $6 must be the second relation's object column
	if docs.NumCols() != 2 {
		t.Errorf("docs cols = %d", docs.NumCols())
	}
}

func TestPaperDocsSQLTranslation(t *testing.T) {
	cat := catalog.New(0)
	base := triplesBase(cat)
	sql, err := ToSQL(paperDocsPlan(base))
	if err != nil {
		t.Fatal(err)
	}
	// Must match the structure of the paper's translation:
	//   SELECT t2.subject as docID, t2.object as data, t1.p * t2.p as p
	//   FROM triples t1, triples t2
	//   WHERE t1.property = 'category' AND t1.object = 'toy'
	//     AND t2.property = 'description' AND t1.subject = t2.subject
	for _, want := range []string{
		"FROM triples t1, triples t2",
		"t1.property = 'category' AND t1.object = 'toy'",
		"t2.property = 'description'",
		"t1.subject = t2.subject",
		"t1.p * t2.p as p",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestSchemaPropagation(t *testing.T) {
	cat := catalog.New(0)
	base := triplesBase(cat)
	j := NewJoin(base, base, Independent, JoinCond{1, 1})
	want := []string{"subject", "property", "object", "subject_2", "property_2", "object_2"}
	got := j.Schema()
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("join schema = %v", got)
	}
	p := NewProject(j, None, 1, 6)
	if s := p.Schema(); s[0] != "subject" || s[1] != "object_2" {
		t.Errorf("project schema = %v", s)
	}
}

func TestArityValidation(t *testing.T) {
	cat := catalog.New(0)
	base := triplesBase(cat)
	if _, err := NewProject(base, None, 5).Compile(); err == nil {
		t.Error("PROJECT $5 over 3 columns should fail")
	}
	if _, err := NewSelect(base, eqCond(9, "x")).Compile(); err == nil {
		t.Error("SELECT $9 should fail")
	}
	if _, err := NewJoin(base, base, Independent, JoinCond{4, 1}).Compile(); err == nil {
		t.Error("JOIN left $4 should fail")
	}
	if _, err := NewJoin(base, base, Independent, JoinCond{1, 4}).Compile(); err == nil {
		t.Error("JOIN right $4 should fail")
	}
	if _, err := NewJoin(base, base, Independent).Compile(); err == nil {
		t.Error("JOIN with no conditions should fail")
	}
	if _, err := NewBayes(base, Disjoint, 9).Compile(); err == nil {
		t.Error("BAYES $9 should fail")
	}
	if _, err := NewBayes(base, Independent, 1).Compile(); err == nil {
		t.Error("BAYES INDEPENDENT should fail (sum/max only)")
	}
	if _, err := NewWeight(base, 1.5).Compile(); err == nil {
		t.Error("WEIGHT 1.5 should fail")
	}
	two := NewProject(base, None, 1, 2)
	if _, err := NewUnite(base, two, Independent).Compile(); err == nil {
		t.Error("UNITE arity mismatch should fail")
	}
	if _, err := NewSubtract(base, two).Compile(); err == nil {
		t.Error("SUBTRACT arity mismatch should fail")
	}
}

func TestProjectAssumptions(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("ev", relation.NewBuilder([]string{"k", "v"}, []vector.Kind{vector.String, vector.String}).
		AddP(0.5, "a", "x").AddP(0.5, "a", "y").AddP(0.3, "b", "z").Build())
	base := NewBase("ev", engine.NewScan("ev"), "k", "v")
	ctx := engine.NewCtx(cat)

	bag := compileAndRun(t, ctx, NewProject(base, None, 1))
	if bag.NumRows() != 3 {
		t.Errorf("bag projection rows = %d, want 3", bag.NumRows())
	}
	ind := compileAndRun(t, ctx, NewProject(base, Independent, 1))
	if ind.NumRows() != 2 {
		t.Fatalf("independent projection rows = %d, want 2", ind.NumRows())
	}
	probs := map[string]float64{}
	for i := 0; i < ind.NumRows(); i++ {
		probs[ind.Col(0).Vec.Format(i)] = ind.Prob()[i]
	}
	if math.Abs(probs["a"]-0.75) > 1e-12 {
		t.Errorf("independent p(a) = %g, want 0.75", probs["a"])
	}
	dis := compileAndRun(t, ctx, NewProject(base, Disjoint, 1))
	for i := 0; i < dis.NumRows(); i++ {
		if dis.Col(0).Vec.Format(i) == "a" && math.Abs(dis.Prob()[i]-1.0) > 1e-12 {
			t.Errorf("disjoint p(a) = %g, want 1.0", dis.Prob()[i])
		}
	}
	mx := compileAndRun(t, ctx, NewProject(base, Max, 1))
	for i := 0; i < mx.NumRows(); i++ {
		if mx.Col(0).Vec.Format(i) == "a" && mx.Prob()[i] != 0.5 {
			t.Errorf("max p(a) = %g, want 0.5", mx.Prob()[i])
		}
	}
}

func TestUniteAndSubtractSemantics(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("l", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).AddP(0.6, "a").Build())
	cat.Put("r", relation.NewBuilder([]string{"y"}, []vector.Kind{vector.String}).AddP(0.5, "a").Add("b").Build())
	l := NewBase("l", engine.NewScan("l"), "x")
	r := NewBase("r", engine.NewScan("r"), "y")
	ctx := engine.NewCtx(cat)

	u := compileAndRun(t, ctx, NewUnite(l, r, Independent))
	probs := map[string]float64{}
	for i := 0; i < u.NumRows(); i++ {
		probs[u.Col(0).Vec.Format(i)] = u.Prob()[i]
	}
	if math.Abs(probs["a"]-0.8) > 1e-12 { // 1-(1-0.6)(1-0.5)
		t.Errorf("unite p(a) = %g, want 0.8", probs["a"])
	}
	if probs["b"] != 1.0 {
		t.Errorf("unite p(b) = %g", probs["b"])
	}

	s := compileAndRun(t, ctx, NewSubtract(l, r))
	if s.NumRows() != 1 {
		t.Fatalf("subtract rows = %d", s.NumRows())
	}
	if math.Abs(s.Prob()[0]-0.3) > 1e-12 { // 0.6 · (1-0.5)
		t.Errorf("subtract p(a) = %g, want 0.3", s.Prob()[0])
	}
}

func TestWeightAndBayes(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("s", relation.NewBuilder([]string{"d"}, []vector.Kind{vector.String}).
		AddP(0.2, "d1").AddP(0.6, "d2").AddP(0.2, "d3").Build())
	base := NewBase("s", engine.NewScan("s"), "d")
	ctx := engine.NewCtx(cat)

	w := compileAndRun(t, ctx, NewWeight(base, 0.5))
	if math.Abs(w.Prob()[1]-0.3) > 1e-12 {
		t.Errorf("weight p = %v", w.Prob())
	}

	// Global sum normalization: probabilities must sum to 1.
	bay := compileAndRun(t, ctx, NewBayes(base, Disjoint))
	var sum float64
	for _, p := range bay.Prob() {
		sum += p
	}
	if math.Abs(sum-1.0) > 1e-12 {
		t.Errorf("bayes sum = %g, want 1", sum)
	}
	// Max normalization: best tuple becomes 1.
	baymax := compileAndRun(t, ctx, NewBayes(base, Max))
	best := 0.0
	for _, p := range baymax.Prob() {
		if p > best {
			best = p
		}
	}
	if best != 1.0 {
		t.Errorf("bayes max best = %g, want 1", best)
	}
}

func TestBayesGrouped(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("s", relation.NewBuilder([]string{"g", "d"}, []vector.Kind{vector.String, vector.String}).
		AddP(0.2, "g1", "a").AddP(0.2, "g1", "b").AddP(0.5, "g2", "c").Build())
	base := NewBase("s", engine.NewScan("s"), "g", "d")
	ctx := engine.NewCtx(cat)
	r := compileAndRun(t, ctx, NewBayes(base, Disjoint, 1))
	sums := map[string]float64{}
	for i := 0; i < r.NumRows(); i++ {
		sums[r.Col(0).Vec.Format(i)] += r.Prob()[i]
	}
	if math.Abs(sums["g1"]-1.0) > 1e-12 || math.Abs(sums["g2"]-1.0) > 1e-12 {
		t.Errorf("per-group sums = %v, want 1 each", sums)
	}
}

// Probability soundness: starting from valid probabilities, every PRA
// operator (except the explicitly unnormalized SumRaw) yields values in
// [0,1].
func TestProbabilityRangeProperty(t *testing.T) {
	f := func(rawA, rawB []float64) bool {
		clamp := func(in []float64) []float64 {
			out := make([]float64, 0, len(in))
			for _, p := range in {
				p = math.Abs(p)
				p -= math.Floor(p) // into [0,1)
				out = append(out, p)
			}
			if len(out) == 0 {
				out = append(out, 0.5)
			}
			return out
		}
		pa, pb := clamp(rawA), clamp(rawB)
		cat := catalog.New(0)
		ba := relation.NewBuilder([]string{"k"}, []vector.Kind{vector.Int64})
		for i, p := range pa {
			ba.AddP(p, i%3)
		}
		bb := relation.NewBuilder([]string{"k"}, []vector.Kind{vector.Int64})
		for i, p := range pb {
			bb.AddP(p, i%3)
		}
		cat.Put("a", ba.Build())
		cat.Put("b", bb.Build())
		a := NewBase("a", engine.NewScan("a"), "k")
		b := NewBase("b", engine.NewScan("b"), "k")
		ctx := engine.NewCtx(cat)

		plans := []Node{
			NewProject(a, Independent, 1),
			NewProject(a, Disjoint, 1),
			NewProject(a, Max, 1),
			NewJoin(a, b, Independent, JoinCond{1, 1}),
			NewUnite(a, b, Independent),
			NewUnite(a, b, Disjoint),
			NewSubtract(a, b),
			NewWeight(a, 0.7),
			NewBayes(a, Disjoint, 1),
			NewBayes(a, Max),
		}
		for _, plan := range plans {
			en, err := plan.Compile()
			if err != nil {
				return false
			}
			rel, err := ctx.Exec(context.Background(), en)
			if err != nil {
				return false
			}
			for _, p := range rel.Prob() {
				if p < -1e-12 || p > 1+1e-12 || math.IsNaN(p) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestStringRendering(t *testing.T) {
	cat := catalog.New(0)
	base := triplesBase(cat)
	plan := paperDocsPlan(base)
	s := plan.String()
	for _, want := range []string{"PROJECT [$1,$6]", "JOIN INDEPENDENT [$1=$1]", `SELECT [(($2 = "category") and ($3 = "toy"))]`, "triples"} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	if !strings.Contains(NewWeight(base, 0.7).String(), "WEIGHT [0.7]") {
		t.Error("WEIGHT rendering wrong")
	}
	if !strings.Contains(NewBayes(base, Disjoint, 1).String(), "BAYES DISJOINT [$1]") {
		t.Error("BAYES rendering wrong")
	}
}
