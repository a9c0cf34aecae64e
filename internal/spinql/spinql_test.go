package spinql

import (
	"context"
	"math"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/pra"
	"irdb/internal/relation"
	"irdb/internal/triple"
	"irdb/internal/vector"
)

// paperProgram is the verbatim SpinQL example of section 2.3.
const paperProgram = `
docs = PROJECT [$1,$6] (
  JOIN INDEPENDENT [$1=$1] (
    SELECT [$2="category" and $3="toy"] (triples),
    SELECT [$2="description"] (triples) ) );
`

// eval parses src against env and executes the optimized plan of its
// last statement under c.
func eval(c context.Context, src string, env *Env, ctx *engine.Ctx) (*relation.Relation, error) {
	prog, err := Parse(src, env)
	if err != nil {
		return nil, err
	}
	plan, err := prog.Result().Compile()
	if err != nil {
		return nil, err
	}
	return ctx.Exec(c, ctx.Optimize(plan))
}

func newStoreCtx(t *testing.T) (*Env, *engine.Ctx) {
	t.Helper()
	return TriplesEnv(), storeCtx()
}

// storeCtx loads the toy products: three with a category and a
// description, two of them with a price.
func storeCtx() *engine.Ctx {
	cat := catalog.New(0)
	s := triple.NewStore(cat)
	s.Load([]triple.Triple{
		{Subject: "p1", Property: "category", Obj: triple.String("toy")},
		{Subject: "p1", Property: "description", Obj: triple.String("wooden train set")},
		{Subject: "p2", Property: "category", Obj: triple.String("toy"), P: 0.8},
		{Subject: "p2", Property: "description", Obj: triple.String("toy cars")},
		{Subject: "p3", Property: "category", Obj: triple.String("book")},
		{Subject: "p3", Property: "description", Obj: triple.String("a history of toys")},
		{Subject: "p1", Property: "price", Obj: triple.Int(25)},
		{Subject: "p2", Property: "price", Obj: triple.Int(5)},
	})
	return engine.NewCtx(cat)
}

func TestPaperProgramEndToEnd(t *testing.T) {
	env, ctx := newStoreCtx(t)
	rel, err := eval(context.Background(), paperProgram, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 || rel.NumCols() != 2 {
		t.Fatalf("docs = %dx%d, want 2x2\n%s", rel.NumRows(), rel.NumCols(), rel.Format(-1))
	}
	probs := map[string]float64{}
	data := map[string]string{}
	for i := 0; i < rel.NumRows(); i++ {
		id := rel.Col(0).Vec.Format(i)
		probs[id] = rel.Prob()[i]
		data[id] = rel.Col(1).Vec.Format(i)
	}
	if probs["p1"] != 1.0 || math.Abs(probs["p2"]-0.8) > 1e-12 {
		t.Errorf("probabilities = %v", probs)
	}
	if data["p1"] != "wooden train set" || data["p2"] != "toy cars" {
		t.Errorf("descriptions = %v", data)
	}
}

func TestNamedStatementsComposable(t *testing.T) {
	env, ctx := newStoreCtx(t)
	src := paperProgram + `
ranked = WEIGHT [0.5] (docs);
ranked;
`
	rel, err := eval(context.Background(), src, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rel.Prob() {
		if p > 0.5+1e-12 {
			t.Errorf("weighted p = %g > 0.5", p)
		}
	}
	// "docs" must now be defined in env for later programs
	if _, ok := env.Lookup("docs"); !ok {
		t.Error("docs not added to environment")
	}
}

func TestIntPartitionQuery(t *testing.T) {
	env, ctx := newStoreCtx(t)
	rel, err := eval(context.Background(), `SELECT [$2="price" and $3 >= 10] (triples_int);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Col(0).Vec.Format(0) != "p1" {
		t.Errorf("price query = \n%s", rel.Format(-1))
	}
}

func TestUniteSubtractBayes(t *testing.T) {
	env, ctx := newStoreCtx(t)
	toys := `toys = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="toy"] (triples));`
	books := `books = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="book"] (triples));`

	both, err := eval(context.Background(), toys+books+`UNITE DISJOINT [] (toys, books);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if both.NumRows() != 3 {
		t.Errorf("unite rows = %d, want 3", both.NumRows())
	}

	onlyToys, err := eval(context.Background(), `SUBTRACT [] (toys, books);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if onlyToys.NumRows() != 2 {
		t.Errorf("subtract rows = %d, want 2", onlyToys.NumRows())
	}

	norm, err := eval(context.Background(), `BAYES DISJOINT [] (toys);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range norm.Prob() {
		sum += p
	}
	if math.Abs(sum-1.0) > 1e-12 {
		t.Errorf("bayes-normalized sum = %g", sum)
	}
}

func TestConditionOperatorsAndLiterals(t *testing.T) {
	env, ctx := newStoreCtx(t)
	cases := []struct {
		src  string
		rows int
	}{
		{`SELECT [$2="price" and $3 != 25] (triples_int);`, 1},
		{`SELECT [$2="price" and $3 < 25] (triples_int);`, 1},
		{`SELECT [$2="price" and ($3 = 25 or $3 = 5)] (triples_int);`, 2},
		{`SELECT [not $2="price"] (triples_int);`, 0},
		{`SELECT [$2 <> "price"] (triples_int);`, 0},
		{`SELECT [$3 > 4.5] (triples_int);`, 2},
	}
	for _, c := range cases {
		rel, err := eval(context.Background(), c.src, env, ctx)
		if err != nil {
			t.Errorf("%s: %v", c.src, err)
			continue
		}
		if rel.NumRows() != c.rows {
			t.Errorf("%s: rows = %d, want %d", c.src, rel.NumRows(), c.rows)
		}
	}
}

func TestParseErrors(t *testing.T) {
	env := TriplesEnv()
	cases := []string{
		``,                                    // empty program
		`SELECT [$2="x"] (nope);`,             // unknown relation
		`SELECT [$2="x"] (triples)`,           // missing semicolon
		`FROBNICATE [] (triples);`,            // unknown op → unknown relation
		`SELECT [$2=] (triples);`,             // bad condition
		`PROJECT [x] (triples);`,              // bad column ref
		`JOIN [1=1] (triples, triples);`,      // join conds must be $n=$n
		`WEIGHT ["high"] (triples);`,          // weight wants number
		`SELECT [$2="x"] (triples, triples);`, // arity
		`PROJECT DISJOINT [$] (triples);`,     // bare $
		`SELECT [$2="unterminated] (triples);`,
		`UNITE BOGUS [] (triples, triples);`, // unknown assumption
	}
	for _, src := range cases {
		if _, err := Parse(src, env); err == nil {
			t.Errorf("Parse(%q) unexpectedly succeeded", src)
		}
	}
}

func TestCompileErrorsSurface(t *testing.T) {
	env, ctx := newStoreCtx(t)
	// parses fine, fails at compile: $9 out of range
	if _, err := eval(context.Background(), `PROJECT [$9] (triples);`, env, ctx); err == nil {
		t.Error("PROJECT $9 should fail at compile")
	}
	if _, err := eval(context.Background(), `WEIGHT [1.5] (triples);`, env, ctx); err == nil {
		t.Error("WEIGHT 1.5 should fail at compile")
	}
}

func TestExplainAndToSQL(t *testing.T) {
	env, _ := newStoreCtx(t)
	prog, err := Parse(paperProgram, env)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prog.Result().Compile()
	if err != nil {
		t.Fatal(err)
	}
	out := engine.Explain(plan)
	for _, want := range []string{"Project", "HashJoin[independent]", "Select"} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain missing %q:\n%s", want, out)
		}
	}
	sql, err := ToSQL(paperProgram, env)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sql, "t1.p * t2.p as p") {
		t.Errorf("SQL translation missing probability product:\n%s", sql)
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	env, ctx := newStoreCtx(t)
	src := `
-- select all toy products
# hash comments work too
SELECT [$2="category" and $3="toy"] (triples);`
	rel, err := eval(context.Background(), src, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

func TestCaseInsensitiveKeywords(t *testing.T) {
	env, ctx := newStoreCtx(t)
	rel, err := eval(context.Background(), `select [$2="category" AND $3="toy"] (TRIPLES);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d", rel.NumRows())
	}
}

// Round trip: the SpinQL-ish String() rendering of a PRA plan must parse
// back into a plan that evaluates identically.
func TestPlanStringRoundTrip(t *testing.T) {
	env, ctx := newStoreCtx(t)
	programs := []string{
		paperProgram,
		`PROJECT INDEPENDENT [$1] (SELECT [$2="category"] (triples));`,
		`UNITE DISJOINT [] (PROJECT MAX [$1] (triples), PROJECT MAX [$1] (triples));`,
		`WEIGHT [0.25] (BAYES DISJOINT [$2] (triples));`,
		`SUBTRACT [] (PROJECT INDEPENDENT [$1] (triples), PROJECT INDEPENDENT [$1] (SELECT [$2="price"] (triples)));`,
		`SELECT [$2="category" or not $3="toy"] (triples);`,
	}
	for _, src := range programs {
		prog, err := Parse(src, env)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		rendered := prog.Result().String() + ";"
		prog2, err := Parse(rendered, NewEnvFrom(env))
		if err != nil {
			t.Fatalf("re-parse rendered %q: %v", rendered, err)
		}
		a, err := evalPlan(ctx, prog.Result())
		if err != nil {
			t.Fatalf("eval original %s: %v", src, err)
		}
		b, err := evalPlan(ctx, prog2.Result())
		if err != nil {
			t.Fatalf("eval rendered %s: %v", rendered, err)
		}
		if a.NumRows() != b.NumRows() || a.NumCols() != b.NumCols() {
			t.Errorf("round trip changed shape for %s: %dx%d vs %dx%d",
				src, a.NumRows(), a.NumCols(), b.NumRows(), b.NumCols())
		}
	}
}

func evalPlan(ctx *engine.Ctx, n pra.Node) (*relation.Relation, error) {
	plan, err := n.Compile()
	if err != nil {
		return nil, err
	}
	return ctx.Exec(context.Background(), plan)
}

// NewEnvFrom clones the base definitions of env (test helper).
func NewEnvFrom(env *Env) *Env {
	out := NewEnv()
	for _, name := range env.Names() {
		if n, ok := env.Lookup(name); ok {
			out.Define(name, n)
		}
	}
	return out
}

func TestEnvIsolation(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("mine", relation.NewBuilder([]string{"a", "b"}, []vector.Kind{vector.String, vector.String}).
		Add("x", "y").Build())
	env := NewEnv()
	env.Define("mine", pra.NewBase("mine", engine.NewScan("mine"), "a", "b"))
	ctx := engine.NewCtx(cat)
	rel, err := eval(context.Background(), `PROJECT [$2] (mine);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 1 || rel.Col(0).Vec.Format(0) != "y" {
		t.Errorf("custom base = %s", rel.Format(-1))
	}
}

func TestParamPlaceholders(t *testing.T) {
	env := TriplesEnv()
	prog, err := Parse(`SELECT [$2 = ?prop and $3 > ?min] (triples_int);`, env)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := prog.Result().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if got := engine.Params(plan); len(got) != 2 || got[0] != "prop" || got[1] != "min" {
		t.Fatalf("Params = %v", got)
	}
	// Binding yields another plan than the prepared one: exactly the plan
	// compiled with the literals written in.
	bound, err := engine.Bind(plan, func(name string) (expr.Lit, bool) {
		switch name {
		case "prop":
			return expr.Str("price"), true
		case "min":
			return expr.Int(10), true
		}
		return expr.Lit{}, false
	})
	if err != nil {
		t.Fatal(err)
	}
	litProg, err := Parse(`SELECT [$2 = "price" and $3 > 10] (triples_int);`, TriplesEnv())
	if err != nil {
		t.Fatal(err)
	}
	literal, err := litProg.Result().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if bound.Fingerprint() == plan.Fingerprint() {
		t.Error("bound plan shares the prepared plan's digest")
	}
	if bound.Fingerprint() != literal.Fingerprint() {
		t.Errorf("bound plan differs from the literal plan:\n%s\n%s", engine.Explain(bound), engine.Explain(literal))
	}
	// A bare '?' or '?1' is a lex error.
	for _, bad := range []string{`SELECT [$2 = ?] (triples);`, `SELECT [$2 = ?1] (triples);`} {
		if _, err := Parse(bad, TriplesEnv()); err == nil {
			t.Fatalf("Parse(%q) succeeded, want error", bad)
		}
	}
}
