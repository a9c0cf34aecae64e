package spinql

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/pra"
	"irdb/internal/relation"
	"irdb/internal/triple"
	"irdb/internal/vector"
)

// chainDefs joins the triples three times on the subject, so the third
// input's columns need the second suffix: y's schema is subject …
// object_2, subject_3, property_3, object_3.
const chainDefs = `
x = JOIN [$1=$1] (SELECT [$2="category"] (triples), SELECT [$2="description"] (triples));
y = JOIN [$1=$1] (x, SELECT [$2="category"] (triples));
`

// TestJoinChainNames: a column of a join whose input already carries
// suffixed names is addressed by the name the engine gives it.
func TestJoinChainNames(t *testing.T) {
	env, ctx := newStoreCtx(t)
	run := func(t *testing.T, src string) *relation.Relation {
		t.Helper()
		rel, err := eval(context.Background(), chainDefs+src, env, ctx)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		return rel
	}
	const want = "subject,property,object,subject_2,property_2,object_2,subject_3,property_3,object_3"

	t.Run("schema", func(t *testing.T) {
		if got := strings.Join(run(t, `y;`).ColumnNames(), ","); got != want {
			t.Errorf("y columns = %s, want %s", got, want)
		}
	})

	// $8 is the third input's property: every row says "category".
	t.Run("group", func(t *testing.T) {
		g := run(t, `GROUP [$8 ; count() as n] (y);`)
		if g.NumRows() != 1 || g.Col(0).Vec.Format(0) != "category" || g.Col(1).Vec.Format(0) != "3" {
			t.Errorf("GROUP [$8] (y) =\n%s, want category 3", g.Format(-1))
		}
	})

	// Subtracting a relation from itself keeps only the rows whose
	// probability is below 1, discounted by themselves.
	t.Run("subtract", func(t *testing.T) {
		s := run(t, `SUBTRACT [] (y, y);`)
		if s.NumRows() != 1 || s.Col(0).Vec.Format(0) != "p2" || math.Abs(s.Prob()[0]-0.64*0.36) > 1e-12 {
			t.Errorf("SUBTRACT [] (y, y) =\n%s", s.Format(-1))
		}
	})

	// A projection that repeats a column numbers the repeat past the
	// names its input already holds.
	t.Run("project", func(t *testing.T) {
		p := run(t, `PROJECT [$1,$1,$4] (x);`)
		if got := strings.Join(p.ColumnNames(), ","); got != "subject,subject_2,subject_2_2" || p.NumRows() != 3 {
			t.Errorf("PROJECT [$1,$1,$4] (x) =\n%s", p.Format(-1))
		}
	})

	t.Run("sql", func(t *testing.T) {
		sql, err := ToSQL(chainDefs+`y;`, env)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range strings.Split(want, ",") {
			if n := strings.Count(sql, " as "+name+","); n != 1 {
				t.Errorf("SQL names %s %d times", name, n)
			}
		}
		if t.Failed() {
			t.Log(sql)
		}
	})
}

// TestJoinAssumptions: a join combines probabilities independently or
// keeps the left one (MAX); DISJOINT and SUM have no join rule, so they
// are refused rather than run as INDEPENDENT.
func TestJoinAssumptions(t *testing.T) {
	for _, a := range []string{"DISJOINT", "SUM"} {
		_, err := Parse(`JOIN `+a+` [$1=$1] (triples, triples);`, TriplesEnv())
		if err == nil || !strings.Contains(err.Error(), "JOIN takes INDEPENDENT or MAX") {
			t.Errorf("JOIN %s: err = %v, want a refusal", a, err)
		}
	}
	for _, a := range []string{"", "INDEPENDENT ", "MAX "} {
		if _, err := Parse(`JOIN `+a+`[$1=$1] (triples, triples);`, TriplesEnv()); err != nil {
			t.Errorf("JOIN %s: %v", a, err)
		}
	}
}

// TestUnknownRelationMessage: the error lists the defined names sorted,
// so it reads the same on every run.
func TestUnknownRelationMessage(t *testing.T) {
	_, err := Parse(`SELECT [$2="x"] (nope);`, TriplesEnv())
	const want = `spinql: line 1: unknown relation "nope" (defined: triples, triples_flt, triples_int)`
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}

// TestDuplicateNamesRefused: names a program gives twice are refused when
// the plan is compiled, naming the column, instead of failing at run time.
func TestDuplicateNamesRefused(t *testing.T) {
	for _, tc := range []struct{ src, col string }{
		{`MAP [$1 as a, $2 as a] (triples);`, `"a"`},
		{`GROUP [$1 ; count() as subject] (triples);`, `"subject"`},
		{`GROUP [$1,$1 ; count() as n] (triples);`, `"subject"`},
		{`TOKENIZE [$1,$2] (MAP [$1 as token, $2 as text] (triples));`, `"token"`},
	} {
		prog, err := Parse(tc.src, TriplesEnv())
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if _, err := prog.Result().Compile(); err == nil || !strings.Contains(err.Error(), tc.col) {
			t.Errorf("%s: err = %v, want a refusal naming %s", tc.src, err, tc.col)
		}
	}
}

// differentialPrograms are the SpinQL programs the naive ≡ optimized
// differential runs: the paper's program, BM25, the join-chain programs
// and every other operator form, with selections above joins and
// projections over them for the optimizer's name-based rewrites.
var differentialPrograms = []string{
	paperProgram,
	bm25Program,
	chainDefs + `GROUP [$8 ; count() as n] (y);`,
	chainDefs + `SUBTRACT [] (y, y);`,
	chainDefs + `PROJECT [$1,$1,$4] (x);`,
	chainDefs + `PROJECT INDEPENDENT [$3,$9] (SELECT [$3="toy" and $6 != "toy cars"] (y));`,
	`PROJECT [$1,$6] (SELECT [$2="category" and $5="description"] (JOIN [$1=$1] (triples, triples)));`,
	`SELECT [$3="book" or $6="a history of toys"] (JOIN MAX [$1=$1] (triples, triples));`,
	`toys = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="toy"] (triples));
	 books = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="book"] (triples));
	 UNITE DISJOINT [] (toys, books);`,
	`UNITE INDEPENDENT [] (SELECT [$2="category"] (triples), WEIGHT [0.5] (SELECT [$3="toy"] (triples)));`,
	`UNITE [] (PROJECT [$1] (triples), PROJECT [$3] (triples));`,
	`SUBTRACT [] (PROJECT INDEPENDENT [$1] (triples), PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="book"] (triples)));`,
	`BAYES DISJOINT [$2] (SELECT [$2="category" or $2="description"] (triples));`,
	`WEIGHT [0.25] (BAYES MAX [] (PROJECT DISJOINT [$1,$3] (SELECT [$2="category"] (triples))));`,
	`PROJECT [$1,$4] (SELECT [$5="price" and $6 > 40] (JOIN [$1=$1] (SELECT [$2="category"] (triples), triples_int)));`,
	`GROUP SUM [$1 ; count() as n, sum($3) as total] (MAP [$1 as s, $2 as p, $3 * 2 as v] (triples_int));`,
}

// diffStore loads enough triples, documents and queries that scans,
// joins and groupings split into several morsels at parallelism 2 and 8.
func diffStore(t *testing.T, par int) (*Env, *engine.Ctx) {
	t.Helper()
	cat := catalog.New(0)
	words := []string{"wooden", "train", "toy", "cars", "history", "book", "venice", "tracks", "set", "game"}
	var ts []triple.Triple
	docs := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.Int64, vector.String})
	for i := 0; i < 3000; i++ {
		s := fmt.Sprintf("p%04d", i)
		desc := words[i%len(words)] + " " + words[(i/3)%len(words)] + " " + words[(i*7)%len(words)]
		ts = append(ts,
			triple.Triple{Subject: s, Property: "category", Obj: triple.String([]string{"toy", "book", "game"}[i%3]), P: 0.5 + float64(i%5)/10},
			triple.Triple{Subject: s, Property: "description", Obj: triple.String(desc), P: 1 - float64(i%7)/20},
			triple.Triple{Subject: s, Property: "price", Obj: triple.Int(int64(i % 97)), P: 1})
		docs.Add(int64(i), desc)
	}
	triple.NewStore(cat).Load(ts)
	cat.Put("docs", docs.Build())
	query := relation.NewBuilder([]string{"qID", "q"}, []vector.Kind{vector.Int64, vector.String})
	query.Add(0, "toy train history")
	cat.Put("query", query.Build())
	env := TriplesEnv()
	env.Define("docs", pra.NewBase("docs", engine.NewScan("docs"), "docID", "data"))
	env.Define("query", pra.NewBase("query", engine.NewScan("query"), "qID", "q"))
	return env, &engine.Ctx{Cat: cat, Parallelism: par, UseCache: true}
}

// TestOptimizedMatchesNaive: every program returns the same column
// names, rows and row order, with bit-identical probabilities, whether
// its plan runs as compiled at parallelism 1 or optimized at parallelism
// 1, 2 and 8. SpinQL plans address columns by name, so the optimizer's
// pushdown and pruning rewrites fire on them.
func TestOptimizedMatchesNaive(t *testing.T) {
	rewrites := 0
	for _, src := range differentialPrograms {
		env, ref := diffStore(t, 1)
		prog, err := Parse(src, env)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		naive, err := prog.Result().Compile()
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := ref.Exec(context.Background(), naive)
		if err != nil {
			t.Fatalf("%s: naive: %v", src, err)
		}
		if want.NumRows() == 0 {
			t.Errorf("%s: no rows; the comparison would prove nothing", src)
		}
		if got := strings.Join(want.ColumnNames(), ","); got != strings.Join(prog.Result().Schema(), ",") {
			t.Errorf("%s: columns %s, schema %v", src, got, prog.Result().Schema())
		}
		optimized, info := engine.Optimize(ref.Cat, naive)
		rewrites += info.SelectsPushed + info.ColumnsPruned
		for _, par := range []int{1, 2, 8} {
			_, ctx := diffStore(t, par)
			got, err := ctx.Exec(context.Background(), optimized)
			if err != nil {
				t.Fatalf("%s: optimized par=%d: %v", src, par, err)
			}
			if msg := sameRelation(got, want); msg != "" {
				t.Errorf("%s: optimized par=%d: %s\nnaive:\n%s\noptimized:\n%s",
					src, par, msg, engine.Explain(naive), engine.Explain(optimized))
			}
		}
	}
	if rewrites == 0 {
		t.Error("no program was rewritten; the differential checked nothing")
	}
}

// sameRelation describes the first difference between a and b — column
// names, row count, a value or a probability's bits — or returns "".
func sameRelation(a, b *relation.Relation) string {
	if an, bn := strings.Join(a.ColumnNames(), ","), strings.Join(b.ColumnNames(), ","); an != bn {
		return fmt.Sprintf("columns %s vs %s", an, bn)
	}
	if a.NumRows() != b.NumRows() {
		return fmt.Sprintf("%d vs %d rows", a.NumRows(), b.NumRows())
	}
	ap, bp := a.Prob(), b.Prob()
	for i := 0; i < a.NumRows(); i++ {
		for c := 0; c < a.NumCols(); c++ {
			if av, bv := a.Col(c).Vec, b.Col(c).Vec; av.Kind() != bv.Kind() || !av.EqualAt(i, bv, i) {
				return fmt.Sprintf("row %d column %s: %s vs %s", i, a.Col(c).Name, av.Format(i), bv.Format(i))
			}
		}
		if math.Float64bits(ap[i]) != math.Float64bits(bp[i]) {
			return fmt.Sprintf("row %d probability %v vs %v", i, ap[i], bp[i])
		}
	}
	return ""
}

// TestJoinInputsNarrow: a projection over a join of two triples
// selections makes the optimized join output only the two columns it
// keeps, under the names the unpruned join gave them, and narrows both
// join inputs — although narrowing the left input frees the name object
// that the right input's object was renamed away from. Its rows equal
// the naive plan's.
func TestJoinInputsNarrow(t *testing.T) {
	env, ctx := newStoreCtx(t)
	const src = `PROJECT INDEPENDENT [$1,$6] (JOIN INDEPENDENT [$1=$1] (
		SELECT [$2="category" and $3="toy"] (triples),
		SELECT [$2="description"] (triples)));`
	prog, err := Parse(src, env)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := prog.Result().Compile()
	if err != nil {
		t.Fatal(err)
	}
	optimized := ctx.Optimize(naive)
	var join *engine.HashJoin
	var find func(n engine.Node)
	find = func(n engine.Node) {
		if j, ok := n.(*engine.HashJoin); ok {
			join = j
			return
		}
		for _, c := range n.Children() {
			find(c)
		}
	}
	find(optimized)
	if join == nil {
		t.Fatalf("no join in the optimized plan:\n%s", engine.Explain(optimized))
	}
	want := []engine.JoinCol{{Col: "subject", Name: "subject"}, {Right: true, Col: "object", Name: "object_2"}}
	if fmt.Sprint(join.Out) != fmt.Sprint(want) {
		t.Errorf("join outputs %v, want %v\n%s", join.Out, want, engine.Explain(optimized))
	}
	bg := context.Background()
	for _, side := range []struct {
		name string
		in   engine.Node
		want string
	}{{"left", join.L, "subject"}, {"right", join.R, "subject,object"}} {
		rel, err := ctx.Exec(bg, side.in)
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(rel.ColumnNames(), ","); got != side.want {
			t.Errorf("%s join input has columns %s, want %s\n%s", side.name, got, side.want, engine.Explain(optimized))
		}
	}
	wantRel, err := ctx.Exec(bg, naive)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctx.Exec(bg, optimized)
	if err != nil {
		t.Fatal(err)
	}
	if wantRel.NumRows() == 0 {
		t.Fatal("the program returned no rows; the comparison would prove nothing")
	}
	if msg := sameRelation(got, wantRel); msg != "" {
		t.Errorf("optimized vs naive: %s", msg)
	}
}
