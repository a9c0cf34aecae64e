package spinql

import (
	"context"
	"math"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ir"
	"irdb/internal/pra"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// bm25Program is the full BM25 ranking pipeline of section 2.1 written
// entirely in SpinQL — the paper: "Block Rank by Text BM25 contains the
// BM25 implementation shown in Section 2.1, though expressed in SpinQL
// rather than SQL". It mirrors the paper's SQL views: term_doc, doc_len,
// tf, idf, tf_bm25, qterms, and the final score sum, with k1 = 1.2 and
// b = 0.75. Scalar "views" (collection size, average document length)
// become const-key joins.
const bm25Program = `
term_doc = MAP [stem(lcase($2),"sb-english") as term, $1 as docID]
             (TOKENIZE [$1,$2] (docs));

doc_len = GROUP [$2 ; count() as len] (term_doc);

tf = GROUP [$1,$2 ; count() as tf] (term_doc);

df = GROUP [$1 ; count() as df] (tf);

ndocs = MAP [$1 as n, 1 as one] (GROUP [; count() as n] (doc_len));

idf = MAP [$1 as term, log(1 + (($4 - $2 + 0.5) / ($2 + 0.5))) as idf]
        (JOIN MAX [$3=$2] (MAP [$1 as term, $2 as df, 1 as one] (df), ndocs));

avgdl = MAP [$1 as avgdl, 1 as one] (GROUP [; avg($2) as avgdl] (doc_len));

tf_len = JOIN MAX [$2=$1] (tf, doc_len);

tf_bm25 = MAP [$1 as term, $2 as docID,
               $3 / ($3 + 1.2 * (1 - 0.75 + 0.75 * ($4 / $6))) as tfn]
            (JOIN MAX [$5=$2]
              (MAP [$1 as term, $2 as docID, $3 as tf, $5 as len, 1 as one] (tf_len), avgdl));

weights = MAP [$1 as term, $2 as docID, $3 * $5 as w]
            (JOIN MAX [$1=$1] (tf_bm25, idf));

qterms = MAP [stem(lcase($2),"sb-english") as term]
           (TOKENIZE [$1,$2] (query));

scores = GROUP [$3 ; sum($4) as score]
           (JOIN MAX [$1=$1] (qterms, weights));

scores;
`

func TestBM25ExpressedInSpinQL(t *testing.T) {
	docs := []struct {
		id   int64
		data string
	}{
		{1, "wooden train set"},
		{2, "a history book about toys"},
		{3, "the history of venice"},
		{4, "toy train tracks"},
		{5, "a book about books and a book"},
	}
	b := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.Int64, vector.String})
	for _, d := range docs {
		b.Add(d.id, d.data)
	}
	cat := catalog.New(0)
	cat.Put("docs", b.Build())
	ctx := engine.NewCtx(cat)

	// Reference: the relational IR pipeline (itself verified against a
	// closed-form BM25 in package ir).
	searcher, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	for _, query := range []string{"history book", "toy train", "wooden"} {
		qb := relation.NewBuilder([]string{"qID", "q"}, []vector.Kind{vector.Int64, vector.String})
		qb.Add(0, query)
		cat.Put("query", qb.Build())

		env := NewEnv()
		env.Define("docs", pra.NewBase("docs", engine.NewScan("docs"), "docID", "data"))
		env.Define("query", pra.NewBase("query", engine.NewScan("query"), "qID", "q"))

		rel, err := eval(context.Background(), bm25Program, env, ctx)
		if err != nil {
			t.Fatalf("query %q: %v", query, err)
		}

		want, err := searcher.Search(context.Background(), query, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantScores := map[string]float64{}
		for _, h := range want {
			wantScores[h.DocID] = h.Score
		}
		if rel.NumRows() != len(want) {
			t.Fatalf("query %q: SpinQL returned %d docs, pipeline %d\n%s",
				query, rel.NumRows(), len(want), rel.Format(-1))
		}
		// Like the paper's final SQL, the program outputs (docID, score)
		// with the score as a value column.
		scoreCol := rel.Col(1).Vec.(*vector.Float64s)
		for i := 0; i < rel.NumRows(); i++ {
			docID := rel.Col(0).Vec.Format(i)
			score := scoreCol.Values()[i]
			if math.Abs(score-wantScores[docID]) > 1e-9 {
				t.Errorf("query %q doc %s: SpinQL %g, relational pipeline %g",
					query, docID, score, wantScores[docID])
			}
		}
	}
}

func TestMapGroupTokenizeBasics(t *testing.T) {
	cat := catalog.New(0)
	b := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.Int64, vector.String})
	b.Add(1, "Toys and toys")
	cat.Put("docs", b.Build())
	ctx := engine.NewCtx(cat)
	env := NewEnv()
	env.Define("docs", pra.NewBase("docs", engine.NewScan("docs"), "docID", "data"))

	// TOKENIZE output shape
	toks, err := eval(context.Background(), `TOKENIZE [$1,$2] (docs);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if toks.NumRows() != 3 || toks.NumCols() != 3 {
		t.Fatalf("tokens = %s", toks.Format(-1))
	}

	// MAP with arithmetic and function calls
	m, err := eval(context.Background(), `MAP [$1 * 2 + 1 as x, ucase($2) as u] (docs);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Col(0).Vec.Format(0) != "3" || m.Col(1).Vec.Format(0) != "TOYS AND TOYS" {
		t.Errorf("map = %s", m.Format(-1))
	}

	// GROUP with stemming conflation: toys+toys+and → 2 distinct stems
	g, err := eval(context.Background(), `GROUP [$1 ; count() as n]
		(MAP [stem(lcase($2),"sb-english") as term] (TOKENIZE [$1,$2] (docs)));`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]string{}
	for i := 0; i < g.NumRows(); i++ {
		counts[g.Col(0).Vec.Format(i)] = g.Col(1).Vec.Format(i)
	}
	if counts["toy"] != "2" || counts["and"] != "1" {
		t.Errorf("grouped counts = %v", counts)
	}

	// GROUP with probabilistic assumption and prob aggregates
	pb := relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String})
	pb.AddP(0.5, "a").AddP(0.5, "a")
	cat.Put("ev", pb.Build())
	env.Define("ev", pra.NewBase("ev", engine.NewScan("ev"), "k"))
	pg, err := eval(context.Background(), `GROUP DISJOINT [$1 ; sump() as total, maxp() as best] (ev);`, env, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if pg.NumRows() != 1 || pg.Prob()[0] != 1.0 {
		t.Fatalf("prob group = %s", pg.Format(-1))
	}
	if pg.Col(1).Vec.Format(0) != "1" || pg.Col(2).Vec.Format(0) != "0.5" {
		t.Errorf("prob aggregates = %s", pg.Format(-1))
	}
}

func TestNewOpsParseErrors(t *testing.T) {
	env := TriplesEnv()
	cases := []string{
		`MAP [$1] (triples);`,                  // missing 'as'
		`MAP [frobnicate($1) as x] (triples);`, // unknown function
		`GROUP [$1 count() as n] (triples);`,   // missing ';'
		`GROUP [$1 ; count() n] (triples);`,    // missing 'as'
		`TOKENIZE [$1] (triples);`,             // wants two refs
		`TOKENIZE [$1,x] (triples);`,           // bad ref
		`MAP INDEPENDENT [$1 as x] (triples);`, // MAP takes no assumption
		`GROUP [$9 ; count() as n] (triples);`, // key out of range (compile)
	}
	for _, src := range cases {
		if _, err := Parse(src, env); err != nil {
			continue // parse-time rejection is fine
		}
		prog, _ := Parse(src, env)
		if prog == nil {
			continue
		}
		if _, err := prog.Result().Compile(); err == nil {
			t.Errorf("%s: accepted", src)
		}
	}
}
