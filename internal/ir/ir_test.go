package ir

import (
	"context"
	"math"
	"reflect"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/relation"
	"irdb/internal/stem"
	"irdb/internal/text"
	"irdb/internal/vector"
)

var testDocs = []struct {
	id   int64
	data string
}{
	{1, "wooden train set"},
	{2, "a history book about toys"},
	{3, "the history of venice"},
	{4, "toy train tracks"},
	{5, "a book about books and a book"},
}

func docsRelation() *relation.Relation {
	b := relation.NewBuilder([]string{ColDocID, ColData}, []vector.Kind{vector.Int64, vector.String})
	for _, d := range testDocs {
		b.Add(d.id, d.data)
	}
	return b.Build()
}

func newIRCtx(t *testing.T) (*engine.Ctx, engine.Node) {
	t.Helper()
	cat := catalog.New(0)
	cat.Put("docs", docsRelation())
	return engine.NewCtx(cat), engine.NewScan("docs")
}

func TestTermDocPlanMirrorsPaper(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	rel, err := ctx.Exec(context.Background(), TermDocPlan(docs, p))
	if err != nil {
		t.Fatal(err)
	}
	// 3 + 5 + 4 + 3 + 7 tokens
	if rel.NumRows() != 22 {
		t.Errorf("term_doc rows = %d, want 22", rel.NumRows())
	}
	// stemmed: "toys" and "toy" must conflate
	// the term column is dict-encoded by the tokenize/stem pipeline
	termCol, ok := vector.AsStrings(rel.Col(0).Vec)
	if !ok {
		t.Fatalf("term column is %T, want a string column", rel.Col(0).Vec)
	}
	terms := termCol.Values()
	ids := rel.Col(1).Vec.(*vector.Int64s).Values()
	sawToy2, sawToy4 := false, false
	for i, term := range terms {
		if term == "toy" && ids[i] == 2 {
			sawToy2 = true
		}
		if term == "toy" && ids[i] == 4 {
			sawToy4 = true
		}
	}
	if !sawToy2 || !sawToy4 {
		t.Error("stemming did not conflate toy/toys across docs 2 and 4")
	}
}

func TestDocLenAndDictAndTF(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()

	dl, err := ctx.Exec(context.Background(), DocLenPlan(docs, p))
	if err != nil {
		t.Fatal(err)
	}
	if dl.NumRows() != 5 {
		t.Fatalf("doc_len rows = %d", dl.NumRows())
	}
	lens := map[int64]int64{}
	idv := dl.Col(0).Vec.(*vector.Int64s).Values()
	lv := dl.Col(1).Vec.(*vector.Int64s).Values()
	for i := range idv {
		lens[idv[i]] = lv[i]
	}
	if lens[1] != 3 || lens[5] != 7 {
		t.Errorf("doc lengths = %v", lens)
	}

	dict, err := ctx.Exec(context.Background(), TermDictPlan(docs, p))
	if err != nil {
		t.Fatal(err)
	}
	// termIDs must be dense, 1-based, sorted by term
	termVec, ok := vector.AsStrings(dict.Col(0).Vec)
	if !ok {
		t.Fatalf("term column is %T, want a string column", dict.Col(0).Vec)
	}
	terms := termVec.Values()
	tids := dict.Col(1).Vec.(*vector.Int64s).Values()
	for i := range terms {
		if tids[i] != int64(i+1) {
			t.Fatalf("termID not dense at %d: %v", i, tids)
		}
		if i > 0 && terms[i] <= terms[i-1] {
			t.Fatalf("termdict not sorted: %v", terms)
		}
	}

	tf, err := ctx.Exec(context.Background(), TFPlan(docs, p))
	if err != nil {
		t.Fatal(err)
	}
	// doc 5: "book" appears 3 times (books stems to book)
	dictID := map[string]int64{}
	for i, term := range terms {
		dictID[term] = tids[i]
	}
	tTID := tf.Col(0).Vec.(*vector.Int64s).Values()
	tDID := tf.Col(1).Vec.(*vector.Int64s).Values()
	tTF := tf.Col(2).Vec.(*vector.Int64s).Values()
	found := false
	for i := range tTID {
		if tTID[i] == dictID["book"] && tDID[i] == 5 {
			found = true
			if tTF[i] != 3 {
				t.Errorf("tf(book, doc5) = %d, want 3", tTF[i])
			}
		}
	}
	if !found {
		t.Error("no tf entry for (book, doc5)")
	}
}

// referenceBM25 computes BM25 directly (no relational machinery) for
// cross-checking the pipeline.
func referenceBM25(query string, p Params) map[int64]float64 {
	st, _ := stem.Get(p.Stemmer)
	tokenize := func(s string) []string {
		raw := p.Tokenizer.Tokens(s)
		out := make([]string, len(raw))
		for i, w := range raw {
			out[i] = st.Stem(w)
		}
		return out
	}
	tf := map[int64]map[string]int{}
	df := map[string]int{}
	dl := map[int64]int{}
	for _, d := range testDocs {
		toks := tokenize(d.data)
		dl[d.id] = len(toks)
		m := map[string]int{}
		for _, tok := range toks {
			m[tok]++
		}
		tf[d.id] = m
		for term := range m {
			df[term]++
		}
	}
	n := float64(len(testDocs))
	var totalLen float64
	for _, l := range dl {
		totalLen += float64(l)
	}
	avgdl := totalLen / n
	scores := map[int64]float64{}
	for _, q := range tokenize(query) {
		ratio := (n - float64(df[q]) + 0.5) / (float64(df[q]) + 0.5)
		if p.IDFPlusOne {
			ratio += 1
		}
		idf := math.Log(ratio)
		for id, m := range tf {
			f := float64(m[q])
			if f == 0 {
				continue
			}
			tfn := f / (f + p.K1*(1-p.B+p.B*float64(dl[id])/avgdl))
			scores[id] += tfn * idf
		}
	}
	return scores
}

func TestBM25MatchesReference(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	s, err := NewSearcher(ctx, docs, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, query := range []string{"history book", "toy train", "wooden", "venice history toys"} {
		hits, err := s.Search(context.Background(), query, 0)
		if err != nil {
			t.Fatalf("search %q: %v", query, err)
		}
		want := referenceBM25(query, p)
		if len(hits) != len(want) {
			t.Fatalf("query %q: %d hits, want %d", query, len(hits), len(want))
		}
		for _, h := range hits {
			var id int64
			for _, d := range testDocs {
				if h.DocID == d.data {
					break
				}
			}
			// DocID is the formatted int64
			if _, err := fmtScanInt(h.DocID, &id); err != nil {
				t.Fatalf("bad docID %q", h.DocID)
			}
			if math.Abs(h.Score-want[id]) > 1e-9 {
				t.Errorf("query %q doc %d: score %g, want %g", query, id, h.Score, want[id])
			}
		}
		// descending order
		for i := 1; i < len(hits); i++ {
			if hits[i].Score > hits[i-1].Score {
				t.Errorf("query %q: hits not sorted desc", query)
			}
		}
	}
}

func fmtScanInt(s string, out *int64) (int, error) {
	var v int64
	var sign int64 = 1
	i := 0
	if len(s) > 0 && s[0] == '-' {
		sign = -1
		i = 1
	}
	for ; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, errBadInt
		}
		v = v*10 + int64(s[i]-'0')
	}
	*out = sign * v
	return 1, nil
}

var errBadInt = &badInt{}

type badInt struct{}

func (*badInt) Error() string { return "bad int" }

// The raw Robertson-Sparck-Jones idf (IDFPlusOne=false) is the paper's
// exact formula; verify the pipeline still matches the closed form.
func TestBM25RawIDFMatchesReference(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	p.IDFPlusOne = false
	s, err := NewSearcher(ctx, docs, p)
	if err != nil {
		t.Fatal(err)
	}
	query := "venice history toys"
	hits, err := s.Search(context.Background(), query, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceBM25(query, p)
	for _, h := range hits {
		var id int64
		if _, err := fmtScanInt(h.DocID, &id); err != nil {
			t.Fatalf("bad docID %q", h.DocID)
		}
		if math.Abs(h.Score-want[id]) > 1e-9 {
			t.Errorf("raw idf doc %d: score %g, want %g", id, h.Score, want[id])
		}
	}
	// and the two variants must differ (different cache entries too)
	s2, _ := NewSearcher(ctx, docs, DefaultParams())
	hits2, err := s2.Search(context.Background(), query, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == len(hits2) && len(hits) > 0 && hits[0].Score == hits2[0].Score {
		t.Error("raw and +1 idf variants produced identical top scores")
	}
}

func TestSearchUnknownTermsDropOut(t *testing.T) {
	ctx, docs := newIRCtx(t)
	s, _ := NewSearcher(ctx, docs, DefaultParams())
	hits, err := s.Search(context.Background(), "zzzquux history", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("hits = %v, want only the 2 history docs", hits)
	}
	none, err := s.Search(context.Background(), "completely absent", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("no-match query returned %v", none)
	}
}

func TestSearchTopK(t *testing.T) {
	ctx, docs := newIRCtx(t)
	s, _ := NewSearcher(ctx, docs, DefaultParams())
	hits, err := s.Search(context.Background(), "book history train toy", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 2 {
		t.Errorf("topK = %d results, want 2", len(hits))
	}
}

func TestHotSearchUsesCache(t *testing.T) {
	ctx, docs := newIRCtx(t)
	s, _ := NewSearcher(ctx, docs, DefaultParams())
	if err := s.BuildIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx.ResetStats()
	hitsBefore := ctx.Cat.Cache().Stats().Hits
	if _, err := s.Search(context.Background(), "history book", 10); err != nil {
		t.Fatal(err)
	}
	cold := ctx.NodeExecs()
	if _, err := s.Search(context.Background(), "toy train", 10); err != nil {
		t.Fatal(err)
	}
	hot := ctx.NodeExecs() - cold
	// All index views must come from the cache: only the per-query nodes
	// (values, tokenize, project, join, agg, project, probfromcol, sort)
	// execute.
	if hot > 12 {
		t.Errorf("hot query executed %d nodes, expected the per-query pipeline only", hot)
	}
	if ctx.Cat.Cache().Stats().Hits == hitsBefore {
		t.Error("no cache hits during hot search")
	}

	// A second searcher with identical parameters is served entirely from
	// the shared cache: its index build adds no misses.
	same, _ := NewSearcher(ctx, docs, DefaultParams())
	misses := ctx.Cat.Cache().Stats().Misses
	if err := same.BuildIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := ctx.Cat.Cache().Stats().Misses - misses; got != 0 {
		t.Errorf("same-params searcher build missed the cache %d times", got)
	}

	// A different stemmer is a different index, built on demand.
	p := DefaultParams()
	p.Stemmer = "porter"
	porter, _ := NewSearcher(ctx, docs, p)
	misses = ctx.Cat.Cache().Stats().Misses
	if err := porter.BuildIndex(context.Background()); err != nil {
		t.Fatal(err)
	}
	if ctx.Cat.Cache().Stats().Misses == misses {
		t.Error("porter-stemmer searcher build was served from the default-stemmer index")
	}
}

func TestAllModelsRankRelevantFirst(t *testing.T) {
	for _, m := range []Model{BM25, TFIDF, LMJelinekMercer, LMDirichlet} {
		ctx, docs := newIRCtx(t)
		p := DefaultParams()
		p.Model = m
		s, err := NewSearcher(ctx, docs, p)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		hits, err := s.Search(context.Background(), "wooden train", 0)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(hits) == 0 || hits[0].DocID != "1" {
			t.Errorf("model %v: top hit = %v, want doc 1", m, hits)
		}
	}
}

func TestStatsAndValidate(t *testing.T) {
	ctx, docs := newIRCtx(t)
	s, _ := NewSearcher(ctx, docs, DefaultParams())
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Docs != 5 || st.Postings == 0 || st.Terms == 0 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.AvgDocLen-22.0/5.0) > 1e-9 {
		t.Errorf("avgdl = %g, want 4.4", st.AvgDocLen)
	}

	bad := DefaultParams()
	bad.B = 2.0
	if err := bad.Validate(); err == nil {
		t.Error("B=2 should fail validation")
	}
	bad = DefaultParams()
	bad.Stemmer = ""
	if _, err := NewSearcher(ctx, docs, bad); err == nil {
		t.Error("empty stemmer should fail")
	}
	bad = DefaultParams()
	bad.LambdaJM = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("lambda=1.5 should fail validation")
	}
	bad = DefaultParams()
	bad.MuDirichlet = -1
	if err := bad.Validate(); err == nil {
		t.Error("mu<0 should fail validation")
	}
}

func TestParamsSpecSeparatesConfigs(t *testing.T) {
	a := DefaultParams()
	b := DefaultParams()
	b.Stemmer = "porter"
	c := DefaultParams()
	c.WithCompounds = true
	d := DefaultParams()
	d.Tokenizer = text.Tokenizer{Lower: true, DropStopwords: true}
	specs := map[string]bool{}
	for _, p := range []Params{a, b, c, d} {
		specs[p.spec()] = true
	}
	if len(specs) != 4 {
		t.Errorf("param specs collide: %v", specs)
	}
}

func TestCompoundIndexing(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	p.WithCompounds = true
	p.Stemmer = "none" // keep compounds verbatim
	s, _ := NewSearcher(ctx, docs, p)
	hits, err := s.Search(context.Background(), "wooden_train", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].DocID != "1" {
		t.Errorf("compound search = %v, want doc 1", hits)
	}
}

// TestCustomStopwordsNeverShareCache: searchers over the same documents
// that differ only in their custom stop-word lists build separate indexes,
// so a catalog another list already warmed scores like a fresh one.
func TestCustomStopwordsNeverShareCache(t *testing.T) {
	docs := relation.NewBuilder([]string{ColDocID, ColData}, []vector.Kind{vector.Int64, vector.String}).
		Add(int64(1), "red toy toy toy train").
		Add(int64(2), "red car").
		Add(int64(3), "blue boat").
		Build()
	newCtx := func() *engine.Ctx {
		cat := catalog.New(0)
		cat.Put("docs", docs)
		return engine.NewCtx(cat)
	}
	search := func(ctx *engine.Ctx, stopword string) []Hit {
		t.Helper()
		p := DefaultParams()
		p.Tokenizer = text.Tokenizer{Lower: true, DropStopwords: true, Stopwords: map[string]bool{stopword: true}}
		s, err := NewSearcher(ctx, engine.NewScan("docs"), p)
		if err != nil {
			t.Fatal(err)
		}
		hits, err := s.Search(context.Background(), "red", 0)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	warm := newCtx()
	search(warm, "car")
	if got, want := search(warm, "toy"), search(newCtx(), "toy"); !reflect.DeepEqual(got, want) {
		t.Errorf("after a {car} searcher: %v; on a fresh catalog: %v", got, want)
	}
}

func TestStopwordTokenizerChangesScores(t *testing.T) {
	ctx, docs := newIRCtx(t)
	p := DefaultParams()
	p.Tokenizer = text.Tokenizer{Lower: true, DropStopwords: true}
	s, _ := NewSearcher(ctx, docs, p)
	st, err := s.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// "a", "about", "the", "of", "and" removed: 22 - 8 = 14 tokens
	if st.Postings >= 22 {
		t.Errorf("stopword removal had no effect: %+v", st)
	}
}
