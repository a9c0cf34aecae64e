package invidx

import (
	"context"
	"math"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

var docs = []Doc{
	{1, "wooden train set"},
	{2, "a history book about toys"},
	{3, "the history of venice"},
	{4, "toy train tracks"},
	{5, "a book about books and a book"},
}

func TestBuildStats(t *testing.T) {
	idx, err := Build(docs, ir.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := idx.Stats()
	if st.Docs != 5 {
		t.Errorf("docs = %d", st.Docs)
	}
	if math.Abs(st.AvgDocLen-22.0/5.0) > 1e-9 {
		t.Errorf("avgdl = %g, want 4.4", st.AvgDocLen)
	}
	if st.Terms == 0 || st.Postings == 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBuildValidation(t *testing.T) {
	p := ir.DefaultParams()
	p.Model = ir.TFIDF
	if _, err := Build(docs, p); err == nil {
		t.Error("non-BM25 model should fail")
	}
	p = ir.DefaultParams()
	p.Stemmer = "bogus"
	if _, err := Build(docs, p); err == nil {
		t.Error("unknown stemmer should fail")
	}
}

func TestSearchBasics(t *testing.T) {
	idx, _ := Build(docs, ir.DefaultParams())
	hits := idx.Search("wooden train", 0)
	if len(hits) != 2 {
		t.Fatalf("hits = %v", hits)
	}
	if hits[0].DocID != "1" {
		t.Errorf("top hit = %v, want doc 1", hits[0])
	}
	if got := idx.Search("zzz", 0); len(got) != 0 {
		t.Errorf("no-match query returned %v", got)
	}
	if got := idx.Search("book history train toy", 2); len(got) != 2 {
		t.Errorf("topK returned %d hits", len(got))
	}
}

// The dedicated engine and the relational IR-on-DB pipeline must return
// the same hits with the same scores, and the same top-10 order, on the
// same collection, queries, and parameters.
func TestMatchesRelationalPipeline(t *testing.T) {
	gen := workload.GenDocs(300, 15, 2000, 21)
	ivDocs := make([]Doc, len(gen))
	b := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.Int64, vector.String})
	for i, d := range gen {
		ivDocs[i] = Doc{ID: d.ID, Data: d.Data}
		b.Add(d.ID, d.Data)
	}
	p := ir.DefaultParams()
	idx, err := Build(ivDocs, p)
	if err != nil {
		t.Fatal(err)
	}

	cat := catalog.New(0)
	cat.Put("docs", b.Build())
	ctx := engine.NewCtx(cat)
	searcher, err := ir.NewSearcher(ctx, engine.NewScan("docs"), p)
	if err != nil {
		t.Fatal(err)
	}

	for _, q := range workload.Queries(10, 3, 2000, 22) {
		want, err := searcher.Search(context.Background(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := idx.Search(q, 0)
		if len(got) != len(want) {
			t.Fatalf("query %q: %d vs %d hits", q, len(got), len(want))
		}
		wantScores := map[string]float64{}
		for _, h := range want {
			wantScores[h.DocID] = h.Score
		}
		for _, h := range got {
			ws, ok := wantScores[h.DocID]
			if !ok {
				t.Errorf("query %q: doc %s only in inverted index", q, h.DocID)
				continue
			}
			if math.Abs(h.Score-ws) > 1e-9 {
				t.Errorf("query %q doc %s: invidx %g, relational %g", q, h.DocID, h.Score, ws)
			}
		}

		wantTop, err := searcher.Search(context.Background(), q, 10)
		if err != nil {
			t.Fatal(err)
		}
		gotTop := idx.Search(q, 10)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("query %q top-10: %d vs %d hits", q, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if gotTop[i].DocID != wantTop[i].DocID {
				t.Errorf("query %q top-10 rank %d: invidx doc %s, relational doc %s",
					q, i, gotTop[i].DocID, wantTop[i].DocID)
			}
		}
	}
}

func TestTiesBreakByDocID(t *testing.T) {
	same := []Doc{{10, "apple pie"}, {2, "apple pie"}, {7, "apple pie"}}
	idx, _ := Build(same, ir.DefaultParams())
	hits := idx.Search("apple", 0)
	if len(hits) != 3 {
		t.Fatalf("hits = %v", hits)
	}
	// equal scores → ascending doc order is not guaranteed by score, but
	// the heap tie-break prefers earlier documents first in output
	if hits[0].Score != hits[1].Score || hits[1].Score != hits[2].Score {
		t.Errorf("scores differ on identical docs: %v", hits)
	}
}

func TestEmptyCollection(t *testing.T) {
	idx, err := Build(nil, ir.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Search("anything", 5); len(got) != 0 {
		t.Errorf("empty index returned %v", got)
	}
}
