package irdb

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestSearchDocsConcurrent hammers SearchDocs from many goroutines while
// LoadDocs swaps the collection underneath them. The cached searcher must
// never be observed half-built (run with -race), every call must return a
// well-formed result for whichever collection it saw, and after the last
// reload a search must reflect the final collection.
func TestSearchDocsConcurrent(t *testing.T) {
	db := openT(t, WithParallelism(2))
	t.Cleanup(func() { db.Close() })

	docsV1 := []Doc{
		{ID: "d1", Text: "wooden train set"},
		{ID: "d2", Text: "steel rails and sleepers"},
		{ID: "d3", Text: "a toy train for children"},
	}
	docsV2 := []Doc{
		{ID: "e1", Text: "venetian glass beads"},
		{ID: "e2", Text: "a history of venice"},
	}
	if err := db.LoadDocs(docsV1); err != nil {
		t.Fatal(err)
	}

	const searchers = 8
	const perSearcher = 25
	var wg sync.WaitGroup
	errs := make(chan error, searchers*perSearcher+2)
	for g := 0; g < searchers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			queries := []string{"train", "venice", "wooden", "history"}
			for i := 0; i < perSearcher; i++ {
				q := queries[(g+i)%len(queries)]
				hits, err := db.SearchDocs(context.Background(), q, 5)
				if err != nil {
					errs <- fmt.Errorf("goroutine %d SearchDocs(%q): %w", g, q, err)
					return
				}
				for _, h := range hits {
					if h.ID == "" || h.Score <= 0 {
						errs <- fmt.Errorf("goroutine %d: malformed hit %+v for %q", g, h, q)
						return
					}
				}
			}
		}(g)
	}
	// Two reloads race with the searches; each must invalidate the cached
	// searcher rather than leaving it serving the dropped collection.
	for _, docs := range [][]Doc{docsV2, docsV1} {
		wg.Add(1)
		go func(docs []Doc) {
			defer wg.Done()
			if err := db.LoadDocs(docs); err != nil {
				errs <- fmt.Errorf("concurrent LoadDocs: %w", err)
			}
		}(docs)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Serialize a final reload, then prove the searcher was invalidated:
	// results must come from docsV2 only.
	if err := db.LoadDocs(docsV2); err != nil {
		t.Fatal(err)
	}
	hits, err := db.SearchDocs(context.Background(), "venice", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "e2" {
		t.Fatalf("post-reload SearchDocs = %+v, want the docsV2 hit e2", hits)
	}
	if _, err := db.SearchDocs(context.Background(), "train", 5); err != nil {
		t.Fatal(err)
	}
}

// TestSearchDocsCachesSearcher: the second search must reuse the searcher
// built by the first (construction walks the whole collection), and a
// LoadDocs in between must rebuild it.
func TestSearchDocsCachesSearcher(t *testing.T) {
	db := openT(t, WithParallelism(1))
	t.Cleanup(func() { db.Close() })
	if err := db.LoadDocs([]Doc{{ID: "d1", Text: "wooden train"}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.SearchDocs(context.Background(), "train", 5); err != nil {
		t.Fatal(err)
	}
	first := db.searcher.Load()
	if first == nil {
		t.Fatal("searcher not cached after first SearchDocs")
	}
	if _, err := db.SearchDocs(context.Background(), "wooden", 5); err != nil {
		t.Fatal(err)
	}
	if db.searcher.Load() != first {
		t.Fatal("second SearchDocs rebuilt the cached searcher")
	}
	if err := db.LoadDocs([]Doc{{ID: "d2", Text: "steel rails"}}); err != nil {
		t.Fatal(err)
	}
	if db.searcher.Load() != nil {
		t.Fatal("LoadDocs must invalidate the cached searcher")
	}
	hits, err := db.SearchDocs(context.Background(), "rails", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].ID != "d2" {
		t.Fatalf("post-reload hits = %+v, want d2", hits)
	}
}

// TestSearchMatchingNothing: a search with an empty text set — every
// builtin strategy over triples none of its blocks select, auction-lots
// over a lot with no auction, and SearchDocs over an empty corpus —
// ranks what text there is and returns no error.
func TestSearchMatchingNothing(t *testing.T) {
	db := openT(t, WithParallelism(2))
	t.Cleanup(func() { db.Close() })
	if err := db.LoadTriples([]Triple{{Subject: "x1", Property: "colour", Object: "red", P: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := db.LoadDocs([]Doc{}); err != nil {
		t.Fatal(err)
	}
	for _, name := range db.InstallBuiltinStrategies() {
		hits, err := db.Search(context.Background(), name, "wooden train", 10)
		if err != nil || len(hits) != 0 {
			t.Errorf("Search(%s) = %v, %v; want no hits and nil", name, hits, err)
		}
	}
	hits, err := db.SearchDocs(context.Background(), "wooden train", 10)
	if err != nil || len(hits) != 0 {
		t.Errorf("SearchDocs on an empty corpus = %v, %v; want no hits and nil", hits, err)
	}

	// The auction branch of auction-lots has no text; the lot branch
	// still ranks the lot.
	if err := db.LoadTriples([]Triple{
		{Subject: "lot1", Property: "type", Object: "lot", P: 1},
		{Subject: "lot1", Property: "description", Object: "wooden train", P: 1},
	}); err != nil {
		t.Fatal(err)
	}
	hits, err = db.Search(context.Background(), "auction-lots", "wooden train", 10)
	if err != nil || len(hits) != 1 || hits[0].ID != "lot1" {
		t.Errorf("auction-lots over a lot with no auction = %v, %v; want lot1 and nil", hits, err)
	}
}
