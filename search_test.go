package irdb

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"sync"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ir"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

// TestSearchDocsConcurrent hammers SearchDocs from many goroutines while
// LoadDocs swaps the collection underneath them. The score plan each swap
// re-plans must never be observed half-built (run with -race), every call
// must return a well-formed result for whichever collection it saw, and
// after the last reload a search must reflect the final collection.
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

// TestSearchDocsCachesSearcher: SearchDocs plans its score plan once per
// schema epoch. A second search and an AppendDocs re-plan nothing, and
// the appended document is found; LoadDocs replaces the table, and the
// next search plans again over the new documents.
func TestSearchDocsCachesSearcher(t *testing.T) {
	db := openT(t, WithParallelism(1))
	t.Cleanup(func() { db.Close() })
	bg := context.Background()
	plans := func() int64 { return db.Stats().Optimizer.Plans }
	search := func(q string) []Hit {
		t.Helper()
		hits, err := db.SearchDocs(bg, q, 5)
		if err != nil {
			t.Fatal(err)
		}
		return hits
	}
	if err := db.LoadDocs([]Doc{{ID: "d1", Text: "wooden train"}}); err != nil {
		t.Fatal(err)
	}
	search("train")
	planned := plans()
	search("wooden")
	if got := plans(); got != planned {
		t.Fatalf("second SearchDocs planned %d more plans", got-planned)
	}
	if _, err := db.AppendDocs([]Doc{{ID: "d3", Text: "toy train"}}); err != nil {
		t.Fatal(err)
	}
	if hits := search("toy"); len(hits) != 1 || hits[0].ID != "d3" {
		t.Fatalf("post-append hits = %+v, want d3", hits)
	}
	if got := plans(); got != planned {
		t.Fatalf("SearchDocs after AppendDocs planned %d more plans", got-planned)
	}
	if err := db.LoadDocs([]Doc{{ID: "d2", Text: "steel rails"}}); err != nil {
		t.Fatal(err)
	}
	if hits := search("rails"); len(hits) != 1 || hits[0].ID != "d2" {
		t.Fatalf("post-reload hits = %+v, want d2", hits)
	}
	if got := plans(); got != planned+1 {
		t.Fatalf("SearchDocs after LoadDocs planned %d plans, want 1", got-planned)
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

// TestSearchNonPositiveK: k ≤ 0 asks for every match. Search and
// SearchDocs with k = 0 or k = -1 return exactly what a k larger than
// the result returns: the same hits in the same order.
func TestSearchNonPositiveK(t *testing.T) {
	ctx := context.Background()
	db := openTestDB(t, 2)
	graph := testGraph(400)
	var query string
	for _, tr := range graph {
		if tr.Property == "description" {
			query = tr.Object.(string)
			break
		}
	}
	docs := make([]Doc, 0, 50)
	for _, tr := range graph {
		if tr.Property == "description" && len(docs) < cap(docs) {
			docs = append(docs, Doc{ID: tr.Subject, Text: tr.Object.(string)})
		}
	}
	if err := db.LoadDocs(docs); err != nil {
		t.Fatal(err)
	}
	const big = 1 << 20
	searches := map[string]func(k int) ([]Hit, error){
		"SearchDocs": func(k int) ([]Hit, error) { return db.SearchDocs(ctx, query, k) },
	}
	for _, name := range db.InstallBuiltinStrategies() {
		searches["Search "+name] = func(k int) ([]Hit, error) { return db.Search(ctx, name, query, k) }
	}
	for label, search := range searches {
		want, err := search(big)
		if err != nil {
			t.Fatalf("%s k=%d: %v", label, big, err)
		}
		// toy-products ranks product triples, which the auction graph
		// has none of.
		if label != "Search toy-products" && len(want) < 2 {
			t.Fatalf("%s %q: %d hits, want several", label, query, len(want))
		}
		for _, k := range []int{0, -1} {
			got, err := search(k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", label, k, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s k=%d: %d hits, want the %d of k=%d", label, k, len(got), len(want), big)
			}
		}
	}
}

// TestSearchDocsStringIDsMatchInt64IDs: SearchDocs over string document
// IDs, which Tokenize dict-encodes, ranks exactly like ir.Searcher over
// the same collection keyed by Int64 IDs: the same documents in the same
// order with bit-identical scores, at parallelism 1, 2 and 8, for k = 0
// and k = 10. The IDs are zero-padded, so string order is ID order and
// score ties break the same way on both sides.
func TestSearchDocsStringIDsMatchInt64IDs(t *testing.T) {
	const vocab = 2000
	gen := workload.GenDocs(1500, 30, vocab, benchSeed)
	docs := make([]Doc, len(gen))
	for i, d := range gen {
		docs[i] = Doc{ID: stringDocID(d.ID), Text: d.Data}
	}
	queries := workload.Queries(12, 3, vocab, benchSeed)
	bg := context.Background()
	for _, par := range []int{1, 2, 8} {
		db := openT(t, WithParallelism(par))
		t.Cleanup(func() { db.Close() })
		if err := db.LoadDocs(docs); err != nil {
			t.Fatal(err)
		}
		cat := catalog.New(0)
		cat.Put("docs", docsRelation(gen, false))
		ctx := engine.NewCtx(cat)
		ctx.Parallelism = par
		s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		matched := 0
		for _, q := range queries {
			for _, k := range []int{0, 10} {
				got, err := db.SearchDocs(bg, q, k)
				if err != nil {
					t.Fatal(err)
				}
				want, err := s.Search(bg, q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("par=%d k=%d %q: %d hits, want %d", par, k, q, len(got), len(want))
				}
				for i, w := range want {
					id, err := strconv.ParseInt(w.DocID, 10, 64)
					if err != nil {
						t.Fatal(err)
					}
					if got[i].ID != stringDocID(id) || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
						t.Fatalf("par=%d k=%d %q hit %d: %s %v, want %s %v", par, k, q, i, got[i].ID, got[i].Score, stringDocID(id), w.Score)
					}
				}
				matched += len(got)
			}
		}
		if matched == 0 {
			t.Fatalf("par=%d: no query matched, the comparison is vacuous", par)
		}
	}
}

// unclusteredHits ranks query with a hand-built score plan over the
// weights matrix as the model computes it, before WeightsPlan clusters it
// by termID, and with a projection between the aggregate and the join,
// so the aggregate groups the join's output instead of folding from its
// index. It returns the hits, ranked as Searcher.Search ranks them with
// k = 0, and the operators the plan executed.
func unclusteredHits(t *testing.T, ctx *engine.Ctx, docs engine.Node, p ir.Params, query string) ([]ir.Hit, int64) {
	t.Helper()
	w, err := ir.WeightsPlan(docs, p)
	if err != nil {
		t.Fatal(err)
	}
	unsorted := w.(*engine.Materialize).Child.(*engine.Sort).Child
	matched := engine.NewHashJoin(ir.QTerms(docs, p, ir.QueryLeaf(p, query)), engine.NewMaterialize(unsorted),
		[]string{ir.ColTermID}, []string{ir.ColTermID}, engine.JoinLeft)
	scored := engine.NewAggregate(engine.NewProject(matched, engine.ByName(ir.ColDocID, ir.ColWeight)...),
		[]string{ir.ColDocID}, []engine.AggSpec{{Op: engine.Sum, Col: ir.ColWeight, As: ir.ColScore}}, engine.GroupCertain)
	ranked := engine.NewSort(engine.NewProbFromCol(scored, ir.ColScore, false, true),
		engine.SortSpec{Col: "", Desc: true}, engine.SortSpec{Col: ir.ColDocID})
	before := ctx.NodeExecs()
	rel, err := ctx.Exec(context.Background(), ranked)
	if err != nil {
		t.Fatal(err)
	}
	execs := ctx.NodeExecs() - before
	hits, err := ir.HitsFromRelation(rel)
	if err != nil {
		t.Fatal(err)
	}
	return hits, execs
}

// mustSameHits asserts got and want list the same documents in the same
// order with bit-identical scores.
func mustSameHits(t *testing.T, label string, got, want []ir.Hit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d hits, want %d", label, len(got), len(want))
	}
	for i, w := range want {
		if got[i].DocID != w.DocID || math.Float64bits(got[i].Score) != math.Float64bits(w.Score) {
			t.Fatalf("%s hit %d: %s %v, want %s %v", label, i, got[i].DocID, got[i].Score, w.DocID, w.Score)
		}
	}
}

// TestScoresMatchUnclusteredWeights: for every model, the cached weights
// relation is clustered by termID, and ir.Searcher ranks exactly as a
// score plan over the unclustered weights that groups the join's output
// does: the same documents in the same order with bit-identical scores,
// for int and string document ids at parallelism 1, 2 and 8. SearchDocs
// (BM25, string ids) matches the same reference. The bound score plan
// runs two operators fewer than the reference, which adds a projection
// and runs its join, whenever the score plan's aggregate folds from the
// join index; some query must.
func TestScoresMatchUnclusteredWeights(t *testing.T) {
	const vocab = 2000
	gen := workload.GenDocs(1500, 30, vocab, benchSeed)
	queries := workload.Queries(12, 3, vocab, benchSeed)
	bg := context.Background()
	for _, model := range []ir.Model{ir.BM25, ir.TFIDF, ir.LMJelinekMercer} {
		for _, stringIDs := range []bool{false, true} {
			for _, par := range []int{1, 2, 8} {
				label := fmt.Sprintf("%v stringIDs=%v par=%d", model, stringIDs, par)
				p := ir.DefaultParams()
				p.Model = model
				cat := catalog.New(0)
				cat.Put("docs", docsRelation(gen, stringIDs))
				ctx := engine.NewCtx(cat)
				ctx.Parallelism = par
				docs := engine.NewScan("docs")
				s, err := ir.NewSearcher(ctx, docs, p)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.BuildIndex(bg); err != nil {
					t.Fatal(err)
				}
				w, err := ir.WeightsPlan(docs, p)
				if err != nil {
					t.Fatal(err)
				}
				weights, err := ctx.Exec(bg, ctx.Optimize(w))
				if err != nil {
					t.Fatal(err)
				}
				termIDs := weights.Col(weights.ColIndex(ir.ColTermID)).Vec.(*vector.Int64s).Values()
				for i := 1; i < len(termIDs); i++ {
					if termIDs[i] < termIDs[i-1] {
						t.Fatalf("%s: cached weights row %d has termID %d after %d", label, i, termIDs[i], termIDs[i-1])
					}
				}
				var db *DB
				if model == ir.BM25 && stringIDs {
					db = openT(t, WithParallelism(par))
					t.Cleanup(func() { db.Close() })
					loaded := make([]Doc, len(gen))
					for i, d := range gen {
						loaded[i] = Doc{ID: stringDocID(d.ID), Text: d.Data}
					}
					if err := db.LoadDocs(loaded); err != nil {
						t.Fatal(err)
					}
				}
				fused, matched := 0, 0
				for _, q := range queries {
					want, _ := unclusteredHits(t, ctx, docs, p, q)
					// Warm, the reference runs only its per-query operators.
					want, refExecs := unclusteredHits(t, ctx, docs, p, q)
					got, err := s.Search(bg, q, 0)
					if err != nil {
						t.Fatal(err)
					}
					mustSameHits(t, label+" "+q, got, want)
					matched += len(got)
					if db != nil {
						facade, err := db.SearchDocs(bg, q, 0)
						if err != nil {
							t.Fatal(err)
						}
						hits := make([]ir.Hit, len(facade))
						for i, h := range facade {
							hits[i] = ir.Hit{DocID: h.ID, Score: h.Score}
						}
						mustSameHits(t, label+" SearchDocs "+q, hits, want)
					}
					plan, err := s.ScorePlan(q)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := ctx.Exec(bg, plan); err != nil {
						t.Fatal(err)
					}
					before := ctx.NodeExecs()
					if _, err := ctx.Exec(bg, plan); err != nil {
						t.Fatal(err)
					}
					switch refExecs - (ctx.NodeExecs() - before) {
					case 2:
						fused++
					case 1:
					default:
						t.Fatalf("%s %q: score plan ran %d operators, the reference %d", label, q, ctx.NodeExecs()-before, refExecs)
					}
				}
				if matched == 0 || fused == 0 {
					t.Fatalf("%s: %d hits, %d of %d queries folded from the join index; the comparison is vacuous", label, matched, fused, len(queries))
				}
			}
		}
	}
}
