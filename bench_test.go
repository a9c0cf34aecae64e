// Package irdb's root benchmarks measure the paper's claims that the
// end-to-end workloads in benchmark/ do not state on their own (one
// BenchmarkE<n> family per claim). CLAIMS.md maps each claim E1–E9 to the
// benchmark or workload metric that measures it, with its verdict.
package irdb

import (
	"context"
	"fmt"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/invidx"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/workload"
)

// benchSeed generates every root benchmark's data and its queries. The
// seed picks the vocabulary's words, so queries drawn under another seed
// than their data's would mostly match nothing (TestBenchQueriesHit).
const benchSeed = 42

// docsRelation loads generated docs into the (docID, data) relation the
// relational searcher scans. The data column stays plain strings: every
// payload is unique, so dictionary encoding would buy no dedup.
func docsRelation(docs []workload.Doc) *relation.Relation {
	ids := make([]int64, len(docs))
	data := make([]string, len(docs))
	for i, d := range docs {
		ids[i] = d.ID
		data[i] = d.Data
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "docID", Vec: vector.FromInt64s(ids)},
		{Name: "data", Vec: vector.FromStrings(data)},
	}, nil)
}

// Keyword-search benchmarks (E1, E5, E6) run over docs of ~80 tokens from
// a docVocab-word vocabulary, and the strategy benchmarks (E4, E7) over
// the default auction graph, whose vocabulary has auctionVocab words.
const (
	docVocab     = 30000
	auctionVocab = 20000
)

func docQueries() []string     { return workload.Queries(50, 3, docVocab, benchSeed) }
func auctionQueries() []string { return workload.Queries(20, 3, auctionVocab, benchSeed) }

// auctionSynonyms drives the production strategy's query expansion (E7).
func auctionSynonyms() text.SynonymDict {
	return text.SynonymDict(workload.Synonyms(auctionVocab, 200, 2, benchSeed))
}

func newSearcher(b *testing.B, nDocs int) (*ir.Searcher, []string) {
	b.Helper()
	docs := workload.GenDocs(nDocs, 80, docVocab, benchSeed)
	cat := catalog.New(0)
	cat.Put("docs", docsRelation(docs))
	ctx := engine.NewCtx(cat)
	s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.BuildIndex(context.Background()); err != nil {
		b.Fatal(err)
	}
	queries := docQueries()
	if _, err := s.Search(context.Background(), queries[0], 10); err != nil {
		b.Fatal(err)
	}
	return s, queries
}

// BenchmarkE1KeywordSearchHot is the paper's headline: hot 3-term BM25
// queries via relational plans (section 2.1, "20ms hot").
func BenchmarkE1KeywordSearchHot(b *testing.B) {
	for _, n := range []int{2000, 10000} {
		b.Run(fmt.Sprintf("docs=%d", n), func(b *testing.B) {
			s, queries := newSearcher(b, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Search(context.Background(), queries[i%len(queries)], 10); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE1IndexBuild measures cold on-demand index construction.
func BenchmarkE1IndexBuild(b *testing.B) {
	docs := workload.GenDocs(2000, 80, docVocab, benchSeed)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat := catalog.New(0)
		cat.Put("docs", docsRelation(docs))
		ctx := engine.NewCtx(cat)
		s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := s.BuildIndex(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func wideCtx(b *testing.B, useCache bool) *engine.Ctx {
	b.Helper()
	graph := workload.WidePropertyGraph(5000, 32, 5000, benchSeed)
	cat := catalog.New(0)
	triple.NewStore(cat).Load(graph)
	ctx := engine.NewCtx(cat)
	ctx.UseCache = useCache
	return ctx
}

func docsViewPlan(prop string) engine.Node {
	return triple.DocsOf(triple.SubjectsOfType("node"), prop)
}

// BenchmarkE2SelfJoinScan: docs view with no materialization — every
// query re-scans the triples table (section 2.2's baseline).
func BenchmarkE2SelfJoinScan(b *testing.B) {
	ctx := wideCtx(b, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), docsViewPlan("prop000003")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2OnDemandHot: the same view answered from the adaptive cache
// tables after first touch.
func BenchmarkE2OnDemandHot(b *testing.B) {
	ctx := wideCtx(b, true)
	if _, err := ctx.Exec(context.Background(), docsViewPlan("prop000003")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), docsViewPlan("prop000003")); err != nil {
			b.Fatal(err)
		}
	}
}

func auctionCtx(tb testing.TB, lots int) *engine.Ctx {
	tb.Helper()
	cfg := workload.DefaultAuctionConfig()
	cfg.VocabSize, cfg.Seed = auctionVocab, benchSeed
	cfg.Lots = lots
	cfg.Auctions = lots / 320
	if cfg.Auctions < 1 {
		cfg.Auctions = 1
	}
	cat := catalog.New(0)
	triple.NewStore(cat).Load(workload.AuctionGraph(cfg))
	return engine.NewCtx(cat)
}

// evictSearch is the evict_search workload's shape in-process: 2 000 lots
// (6 auctions, 12 sellers) generated under seed, the materialization
// cache bounded to budget bytes, and a k=10 auction-lots search. It
// returns the cache, the search, and the seed's 256 queries.
func evictSearch(tb testing.TB, seed, budget int64) (*catalog.Cache, func(q string) error, []string) {
	tb.Helper()
	cfg := workload.DefaultAuctionConfig()
	cfg.Lots, cfg.Auctions, cfg.Sellers = 2000, 6, 12
	cfg.VocabSize, cfg.Seed = auctionVocab, seed
	cat := catalog.New(0)
	cat.Cache().SetMaxBytes(budget)
	triple.NewStore(cat).Load(workload.AuctionGraph(cfg))
	ctx := engine.NewCtx(cat)
	strat := strategy.Auction(0.7, 0.3)
	search := func(q string) error {
		_, err := strat.Rank(context.Background(), ctx, &strategy.Compiler{Query: q}, 10)
		return err
	}
	return cat.Cache(), search, workload.Queries(256, 3, auctionVocab, seed)
}

// BenchmarkEvictBudget: hot searches of the evict_search shape (dataset
// seed 127) under byte budgets on both sides of the ~3.7 MB of cached
// entries a warm query reads (2.2 MB of join indexes, 1.5 MB of
// relations), after a 16-query warm-up.
func BenchmarkEvictBudget(b *testing.B) {
	for _, mib := range []int64{1, 2, 3, 4, 6} {
		b.Run(fmt.Sprintf("%dMiB", mib), func(b *testing.B) {
			_, search, queries := evictSearch(b, 127, mib<<20)
			for _, q := range queries[:16] {
				if err := search(q); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := search(queries[16+i%(len(queries)-16)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func traversePipeline(mode engine.JoinProb, dedup engine.GroupProb) engine.Node {
	lots := triple.SubjectsOfType("lot")
	fwd := engine.NewHashJoin(lots, triple.Property("hasAuction"),
		[]string{triple.ColSubject}, []string{triple.ColSubject}, mode)
	aucs := engine.NewProject(fwd,
		engine.ProjCol{Name: triple.ColSubject, E: expr.Column(triple.ColObject)})
	back := engine.NewHashJoin(aucs, triple.Property("hasAuction"),
		[]string{triple.ColSubject}, []string{triple.ColObject}, mode)
	lotsAgain := engine.NewProject(back,
		engine.ProjCol{Name: triple.ColSubject, E: expr.Column(triple.ColSubject + "_2")})
	return engine.NewDistinct(lotsAgain, dedup)
}

// BenchmarkE3Probabilistic/Boolean measure the probability propagation
// overhead on the same traverse+dedup pipeline (section 2.3).
func BenchmarkE3Probabilistic(b *testing.B) {
	ctx := auctionCtx(b, 5000)
	if _, err := ctx.Exec(context.Background(), triple.Property("hasAuction")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), traversePipeline(engine.JoinIndependent, engine.GroupIndependent)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3Boolean(b *testing.B) {
	ctx := auctionCtx(b, 5000)
	if _, err := ctx.Exec(context.Background(), triple.Property("hasAuction")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ctx.Exec(context.Background(), traversePipeline(engine.JoinLeft, engine.GroupCertain)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4AuctionStrategyHot: the Figure 3 two-branch strategy, hot
// (section 3, "about 150ms per request"), through Strategy.Rank — the
// compile, optimize, top-k and exec that /search and DB.Search run.
func BenchmarkE4AuctionStrategyHot(b *testing.B) {
	ctx := auctionCtx(b, 4000)
	queries := auctionQueries()
	strat := strategy.Auction(0.7, 0.3)
	run := func(q string) error {
		_, err := strat.Rank(context.Background(), ctx, &strategy.Compiler{Query: q}, 50)
		return err
	}
	if err := run(queries[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE5SharedRebuild: a second searcher with identical parameters
// must "build" instantly from the shared materialization cache.
func BenchmarkE5SharedRebuild(b *testing.B) {
	docs := workload.GenDocs(2000, 80, docVocab, benchSeed)
	cat := catalog.New(0)
	cat.Put("docs", docsRelation(docs))
	ctx := engine.NewCtx(cat)
	first, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if err := first.BuildIndex(context.Background()); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		if err := s.BuildIndex(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6 compares the relational pipeline against the dedicated
// inverted-index engine on identical hot queries.
func BenchmarkE6RelationalHot(b *testing.B) {
	s, queries := newSearcher(b, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(context.Background(), queries[i%len(queries)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6InvertedIndexHot(b *testing.B) {
	gen := workload.GenDocs(5000, 80, docVocab, benchSeed)
	ivDocs := make([]invidx.Doc, len(gen))
	for i, d := range gen {
		ivDocs[i] = invidx.Doc{ID: d.ID, Data: d.Data}
	}
	idx, err := invidx.Build(ivDocs, ir.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	queries := docQueries()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkE7ProductionStrategyHot: the 5-branch expanded production
// strategy (section 3), through the same Strategy.Rank as E4.
func BenchmarkE7ProductionStrategyHot(b *testing.B) {
	ctx := auctionCtx(b, 4000)
	queries := auctionQueries()
	synonyms := auctionSynonyms()
	strat := strategy.Production()
	run := func(q string) error {
		_, err := strat.Rank(context.Background(), ctx, &strategy.Compiler{Query: q, Synonyms: synonyms}, 10)
		return err
	}
	if err := run(queries[0]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimizeStrategy times engine.Ctx.Optimize alone on a hot
// context (every view already optimized once) for a distinct query each
// iteration; compiling the plan is left out of the timing.
func BenchmarkOptimizeStrategy(b *testing.B) {
	ctx := auctionCtx(b, 4000)
	queries := auctionQueries()
	for _, run := range []struct {
		name     string
		strat    *strategy.Strategy
		synonyms text.SynonymDict
	}{
		{"auction-lots", strategy.Auction(0.7, 0.3), nil},
		{"production", strategy.Production(), auctionSynonyms()},
	} {
		b.Run(run.name, func(b *testing.B) {
			compile := func(q string) engine.Node {
				plan, err := run.strat.Compile(&strategy.Compiler{Query: q, Synonyms: run.synonyms})
				if err != nil {
					b.Fatal(err)
				}
				return plan
			}
			ctx.Optimize(compile(queries[0]))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				plan := compile(fmt.Sprintf("%s %d", queries[i%len(queries)], i))
				b.StartTimer()
				ctx.Optimize(plan)
			}
		})
	}
}

// TestBenchQueriesHit guards the benchmarks' inputs: every query of every
// query set above matches at least one document of the data it runs
// against, so no benchmark times empty answers.
func TestBenchQueriesHit(t *testing.T) {
	queries := docQueries()
	for _, n := range []int{2000, 5000, 10000} { // E1, E6
		gen := workload.GenDocs(n, 80, docVocab, benchSeed)
		docs := make([]invidx.Doc, len(gen))
		for i, d := range gen {
			docs[i] = invidx.Doc{ID: d.ID, Data: d.Data}
		}
		idx, err := invidx.Build(docs, ir.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if len(idx.Search(q, 1)) == 0 {
				t.Errorf("%d docs: query %q matches nothing", n, q)
			}
		}
	}

	ctx := auctionCtx(t, 4000)
	for _, run := range []struct {
		strat    *strategy.Strategy
		synonyms text.SynonymDict
	}{
		{strategy.Auction(0.7, 0.3), nil},          // E4
		{strategy.Production(), auctionSynonyms()}, // E7
	} {
		for _, q := range auctionQueries() {
			top, err := run.strat.Rank(context.Background(), ctx, &strategy.Compiler{Query: q, Synonyms: run.synonyms}, 1)
			if err != nil {
				t.Fatal(err)
			}
			if top.NumRows() == 0 {
				t.Errorf("%s over 4000 lots: query %q matches nothing", run.strat.Name, q)
			}
		}
	}
}
