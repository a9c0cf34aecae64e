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
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/workload"
)

func newSearcher(b *testing.B, nDocs int) (*ir.Searcher, []string) {
	b.Helper()
	docs := workload.GenDocs(nDocs, 80, 30000, 42)
	cat := catalog.New(0)
	cat.Put("docs", workload.DocsRelation(docs))
	ctx := engine.NewCtx(cat)
	s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), ir.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	if err := s.BuildIndex(context.Background()); err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(50, 3, 30000, 43)
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
	docs := workload.GenDocs(2000, 80, 30000, 42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cat := catalog.New(0)
		cat.Put("docs", workload.DocsRelation(docs))
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
	graph := workload.WidePropertyGraph(5000, 32, 5000, 42)
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

func auctionCtx(b *testing.B, lots int) *engine.Ctx {
	b.Helper()
	cfg := workload.DefaultAuctionConfig()
	cfg.Lots = lots
	cfg.Auctions = lots / 320
	if cfg.Auctions < 1 {
		cfg.Auctions = 1
	}
	cat := catalog.New(0)
	triple.NewStore(cat).Load(workload.AuctionGraph(cfg))
	return engine.NewCtx(cat)
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
	queries := workload.Queries(20, 3, 20000, 44)
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
	docs := workload.GenDocs(2000, 80, 30000, 42)
	cat := catalog.New(0)
	cat.Put("docs", workload.DocsRelation(docs))
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
	gen := workload.GenDocs(5000, 80, 30000, 42)
	ivDocs := make([]invidx.Doc, len(gen))
	for i, d := range gen {
		ivDocs[i] = invidx.Doc{ID: d.ID, Data: d.Data}
	}
	idx, err := invidx.Build(ivDocs, ir.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	queries := workload.Queries(50, 3, 30000, 43)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Search(queries[i%len(queries)], 10)
	}
}

// BenchmarkE7ProductionStrategyHot: the 5-branch expanded production
// strategy (section 3), through the same Strategy.Rank as E4.
func BenchmarkE7ProductionStrategyHot(b *testing.B) {
	ctx := auctionCtx(b, 4000)
	queries := workload.Queries(20, 3, 20000, 45)
	synonyms := text.SynonymDict(workload.Synonyms(20000, 200, 2, 42))
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
