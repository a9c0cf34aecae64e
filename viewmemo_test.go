package irdb

import (
	"fmt"
	"sync"
	"testing"

	"irdb/internal/engine"
	"irdb/internal/ir"
	"irdb/internal/strategy"
	"irdb/internal/workload"
)

// The optimized-view memo behind engine.Ctx.Optimize, over the plans the
// search entry points really compile: the three built-in strategies and
// both retrieval models' keyword-search plans. A memo hit must return the
// plan a fresh, memo-less engine.Optimize returns, and count the same
// optimizer work.

// memoCtx returns a hot-path context over a small auction graph plus a
// docs corpus for the keyword searchers.
func memoCtx(t testing.TB) *engine.Ctx {
	ctx := auctionCtx(t, 400)
	ctx.Cat.Put("docs", docsRelation(workload.GenDocs(200, 20, auctionVocab, benchSeed)))
	return ctx
}

// memoSynonyms is the query expansion the production strategy runs with,
// generated once.
var memoSynonyms = sync.OnceValue(auctionSynonyms)

// strategyPlan compiles s for query q.
func strategyPlan(t testing.TB, s *strategy.Strategy, q string) engine.Node {
	t.Helper()
	plan, err := s.Compile(&strategy.Compiler{Query: q, Synonyms: memoSynonyms()})
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// memoPlans compiles every plan shape under test for each query.
func memoPlans(t testing.TB, ctx *engine.Ctx, queries []string) []engine.Node {
	t.Helper()
	var plans []engine.Node
	for _, q := range queries {
		for _, s := range []*strategy.Strategy{strategy.Toy(), strategy.Auction(0.7, 0.3), strategy.Production()} {
			plans = append(plans, strategyPlan(t, s, q))
		}
		for _, m := range []ir.Model{ir.BM25, ir.LMDirichlet} {
			p := ir.DefaultParams()
			p.Model = m
			s, err := ir.NewSearcher(ctx, engine.NewScan("docs"), p)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := s.ScorePlan(q)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, engine.NewLimit(plan, 10))
		}
	}
	return plans
}

// statsDelta is the optimizer work between two OptimizerStats readings.
// The memo's size and misses describe the memo, not the work, so they are
// left out.
func statsDelta(before, after engine.OptimizerStats) engine.OptimizerStats {
	return engine.OptimizerStats{
		Plans:        after.Plans - before.Plans,
		PlansChanged: after.PlansChanged - before.PlansChanged,
		OptInfoTotals: engine.OptInfoTotals{
			SelectsMerged: after.SelectsMerged - before.SelectsMerged,
			SelectsPushed: after.SelectsPushed - before.SelectsPushed,
			EmptyRewrites: after.EmptyRewrites - before.EmptyRewrites,
			ColumnsPruned: after.ColumnsPruned - before.ColumnsPruned,
			SortsFused:    after.SortsFused - before.SortsFused,
		},
	}
}

// TestViewMemoEquivalence: on a fresh context, the miss and then the hit
// of every plan render exactly as engine.Optimize (digest and Explain)
// and advance OptimizerStats by the same amounts; then 8 goroutines
// optimize every plan concurrently on one shared context.
func TestViewMemoEquivalence(t *testing.T) {
	ctx := memoCtx(t)
	plans := memoPlans(t, ctx, auctionQueries()[:2])
	want := make([]string, len(plans))
	for i, plan := range plans {
		fresh, _ := engine.Optimize(ctx.Cat, plan)
		want[i] = fmt.Sprintf("%x\n%s", fresh.Fingerprint(), engine.Explain(fresh))
	}
	check := func(i int, got engine.Node) {
		if s := fmt.Sprintf("%x\n%s", got.Fingerprint(), engine.Explain(got)); s != want[i] {
			t.Errorf("plan %d: memoized optimize differs from a fresh one:\n--- got ---\n%s--- want ---\n%s", i, s, want[i])
		}
	}

	for i, plan := range plans {
		fresh := engine.NewCtx(ctx.Cat)
		s0 := fresh.OptimizerStats()
		check(i, fresh.Optimize(plan))
		s1 := fresh.OptimizerStats()
		check(i, fresh.Optimize(plan))
		s2 := fresh.OptimizerStats()
		if miss, hit := statsDelta(s0, s1), statsDelta(s1, s2); miss != hit {
			t.Errorf("plan %d: a miss counts %+v, a hit %+v", i, miss, hit)
		}
		if s2.Views == 0 || s1.ViewMisses == 0 || s2.ViewMisses != s1.ViewMisses {
			t.Errorf("plan %d: %d views memoized, %d misses on the first pass and %d on the second, want > 0, > 0 and 0",
				i, s2.Views, s1.ViewMisses, s2.ViewMisses-s1.ViewMisses)
		}
	}

	shared := engine.NewCtx(ctx.Cat)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 2; round++ {
				for j := range plans {
					i := (j + g) % len(plans)
					check(i, shared.Optimize(plans[i]))
				}
			}
		}(g)
	}
	wg.Wait()
}

// materializeDigests collects the digests of every Materialize in plan.
func materializeDigests(plan engine.Node, into map[string]bool) {
	if _, ok := plan.(*engine.Materialize); ok {
		into[plan.Fingerprint()] = true
	}
	for _, c := range plan.Children() {
		materializeDigests(c, into)
	}
}

// TestViewMemoBoundedByViews: 500 distinct queries through the auction
// and production strategies leave exactly one memo entry per distinct
// view of one compiled plan of each — the memo grows with views, never
// with queries.
func TestViewMemoBoundedByViews(t *testing.T) {
	ctx := memoCtx(t)
	strats := []*strategy.Strategy{strategy.Auction(0.7, 0.3), strategy.Production()}
	views := map[string]bool{}
	for _, s := range strats {
		materializeDigests(strategyPlan(t, s, auctionQueries()[0]), views)
	}
	const queries = 500
	for i, q := range workload.Queries(queries, 3, auctionVocab, benchSeed) {
		for _, s := range strats {
			// The index makes every query distinct even where the
			// generator repeats itself.
			ctx.Optimize(strategyPlan(t, s, fmt.Sprintf("%s %d", q, i)))
		}
	}
	st := ctx.OptimizerStats()
	if want := int64(queries * len(strats)); st.Plans != want {
		t.Fatalf("optimized %d plans, want %d", st.Plans, want)
	}
	if int(st.ViewMisses) != len(views) {
		t.Errorf("%d view misses over %d queries, want one per view (%d)", st.ViewMisses, queries, len(views))
	}
	if st.Views != len(views) {
		t.Errorf("memo holds %d views after %d queries, want %d (the distinct views of one plan per strategy)",
			st.Views, queries, len(views))
	}
}
