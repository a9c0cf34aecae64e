package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"irdb/internal/bench"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/fault"
	"irdb/internal/ir"
	"irdb/internal/strategy"
	"irdb/internal/triple"
	"irdb/internal/workload"
)

// E4 reproduces the section 3 deployment numbers: the two-branch auction
// strategy of Figure 3 "searches about 8 million lots in 25 thousand
// auctions, 150,000 times per day (with peaks of 450 per minute) with
// response times of about 150ms per request (hot database)". We run the
// same strategy over a generated auction graph with the paper's
// lots-per-auction shape, measure hot per-request latency and sustainable
// throughput (sequential and with concurrent clients), and relate complex
// strategy latency to plain keyword search latency (the paper pair:
// 150ms vs 20ms ≈ 7.5×).
func E4(cfg Config) (*Result, error) {
	acfg := workload.DefaultAuctionConfig()
	acfg.Lots = cfg.size(16000)
	acfg.Auctions = acfg.Lots / 320 // the paper's ratio
	if acfg.Auctions < 1 {
		acfg.Auctions = 1
	}
	acfg.Sellers = acfg.Auctions * 2
	acfg.Seed = cfg.Seed
	graph := workload.AuctionGraph(acfg)

	cat := catalog.New(0)
	triple.NewStore(cat).Load(graph)
	ctx := engine.NewCtx(cat)
	ctx.Parallelism = cfg.Parallelism

	queries := workload.Queries(cfg.reps(20), 3, acfg.VocabSize, cfg.Seed+5)
	strat := strategy.Auction(0.7, 0.3)

	runQuery := func(q string) error {
		_, err := strat.Rank(context.Background(), ctx, &strategy.Compiler{Query: q}, 50)
		return err
	}

	// Cold: the first request pays all on-demand index construction.
	cold, err := bench.Measure(1, func() error { return runQuery(queries[0]) })
	if err != nil {
		return nil, err
	}
	// Hot: the paper's reported regime ("hot database").
	qi := 0
	hot, err := bench.Measure(len(queries), func() error {
		err := runQuery(queries[qi%len(queries)])
		qi++
		return err
	})
	if err != nil {
		return nil, err
	}

	// Concurrent clients (the 450-requests-per-minute peak is concurrent
	// load on one VM).
	const clients = 4
	perClient := len(queries)
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Contain panics at the goroutine boundary; a crashed client
			// reports as its error slot, not a dead process.
			defer fault.Recover(fmt.Sprintf("e4 client %d", c), &errs[c])
			for i := 0; i < perClient; i++ {
				if err := runQuery(queries[(c*7+i)%len(queries)]); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	concurrentQPS := float64(clients*perClient) / time.Since(start).Seconds()

	// Baseline: plain keyword search over lot descriptions alone.
	searcher, err := ir.NewSearcher(ctx,
		triple.DocsOf(triple.SubjectsOfType("lot"), "description"), ir.DefaultParams())
	if err != nil {
		return nil, err
	}
	if _, err := searcher.Search(context.Background(), queries[0], 10); err != nil {
		return nil, err
	}
	qi = 0
	simple, err := bench.Measure(len(queries), func() error {
		_, err := searcher.Search(context.Background(), queries[qi%len(queries)], 10)
		qi++
		return err
	})
	if err != nil {
		return nil, err
	}

	ratio := float64(hot.P(0.5)) / float64(simple.P(0.5))

	table := &bench.Table{
		Title:  fmt.Sprintf("E4: Figure 3 auction strategy, %d lots / %d auctions", acfg.Lots, acfg.Auctions),
		Header: []string{"measure", "value"},
	}
	table.AddRow("cold first request", cold.Mean())
	table.AddRow("hot p50", hot.P(0.5))
	table.AddRow("hot p95", hot.P(0.95))
	table.AddRow("sequential qps", fmt.Sprintf("%.1f", hot.Throughput()))
	table.AddRow(fmt.Sprintf("concurrent qps (%d clients)", clients), fmt.Sprintf("%.1f", concurrentQPS))
	table.AddRow("plain keyword p50 (lot descriptions)", simple.P(0.5))
	table.AddRow("complex/simple latency ratio", fmt.Sprintf("%.1fx", ratio))
	table.AddNote("paper: ~150ms per request at 8M lots, 150k req/day (avg 1.7/s, peak 7.5/s); complex/simple ≈ 7.5x (150ms vs 20ms)")

	return &Result{
		ID:         "E4",
		Name:       "auction strategy end to end (section 3)",
		PaperClaim: "the production two-branch strategy answers in ~150ms hot and sustains 150k requests/day with peaks of 450/minute on one VM",
		Finding: fmt.Sprintf("hot p50 %s, concurrent throughput %.1f req/s (paper peak: 7.5 req/s), complex/simple ratio %.1fx (paper ≈ 7.5x)",
			bench.Ms(hot.P(0.5)), concurrentQPS, ratio),
		Tables: []*bench.Table{table},
	}, nil
}
