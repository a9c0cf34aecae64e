package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"irdb"
	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/fault"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/spinql"
	"irdb/internal/triple"
	"irdb/internal/vector"
)

// facade_mix drives the public irdb facade in-process: no HTTP, no
// strategy compiler. Its three operations are the three non-HTTP entry
// points: BM25 keyword search over a document collection (the paper's
// 20 ms claim), a prepared SpinQL statement with a bound parameter, and
// the same program parsed and compiled ad hoc on every call.

// facadeProgram is the statement both SpinQL entry points run: lots (or
// auctions) joined to their descriptions.
const facadeProgram = `
d = PROJECT INDEPENDENT [$1,$6] (
  JOIN INDEPENDENT [$1=$1] (
    SELECT [$2="type" and $3=?kind] (triples),
    SELECT [$2="description"] (triples) ) );`

var facadeKinds = []string{"lot", "auction"}

func adhocProgram(kind string) string {
	return strings.Replace(facadeProgram, "?kind", `"`+kind+`"`, 1)
}

// facadeMix is the operation mix: 60 % SearchDocs, 20 % prepared, 20 %
// ad hoc, in a fixed order per goroutine.
func facadeMix(i int) opKind {
	switch i % 5 {
	case 1:
		return opPrepared
	case 3:
		return opAdhoc
	}
	return opDocs
}

func docID(id int64) string { return fmt.Sprintf("d%06d", id) }

type facadeEnv struct {
	in   *inputs
	db   *irdb.DB
	stmt *irdb.Stmt
}

// op runs goroutine-local operation i.
func (e *facadeEnv) op(ctx context.Context, offset, i int) (opKind, error) {
	kind := facadeMix(i)
	switch kind {
	case opPrepared:
		_, err := e.stmt.Query(ctx, irdb.P("kind", facadeKinds[i/5%len(facadeKinds)]))
		return kind, err
	case opAdhoc:
		_, err := e.db.Query(ctx, adhocProgram(facadeKinds[i/5%len(facadeKinds)]))
		return kind, err
	}
	q := e.in.queries[(offset+i)%len(e.in.queries)]
	hits, err := e.db.SearchDocs(ctx, q, 10)
	if err == nil && len(hits) > 10 {
		err = fmt.Errorf("SearchDocs(%q, 10) returned %d hits", q, len(hits))
	}
	return kind, err
}

// drive runs `clients` goroutines, each its own closed loop.
func (e *facadeEnv) drive(rec *recorder, byKind *[numKinds]samples, more func(i int, now time.Time) bool) float64 {
	var (
		wg sync.WaitGroup
		mu sync.Mutex
	)
	ctx := context.Background()
	start := time.Now()
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var err error
			defer func() {
				if err != nil {
					rec.op(err)
				}
			}()
			defer fault.Recover(fmt.Sprintf("facade goroutine %d", g), &err)
			offset := g * len(e.in.queries) / clients
			var local [numKinds]samples
			for i := 0; more(i, time.Now()); i++ {
				t0 := time.Now()
				kind, opErr := e.op(ctx, offset, i)
				local[kind].add(time.Since(t0))
				rec.op(opErr)
			}
			mu.Lock()
			defer mu.Unlock()
			for k := range local {
				byKind[k] = append(byKind[k], local[k]...)
			}
		}(g)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// setupFacade is one complete set-up: generate, Open, load both
// collections, prepare the statement, and warm up (the first SearchDocs
// builds the on-demand inverted index).
func setupFacade(cfg runConfig, round int) (*facadeEnv, error) {
	in, err := genInputs(cfg.workload, cfg.seed, round, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := checkPins(cfg.root, cfg.workload, cfg.seed, round, cfg.scale, in); err != nil {
		return nil, err
	}
	db, err := irdb.Open()
	if err != nil {
		return nil, err
	}
	e := &facadeEnv{in: in, db: db}
	docs := make([]irdb.Doc, len(in.docs))
	for i, d := range in.docs {
		docs[i] = irdb.Doc{ID: docID(d.ID), Text: d.Data}
	}
	if err := db.LoadDocs(docs); err != nil {
		return nil, err
	}
	if err := db.LoadTriples(facadeTriples(in.triples)); err != nil {
		return nil, err
	}
	if e.stmt, err = db.Prepare(facadeProgram); err != nil {
		return nil, err
	}
	warm := newRecorder()
	var discard [numKinds]samples
	perClient := len(in.queries) / clients * 5 / 3 // every query once through SearchDocs
	e.drive(warm, &discard, func(i int, _ time.Time) bool { return i < perClient })
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d operations failed: %v", warm.failed, warm.attempted, warm.failures)
	}
	return e, nil
}

// facadeStats maps DB.Stats() onto the counters the HTTP workloads read
// from /stats, so both report the same layer metrics.
func facadeStats(st irdb.Stats) *serverStats {
	var s serverStats
	s.Cache.Hits, s.Cache.Misses, s.Cache.Evictions = st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions
	s.Cache.Shared, s.Cache.Oversize = st.Cache.Shared, st.Cache.Oversize
	s.Cache.StaleDrops, s.Cache.DepInvalidations = st.Cache.StaleDrops, st.Cache.DepInvalidations
	s.Cache.Bytes, s.Cache.AuxBytes = st.Cache.Bytes, st.Cache.AuxBytes
	s.Executor.NodeExecs, s.Executor.CacheHits = st.Executor.NodeExecs, st.Executor.CacheHits
	s.Optimizer.GroupsCosted = st.Optimizer.GroupsCosted
	s.Faults.ShedRequests, s.Faults.BudgetDenied = st.Faults.Overloaded, st.Memory.BudgetDenials
	return &s
}

func runFacadeMix(cfg runConfig, rec *recorder) error {
	// Rounds as in runHTTPWorkload: each is a complete set-up plus its
	// share of the window.
	var (
		env           *facadeEnv
		pooled        [numKinds]samples
		series        = newRoundSeries()
		before, after *serverStats
		cpuDelta      float64
		lastOps       int
	)
	defer func() {
		if env != nil {
			env.db.Close()
		}
	}()
	pid := os.Getpid()
	for i := 0; i < setupRepeats; i++ {
		if env != nil {
			env.db.Close()
			env = nil
		}
		// The benchmark process is the database process here. Each round
		// starts from an empty heap and a reset high-water mark, so its
		// peak is one database with its inputs and load generator, whatever
		// the process did before (earlier rounds, earlier workloads).
		runtime.GC()
		debug.FreeOSMemory()
		resetRSSPeak()
		t0 := time.Now()
		var err error
		if env, err = setupFacade(cfg, i); err != nil {
			return err
		}
		series.add("setup_s", time.Since(t0).Seconds(), 1)
		rss, err := rssPeakMB(pid)
		if err != nil {
			return err
		}
		series.add("rss_peak_mb", rss, 1)

		before = facadeStats(env.db.Stats())
		cpuBefore, err := cpuMS(pid)
		if err != nil {
			return err
		}
		var byKind [numKinds]samples
		deadline := time.Now().Add(time.Duration(cfg.seconds / setupRepeats * float64(time.Second)))
		elapsed := env.drive(rec, &byKind, func(_ int, now time.Time) bool { return now.Before(deadline) })
		after = facadeStats(env.db.Stats())
		checkNoRefusals(rec, after)
		cpuAfter, err := cpuMS(pid)
		if err != nil {
			return err
		}
		cpuDelta = cpuAfter - cpuBefore
		if rss, err = rssPeakMB(pid); err != nil {
			return err
		}
		series.add("process.rss_window_peak_mb", rss, 1)
		series.addLatencies(&byKind, opDocs, elapsed)
		// The issue's names for this workload's keyword search, beside the
		// search_* metrics every workload reports.
		docs := byKind[opDocs]
		series.add("searchdocs_ms_p50", docs.quantile(0.50), len(docs))
		series.add("searchdocs_ms_p95", docs.quantile(0.95), len(docs))
		lastOps = 0
		for k := range byKind {
			lastOps += len(byKind[k])
			pooled[k] = append(pooled[k], byKind[k]...)
		}
		series.add("ops_per_s", float64(lastOps)/elapsed, lastOps)
	}
	series.report(rec, cfg.spec.EndToEnd)
	series.report(rec, cfg.spec.PerLayer)

	docs := pooled[opDocs]
	rec.set("client.search_ms_p99", docs.quantile(0.99), "ms", len(docs))
	rec.set("client.search_ms_max", docs.max(), "ms", len(docs))
	// Layer counters: the last round's, as in runHTTPWorkload.
	reportStatsDelta(rec, before, after, int64(lastOps), cpuDelta)

	env.checkFacade(rec)
	if cfg.traced {
		return env.tracedRun(cfg, rec)
	}
	return nil
}

// checkFacade is facade_mix's correctness: a prepared statement and the
// same program run ad hoc return the same rows, and a keyword search
// repeats exactly.
func (e *facadeEnv) checkFacade(rec *recorder) {
	ctx := context.Background()
	for _, kind := range facadeKinds {
		prepared, err := e.stmt.Query(ctx, irdb.P("kind", kind))
		if err != nil {
			rec.op(err)
			continue
		}
		adhoc, err := e.db.Query(ctx, adhocProgram(kind))
		if err != nil {
			rec.op(err)
			continue
		}
		same := prepared.NumRows() == adhoc.NumRows() && prepared.NumRows() > 0 &&
			len(prepared.Columns()) == len(adhoc.Columns())
		for r := 0; same && r < prepared.NumRows(); r++ {
			same = prepared.Prob(r) == adhoc.Prob(r)
			for c := 0; same && c < len(prepared.Columns()); c++ {
				same = prepared.Value(r, c) == adhoc.Value(r, c)
			}
		}
		rec.check(same, "prepared and ad-hoc rows differ for kind %q", kind)
	}
	for i := 0; i < 8; i++ {
		q := e.in.queries[i*len(e.in.queries)/8]
		a, err1 := e.db.SearchDocs(ctx, q, 10)
		b, err2 := e.db.SearchDocs(ctx, q, 10)
		if err1 != nil || err2 != nil {
			rec.op(fmt.Errorf("SearchDocs(%q): %v %v", q, err1, err2))
			continue
		}
		same := len(a) == len(b)
		for j := 0; same && j < len(a); j++ {
			same = a[j] == b[j]
		}
		rec.check(same, "SearchDocs(%q) is not repeatable", q)
	}
}

// tracedRun replays the first inputs against the facade (root spans) and
// replays each call's internal steps against an engine stack assembled
// like irdb.Open's, on the same data (child spans).
func (e *facadeEnv) tracedRun(cfg runConfig, rec *recorder) error {
	bg := context.Background()
	cat := catalog.New(0)
	store := triple.NewStore(cat)
	store.Load(e.in.triples)
	b := relation.NewBuilder([]string{"docID", "data"}, []vector.Kind{vector.String, vector.String})
	for _, d := range e.in.docs {
		b.AddP(1.0, docID(d.ID), d.Data)
	}
	cat.Put(irdb.DocsTable, b.Build())
	ctx := engine.NewCtx(cat)
	searcher, err := ir.NewSearcher(ctx, engine.NewScan(irdb.DocsTable), ir.DefaultParams())
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := searcher.Search(bg, e.in.queries[0], 10); err != nil {
		return err
	}
	rec.set("ir.index_build_ms", float64(time.Since(t0))/float64(time.Millisecond), "ms", 1)

	prog, err := spinql.Parse(facadeProgram, spinql.TriplesEnv())
	if err != nil {
		return err
	}
	naive, err := prog.Result().Compile()
	if err != nil {
		return err
	}
	prepared := ctx.Optimize(naive)

	var (
		tr, acc                               = newTracer(), &accounting{}
		scoreplan, irSearch, bind             samples
		parse, compile, optimize, fingerprint samples
		exec                                  samples
		planMS, execMS                        float64
	)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	n := min(tracedRequests, len(e.in.queries)*5/3)
	for i := 0; i < n; i++ {
		request := i + 1
		var kind opKind
		root, rootD := tr.time("irdb.call", request, 0, func() { kind, err = e.op(bg, 0, i) })
		if err != nil {
			return err
		}
		kindName := facadeKinds[i/5%len(facadeKinds)]
		var plan, opt engine.Node
		switch kind {
		case opDocs:
			q := e.in.queries[i%len(e.in.queries)]
			_, planD := tr.time("ir.scoreplan", request, root, func() { plan, err = searcher.ScorePlan(q) })
			if err != nil {
				return err
			}
			_, optD := tr.time("engine.optimize", request, root, func() { opt = ctx.Optimize(engine.NewLimit(plan, 10)) })
			_, execD := tr.time("engine.exec", request, root, func() { _, err = ctx.Exec(bg, opt) })
			if err != nil {
				return err
			}
			acc.add(rootD, planD, optD, execD)
			scoreplan.add(planD)
			optimize.add(optD)
			exec.add(execD)
			planMS += ms(planD + optD)
			execMS += ms(execD)
			t0 := time.Now()
			_ = opt.Fingerprint()
			fingerprint.add(time.Since(t0))
			// Searcher.Search is the three steps above as the ir package
			// runs them; timed whole, beside the tree.
			t0 = time.Now()
			if _, err := searcher.Search(bg, q, 10); err != nil {
				return err
			}
			irSearch.add(time.Since(t0))
		case opPrepared:
			_, bindD := tr.time("engine.bind", request, root, func() {
				opt, err = engine.Bind(prepared, func(string) (expr.Lit, bool) { return expr.Str(kindName), true })
			})
			if err != nil {
				return err
			}
			_, execD := tr.time("engine.exec", request, root, func() { _, err = ctx.Exec(bg, opt) })
			if err != nil {
				return err
			}
			acc.add(rootD, bindD, execD)
			bind.add(bindD)
		case opAdhoc:
			src := adhocProgram(kindName)
			var p *spinql.Program
			_, parseD := tr.time("spinql.parse", request, root, func() { p, err = spinql.Parse(src, spinql.TriplesEnv()) })
			if err != nil {
				return err
			}
			_, compileD := tr.time("spinql.compile", request, root, func() { plan, err = p.Result().Compile() })
			if err != nil {
				return err
			}
			_, optD := tr.time("engine.optimize", request, root, func() { opt = ctx.Optimize(plan) })
			_, execD := tr.time("engine.exec", request, root, func() { _, err = ctx.Exec(bg, opt) })
			if err != nil {
				return err
			}
			acc.add(rootD, parseD, compileD, optD, execD)
			parse.add(parseD)
			compile.add(compileD)
		}
	}
	us := func(name string, s samples) { rec.setP50(name, s.scaled(1000), "us") }
	us("ir.scoreplan_us_p50", scoreplan)
	us("ir.search_us_p50", irSearch)
	us("engine.bind_us_p50", bind)
	us("spinql.parse_us_p50", parse)
	us("spinql.compile_us_p50", compile)
	us("engine.optimize_us_p50", optimize)
	us("engine.fingerprint_us_p50", fingerprint)
	us("engine.exec_hot_us_p50", exec)
	if planMS+execMS > 0 {
		rec.set("engine.plan_share_pct", 100*planMS/(planMS+execMS), "%", len(scoreplan))
	}
	rec.set("trace.unaccounted_pct", acc.unaccountedPct(), "%", n)
	return tr.write(cfg)
}
