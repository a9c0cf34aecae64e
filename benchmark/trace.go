package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ingest"
	"irdb/internal/memory"
	"irdb/internal/server"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/wal"
	"irdb/internal/workload"
)

// The traced run decomposes a request from outside the program: nothing
// under internal/ is instrumented (an in-program tracer is a later
// change), so a layer's time is the time of a call into its exported
// entry point, made from here. Per request there is one root span around
// the real entry point (the server's http.Handler, or a facade call) and
// replayed child spans: the same steps the entry point takes internally,
// called again directly, right after the root, on the same state. A
// span's self time is its duration minus its children's; what the root
// spends outside every replayed step (HTTP decode, admission, JSON
// encode) is what is left. End-to-end metrics never come from this run.

// span is one timed call. Children of a root are replays: they start
// after the root ended, so only durations nest, not intervals.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"` // 0 = root span
	Request  int     `json:"request"`
	Name     string  `json:"name"`
	StartUS  float64 `json:"start_us"`
	EndUS    float64 `json:"end_us"`
	Replayed bool    `json:"replayed,omitempty"`
}

// tracer holds spans in memory until the run ends. The traced run is
// single-threaded, so it does not lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// time runs f as a span and returns its id and duration.
func (t *tracer) time(name string, request, parent int, f func()) (int, time.Duration) {
	start := time.Now()
	f()
	end := time.Now()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: request, Name: name, Replayed: parent != 0,
		StartUS: float64(start.Sub(t.t0)) / float64(time.Microsecond),
		EndUS:   float64(end.Sub(t.t0)) / float64(time.Microsecond),
	})
	return id, end.Sub(start)
}

// write stores the spans as benchmark/out/trace-<workload>.json.
func (t *tracer) write(cfg runConfig) error {
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, t.spans})
	if err != nil {
		return err
	}
	out := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(out, "trace-"+cfg.workload+".json"), raw, 0o644)
}

// accounting sums root time and replayed-child time over a traced run.
type accounting struct{ rootUS, childUS float64 }

func (a *accounting) add(root time.Duration, children ...time.Duration) (selfUS float64) {
	r := float64(root) / float64(time.Microsecond)
	var c float64
	for _, d := range children {
		c += float64(d) / float64(time.Microsecond)
	}
	a.rootUS += r
	a.childUS += c
	return r - c
}

func (a *accounting) unaccountedPct() float64 {
	if a.rootUS == 0 {
		return 0
	}
	return 100 * (a.rootUS - a.childUS) / a.rootUS
}

// tracedRequests is how many inputs the traced run replays. The run
// rides in the same time budget as the measured window, so this is
// smaller than the window's request count by design.
const tracedRequests = 100

// stack is the server's object graph, assembled in-process exactly as
// cmd/irdb-server's main does.
type stack struct {
	cat     *catalog.Catalog
	mgr     *ingest.Manager
	ctx     *engine.Ctx
	syn     text.SynonymDict
	strat   *strategy.Strategy
	handler http.Handler
}

// newStack builds the stack and loads the TSV; loadMS is the
// triple.load_ms layer metric (ReadTSV + ReplaceTriples).
func newStack(tsv []byte, cacheBytes int64, walDir string) (*stack, float64, error) {
	cat := catalog.New(0)
	if cacheBytes > 0 {
		cat.Cache().SetMaxBytes(cacheBytes)
	}
	store := triple.NewStore(cat)
	mgr := ingest.New(cat, store, "docs")
	syn := text.SynonymDict(workload.Synonyms(20000, 200, 2, 42))
	ctx := engine.NewCtx(cat)
	srv := server.New(ctx, syn)
	srv.SetIngest(mgr)
	srv.SetMemory(0, 0)
	if walDir != "" {
		if err := mgr.OpenDurable(walDir, wal.Options{Policy: wal.SyncAlways}); err != nil {
			return nil, 0, err
		}
	}
	t0 := time.Now()
	triples, err := triple.ReadTSV(bytes.NewReader(tsv))
	if err != nil {
		return nil, 0, err
	}
	if err := mgr.ReplaceTriples(triples); err != nil {
		return nil, 0, err
	}
	loadMS := float64(time.Since(t0)) / float64(time.Millisecond)
	st := &stack{cat: cat, mgr: mgr, ctx: ctx, syn: syn, strat: strategy.Auction(0.7, 0.3)}
	for _, s := range []*strategy.Strategy{strategy.Toy(), st.strat, strategy.Production()} {
		if err := srv.Install(s); err != nil {
			return nil, 0, err
		}
	}
	st.handler = srv.Handler()
	return st, loadMS, nil
}

// serve sends one request through the handler and requires a 200.
func (s *stack) serve(method, target string, body []byte) error {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.handler.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		return fmt.Errorf("%s %s: %d %s", method, target, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return nil
}

func searchTarget(kind opKind, query string) (target string, k int) {
	k = 10
	if kind == opStream {
		k = 1000
	}
	target = fmt.Sprintf("/search?strategy=%s&q=%s&k=%d", strategyName, url.QueryEscape(query), k)
	if kind == opStream {
		target += "&stream=1"
	}
	return target, k
}

func rankKeys() []engine.SortSpec {
	return []engine.SortSpec{{Col: "", Desc: true}, {Col: triple.ColSubject}}
}

// layerSamples are the traced run's per-call timings, in milliseconds.
type layerSamples struct {
	handler, self, streamSelf, appendSelf samples
	compile, optimize, fingerprint, exec  samples
	durable                               samples
	planMS, execMS                        float64 // sums over opSearch requests
}

// traceSearch records one search request: the root span around the
// handler, then the replayed steps handleSearch takes.
func (s *stack) traceSearch(tr *tracer, acc *accounting, ls *layerSamples, request int, kind opKind, query string) error {
	target, k := searchTarget(kind, query)
	var err error
	root, rootD := tr.time("server.handler", request, 0, func() { err = s.serve(http.MethodGet, target, nil) })
	if err != nil {
		return err
	}
	var plan, opt engine.Node
	_, compileD := tr.time("strategy.compile", request, root, func() {
		plan, err = s.strat.Compile(&strategy.Compiler{Query: query, Synonyms: s.syn})
	})
	if err != nil {
		return err
	}
	_, optimizeD := tr.time("engine.optimize", request, root, func() { opt = s.ctx.Optimize(plan) })
	_, execD := tr.time("engine.exec", request, root, func() {
		_, err = s.ctx.Exec(context.Background(), engine.NewTopN(opt, k, rankKeys()...))
	})
	if err != nil {
		return err
	}
	// Plan identity on its own: the handler never fingerprints the root,
	// so this is a probe beside the span tree, not a child of it.
	t0 := time.Now()
	_ = opt.Fingerprint()
	ls.fingerprint.add(time.Since(t0))

	self := acc.add(rootD, compileD, optimizeD, execD)
	switch kind {
	case opSearch:
		ls.handler.add(rootD)
		ls.self = append(ls.self, self/1000)
		ls.compile.add(compileD)
		ls.optimize.add(optimizeD)
		ls.exec.add(execD)
		ls.planMS += float64(compileD+optimizeD) / float64(time.Millisecond)
		ls.execMS += float64(execD) / float64(time.Millisecond)
	case opStream:
		ls.streamSelf = append(ls.streamSelf, self/1000)
	}
	return nil
}

// tracedRun replays the workload's first inputs in-process, then runs
// the probes of the layers the workload exercises, and reports every
// per-layer metric that comes from calls rather than from /stats.
func (e *httpEnv) tracedRun(rec *recorder) error {
	var cacheBytes int64
	if e.cfg.scale == fullScale {
		cacheBytes = int64(e.par.cacheMB) << 20
	}
	durable := e.par.appendPeriod > 0
	walDir := ""
	if durable {
		walDir = filepath.Join(e.dir, "wal-traced")
	}
	st, loadMS, err := newStack(e.in.tsv, cacheBytes, walDir)
	if err != nil {
		return err
	}
	defer st.mgr.Close()
	rec.set("triple.load_ms", loadMS, "ms", 1)

	// Warm-up: every traced query once, so the replay measures the
	// workload's steady state (under a bounded cache: its steady thrash).
	n := min(tracedRequests, len(e.in.queries))
	thrashing := e.par.cacheMB > 0
	if thrashing {
		n = min(n, 24) // each costs an index rebuild
	}
	for i := 0; i < n; i++ {
		target, _ := searchTarget(opSearch, e.in.queries[i])
		if err := st.serve(http.MethodGet, target, nil); err != nil {
			return err
		}
	}

	tr, acc, ls := newTracer(), &accounting{}, &layerSamples{}
	request := 0
	if durable {
		// The writer's sequence: append, first search of the new data,
		// then the reader's hot searches until the next append.
		const tracedAppends, readsPerAppend = 4, 8
		for j := 0; j < tracedAppends; j++ {
			request++
			body := appendBody(e.in.ingestBatch(2 * j))
			root, rootD := tr.time("server.handler", request, 0, func() { err = st.serve(http.MethodPost, "/append", body) })
			if err != nil {
				return err
			}
			_, durableD := tr.time("ingest.append_durable", request, root, func() {
				_, err = st.mgr.AppendTriples(e.in.ingestBatch(2*j + 1))
			})
			if err != nil {
				return err
			}
			ls.durable.add(durableD)
			ls.appendSelf = append(ls.appendSelf, acc.add(rootD, durableD)/1000)

			request++
			target, _ := searchTarget(opSearch, sentinel(2*j))
			tr.time("server.handler", request, 0, func() { err = st.serve(http.MethodGet, target, nil) })
			if err != nil {
				return err
			}
			for i := 0; i < readsPerAppend; i++ {
				request++
				if err := st.traceSearch(tr, acc, ls, request, opSearch, e.in.queries[(j*readsPerAppend+i)%len(e.in.queries)]); err != nil {
					return err
				}
			}
		}
	} else {
		kinds := newKindSource(e.par.mix, e.cfg.seed, 0)
		for i := 0; i < n; i++ {
			request++
			if err := st.traceSearch(tr, acc, ls, request, kinds.draw(), e.in.queries[i]); err != nil {
				return err
			}
		}
	}

	us := func(name string, s samples) { rec.setP50(name, s.scaled(1000), "us") }
	us("server.handler_us_p50", ls.handler)
	us("server.self_us_p50", ls.self)
	us("server.stream_self_us_p50", ls.streamSelf)
	us("server.append_self_us_p50", ls.appendSelf)
	us("strategy.compile_us_p50", ls.compile)
	us("engine.optimize_us_p50", ls.optimize)
	us("engine.fingerprint_us_p50", ls.fingerprint)
	us("engine.exec_hot_us_p50", ls.exec)
	planShare := 0.0
	if ls.planMS+ls.execMS > 0 {
		planShare = 100 * ls.planMS / (ls.planMS + ls.execMS)
	}
	rec.set("engine.plan_share_pct", planShare, "%", len(ls.exec))
	rec.set("trace.unaccounted_pct", acc.unaccountedPct(), "%", request)
	rec.setP50("ingest.durable_ms_p50", ls.durable, "ms")

	if err := st.engineProbes(rec, e.in.queries, thrashing); err != nil {
		return err
	}
	if durable {
		if err := e.ingestProbes(rec); err != nil {
			return err
		}
	}
	return tr.write(e.cfg)
}

// findMaterialize returns the first Materialize node of a plan, whose
// fingerprint is a key the cache holds once the plan has run.
func findMaterialize(n engine.Node) *engine.Materialize {
	if m, ok := n.(*engine.Materialize); ok {
		return m
	}
	for _, c := range n.Children() {
		if m := findMaterialize(c); m != nil {
			return m
		}
	}
	return nil
}

// engineProbes times calls the request path makes that a per-request
// span cannot isolate: a cache lookup, a query with nothing resident,
// and the cost of memory accounting.
func (s *stack) engineProbes(rec *recorder, queries []string, thrashing bool) error {
	bg := context.Background()
	plans := make([]engine.Node, min(len(queries), 40))
	for i := range plans {
		plan, err := s.strat.Compile(&strategy.Compiler{Query: queries[i], Synonyms: s.syn})
		if err != nil {
			return err
		}
		plans[i] = engine.NewTopN(s.ctx.Optimize(plan), 10, rankKeys()...)
	}
	if _, err := s.ctx.Exec(bg, plans[0]); err != nil {
		return err
	}

	// catalog.cache_get_ns_p50: Cache.Get on the key of an index the plan
	// just used, in batches so the clock's own cost is amortized.
	var getNS samples
	if m := findMaterialize(plans[0]); m != nil {
		key, cache := m.Fingerprint(), s.cat.Cache()
		const batch = 200
		for i := 0; i < 50; i++ {
			t0 := time.Now()
			for j := 0; j < batch; j++ {
				cache.Get(key)
			}
			getNS = append(getNS, float64(time.Since(t0).Nanoseconds())/batch)
		}
	}
	rec.set("catalog.cache_get_ns_p50", getNS.quantile(0.5), "ns", len(getNS))

	// memory.charge_overhead_pct: the same resident-index query with and
	// without a reservation on its context, alternating.
	var plain, charged samples
	if !thrashing {
		pool := memory.NewPool(0)
		for _, p := range plans {
			t0 := time.Now()
			if _, err := s.ctx.Exec(bg, p); err != nil {
				return err
			}
			plain.add(time.Since(t0))
			res := pool.Reserve(0)
			t0 = time.Now()
			_, err := s.ctx.Exec(memory.WithReservation(bg, res), p)
			charged.add(time.Since(t0))
			res.Release()
			if err != nil {
				return err
			}
		}
	}
	overhead := 0.0
	if p := plain.quantile(0.5); p > 0 {
		overhead = 100 * (charged.quantile(0.5)/p - 1)
	}
	rec.set("memory.charge_overhead_pct", overhead, "%", len(charged))

	// engine.exec_cold_ms_p50: the query with nothing resident, i.e. every
	// on-demand index built; the last one runs under a reservation whose
	// peak says which per-query budget a cold query needs.
	var cold samples
	res := memory.NewPool(0).Reserve(0)
	defer res.Release()
	const coldRuns = 3
	for i := 0; i < coldRuns; i++ {
		s.cat.Cache().Clear()
		c := bg
		if i == coldRuns-1 {
			c = memory.WithReservation(bg, res)
		}
		t0 := time.Now()
		if _, err := s.ctx.Exec(c, plans[i%len(plans)]); err != nil {
			return err
		}
		cold.add(time.Since(t0))
	}
	rec.set("engine.exec_cold_ms_p50", cold.quantile(0.5), "ms", len(cold))
	rec.set("memory.cold_query_peak_bytes", float64(res.Peak()), "bytes", 1)
	return nil
}

// ingestProbes times the write path's layers directly: the WAL append
// with and without fsync, and the memory-only apply + republish.
func (e *httpEnv) ingestProbes(rec *recorder) error {
	var payload bytes.Buffer
	if err := triple.WriteTSV(&payload, e.in.ingestBatch(0)); err != nil {
		return err
	}
	appendUS := func(policy wal.SyncPolicy) (samples, error) {
		dir := filepath.Join(e.dir, "walprobe-"+policy.String())
		log, err := wal.Open(dir, wal.ReplayResult{}, wal.Options{Policy: policy})
		if err != nil {
			return nil, err
		}
		defer log.Close()
		var s samples
		for i := 0; i < 40; i++ {
			t0 := time.Now()
			if _, err := log.Append(wal.RecAppendTriples, payload.Bytes()); err != nil {
				return nil, err
			}
			s.add(time.Since(t0))
		}
		return s.scaled(1000), nil
	}
	always, err := appendUS(wal.SyncAlways)
	if err != nil {
		return err
	}
	off, err := appendUS(wal.SyncOff)
	if err != nil {
		return err
	}
	rec.set("wal.append_always_us_p50", always.quantile(0.5), "us", len(always))
	rec.set("wal.append_off_us_p50", off.quantile(0.5), "us", len(off))
	rec.set("wal.fsync_us_p50", always.quantile(0.5)-off.quantile(0.5), "us", len(always))

	mem, _, err := newStack(e.in.tsv, 0, "")
	if err != nil {
		return err
	}
	var apply samples
	for i := 0; i < 8; i++ {
		batch := e.in.ingestBatch(100 + i)
		t0 := time.Now()
		if _, err := mem.mgr.AppendTriples(batch); err != nil {
			return err
		}
		apply.add(time.Since(t0))
	}
	rec.set("ingest.apply_ms_p50", apply.quantile(0.5), "ms", len(apply))
	return nil
}
