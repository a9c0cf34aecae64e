// Package server exposes search strategies over HTTP — the deployment
// shape of section 3, where "via the website's search-bar, users activate
// this strategy to find the items they are interested in" and a single VM
// serves 150,000 requests per day.
//
// Every installed strategy is compiled and optimized once per catalog
// schema epoch (strategy.Registry); a request binds its query into that
// immutable prepared plan, so concurrent requests never share mutable
// plan state. They share one engine.Ctx, which gives them the shared
// materialization cache (single-flighted, so a burst of identical
// cold queries computes each sub-plan once) and the shared worker pool
// bounding total intra-query parallelism across the whole process.
//
// Admission, memory budgets and drain are the engine.Gate the irdb
// facade runs every query through, and a search is the same
// strategy.Registry search on both surfaces; only the reporting differs
// (see the refusal table in package irdb's doc). /stats counts the
// refusal causes as faults.shed_drain, shed_wait and shed_deadline;
// shed_requests is their sum.
//
// Endpoints:
//
//	GET  /search?strategy=<name>&q=<keywords>&k=<n>  ranked results (JSON)
//	GET  /search?...&stream=1                        ranked results (ndjson frames)
//	GET  /strategies                                 installed strategies
//	POST /strategies                                 install a strategy (JSON body)
//	POST /append                                     live ingest: append/delete triples, append docs
//	GET  /stats                                      catalog + cache + executor + wal/ingest statistics
//	GET  /healthz                                    liveness (200 while the process serves)
//	GET  /readyz                                     readiness (503 before warm-up and during drain)
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"irdb/internal/engine"
	"irdb/internal/fault"
	"irdb/internal/faultpoint"
	"irdb/internal/ingest"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
)

// Server routes search requests to installed strategies over one shared
// execution context (and therefore one shared materialization cache, so
// concurrent requests reuse each other's on-demand indexes).
//
// Admission goes through an engine.Gate (in-flight limit default 2× the
// engine's worker-pool size) shared by /search, strategy installation and
// /append: excess requests queue instead of oversubscribing the pool, so
// saturation shows up as predictable queueing latency rather than a
// throughput collapse. /stats bypasses admission so the queue stays
// observable under load. The current queue depth and in-flight count are
// exported via /stats.
type Server struct {
	ctx *engine.Ctx

	// ingestMgr serializes live ingest behind POST /append; nil keeps the
	// server read-only (the endpoint answers 501).
	ingestMgr *ingest.Manager

	strategies *strategy.Registry

	requests sync.Map // strategy name -> *counter

	// gate is the admission gate: in-flight slots, the admission-wait
	// bound, drain, queue counters and per-request memory reservations.
	// A refused request is shed with 503 + Retry-After.
	gate engine.Gate

	// timeout bounds each admitted request's engine work (0 = none). The
	// deadline starts when the request is admitted, not while it queues.
	timeout time.Duration

	cancelled     atomic.Int64 // requests aborted by client disconnect
	timedOut      atomic.Int64 // requests aborted by the server deadline
	handlerPanics atomic.Int64 // panics the recovery middleware contained
	budgetDenied  atomic.Int64 // queries aborted by the per-query memory budget

	// ready gates /readyz: the process answers /healthz as soon as it can
	// serve HTTP, but reports ready only once warm-up (data load, WAL
	// recovery) finished — and not-ready again while draining.
	ready atomic.Bool
}

type counter struct {
	mu      sync.Mutex
	n       int64
	totalNS int64
}

// New creates a server over the given execution context. The request
// semaphore defaults to twice the context's effective worker-pool size.
func New(ctx *engine.Ctx, synonyms text.SynonymDict) *Server {
	par := ctx.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	s := &Server{
		ctx:        ctx,
		strategies: strategy.NewRegistry(ctx, synonyms),
	}
	s.gate.SetMaxInFlight(2 * par)
	// Ready by default: servers with a warm-up phase call SetReady(false)
	// before listening and SetReady(true) once recovery/load completes.
	s.ready.Store(true)
	return s
}

// SetMaxInFlight resizes the request admission semaphore (minimum 1).
// Must be called before the server starts handling requests.
func (s *Server) SetMaxInFlight(n int) { s.gate.SetMaxInFlight(max(n, 1)) }

// SetIngest enables POST /append, routing mutations through the given
// manager (which owns the WAL when one is configured). Must be called
// before the server starts handling requests.
func (s *Server) SetIngest(m *ingest.Manager) { s.ingestMgr = m }

// SetTimeout sets the per-request engine deadline (0 disables). Must be
// called before the server starts handling requests. A request exceeding
// it aborts mid-plan — the engine checks the context at chunk boundaries
// — and answers 504.
func (s *Server) SetTimeout(d time.Duration) { s.timeout = d }

// SetAdmissionWait bounds how long a request may queue for an admission
// slot (0 = unbounded, the default). A request whose wait would exceed it
// — or whose own deadline expires sooner — is shed fast with 503 +
// Retry-After instead of holding a connection open for an answer it will
// never get in time. Must be called before the server starts handling
// requests.
func (s *Server) SetAdmissionWait(d time.Duration) { s.gate.SetAdmissionWait(d) }

// SetMemory governs per-request memory: each admitted /search reserves
// up to perQueryBytes (0 = bounded only by the pool) from a shared pool
// capped at poolBytes (0 = track-only), and a query whose intermediate
// state would exceed either bound aborts cleanly with 507 instead of
// pressuring the process toward OOM. Must be called before the server
// starts handling requests.
func (s *Server) SetMemory(poolBytes, perQueryBytes int64) {
	s.gate.SetMemory(poolBytes, perQueryBytes)
}

// SetReady flips the /readyz answer. A server with a warm-up phase
// (snapshot load, WAL recovery, corpus install) starts not-ready so load
// balancers hold traffic, then flips ready once it can answer searches.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Ready reports the current readiness (false while draining).
func (s *Server) Ready() bool { return s.ready.Load() && !s.gate.Stats().Draining }

// Shutdown stops admitting requests and waits for the in-flight ones to
// drain, or for ctx to expire (returning its error with requests still
// running). New requests during and after the drain are answered 503 with
// Retry-After; /stats keeps working so the drain is observable. Shutdown
// does not close listeners — pair it with http.Server.Shutdown, which
// stops accepting connections while this drains the query work.
func (s *Server) Shutdown(ctx context.Context) error { return s.gate.Drain(ctx) }

// admitted reports whether the gate admitted a request (err is what
// Enter or Admit returned), writing the refusal response when it did
// not: 503 + Retry-After for a shed (drain, wait bound, deadline), 503
// for a client that went away while queued. /search enters with a memory
// reservation; /append and strategy installs, which run no query plan,
// only Admit.
func (s *Server) admitted(w http.ResponseWriter, err error) bool {
	if err == nil {
		return true
	}
	if _, shed := engine.RefusalCause(err); shed {
		s.shedResponse(w)
	} else {
		// Client went away while queued; nothing useful to send.
		httpError(w, http.StatusServiceUnavailable, "request cancelled while queued")
	}
	return false
}

// shedResponse answers a request refused by admission: 503 plus a
// Retry-After hint sized to the admission wait bound, so well-behaved
// clients back off instead of hammering a saturated (or draining) server.
func (s *Server) shedResponse(w http.ResponseWriter) {
	gs := s.gate.Stats()
	retry := max(int(gs.AdmissionWait/time.Second), 1)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	msg := "server overloaded; retry later"
	if gs.Draining {
		msg = "server shutting down"
	}
	httpError(w, http.StatusServiceUnavailable, msg)
}

// Install registers a strategy under its name, replacing any previous
// one.
func (s *Server) Install(st *strategy.Strategy) error { return s.strategies.Install(st) }

// StrategyNames returns the installed strategy names, sorted.
func (s *Server) StrategyNames() []string { return s.strategies.Names() }

// Handler returns the HTTP handler. Every route runs under the panic
// recovery middleware: a handler panic answers 500, bumps the recovered
// counter, and the process keeps serving.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /search", s.handleSearch)
	mux.HandleFunc("GET /strategies", s.handleListStrategies)
	mux.HandleFunc("POST /strategies", s.handleInstallStrategy)
	mux.HandleFunc("POST /append", s.handleAppend)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return s.withRecovery(mux)
}

// handleHealthz is liveness: 200 whenever the process can run a handler
// at all. It deliberately ignores drain and overload — a draining server
// is alive, and restarting it would lose the in-flight work.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok"})
}

// handleReadyz is readiness: 200 only when the server wants traffic.
// Not-ready during warm-up (before SetReady(true)) and during drain, so
// load balancers stop routing here before the 503s start.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.Ready() {
		reason := "warming up"
		if s.gate.Stats().Draining {
			reason = "draining"
		}
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "unavailable", "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// withRecovery is the outermost degradation layer: any panic that escapes
// a handler — including engine plumbing outside Exec's own containment —
// is recovered here, counted, and answered as a 500 instead of tearing
// down the connection (net/http's default) or trusting every code path
// below to be panic-free. The response is best-effort: if the handler
// already wrote a partial body, the write of the error payload fails
// silently, but the process always survives.
func (s *Server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.handlerPanics.Add(1)
				pe := fault.Capture(r.Method+" "+r.URL.Path, rec)
				httpError(w, http.StatusInternalServerError, pe.Error())
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// SearchResult is one ranked hit in a search response.
type SearchResult struct {
	Subject string  `json:"subject"`
	Score   float64 `json:"score"`
}

// SearchResponse is the /search payload.
type SearchResponse struct {
	Strategy  string         `json:"strategy"`
	Query     string         `json:"query"`
	K         int            `json:"k"`
	Results   []SearchResult `json:"results"`
	LatencyMS float64        `json:"latency_ms"`
}

func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("strategy")
	query := r.URL.Query().Get("q")
	if name == "" || query == "" {
		httpError(w, http.StatusBadRequest, "parameters 'strategy' and 'q' are required")
		return
	}
	k := 10
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 || v > 1000 {
			httpError(w, http.StatusBadRequest, "k must be an integer in [1,1000]")
			return
		}
		k = v
	}
	st, err := s.strategies.Lookup(name)
	if err != nil {
		httpError(w, http.StatusNotFound, err.Error())
		return
	}

	// Fault-injection site: tests arm it to panic inside the handler and
	// prove the recovery middleware keeps the process serving.
	if err := faultpoint.Inject(faultpoint.SiteServerSearch); err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}

	start := time.Now()
	// Execute under the request's context: when the client disconnects the
	// engine aborts the plan at its next chunk boundary and the admission
	// slot frees immediately, instead of a dead request holding it until
	// plan completion. On a memory-governed server the gate puts the
	// request's reservation on the same context — released on this
	// handler's exit however the request ends — and the optional server
	// deadline, which starts at admission, stacks on top.
	c, release, err := s.gate.Enter(r.Context())
	if !s.admitted(w, err) {
		return
	}
	defer release()
	if s.timeout > 0 {
		var cancel context.CancelFunc
		c, cancel = context.WithTimeout(c, s.timeout)
		defer cancel()
	}
	rel, err := st.Search(c, query, k)
	if err != nil {
		switch {
		case errors.Is(err, engine.ErrBudgetExceeded):
			// Terminal for this query: retrying the same query against the
			// same budget fails identically, so the status must not be one
			// clients retry on. 507 names the cause exactly.
			s.budgetDenied.Add(1)
			httpError(w, http.StatusInsufficientStorage, err.Error())
		case errors.Is(err, context.DeadlineExceeded):
			s.timedOut.Add(1)
			httpError(w, http.StatusGatewayTimeout, fmt.Sprintf("query exceeded the %s server deadline", s.timeout))
		case errors.Is(err, context.Canceled):
			s.cancelled.Add(1)
			httpError(w, http.StatusServiceUnavailable, "request cancelled")
		default:
			httpError(w, http.StatusInternalServerError, err.Error())
		}
		return
	}
	elapsed := time.Since(start)

	cv, _ := s.requests.LoadOrStore(name, &counter{})
	cc := cv.(*counter)
	cc.mu.Lock()
	cc.n++
	cc.totalNS += elapsed.Nanoseconds()
	cc.mu.Unlock()

	resp := SearchResponse{
		Strategy:  name,
		Query:     query,
		K:         k,
		Results:   make([]SearchResult, rel.NumRows()),
		LatencyMS: float64(elapsed.Microseconds()) / 1000,
	}
	prob := rel.Prob()
	for i := range resp.Results {
		resp.Results[i] = SearchResult{Subject: rel.Col(0).Vec.Format(i), Score: prob[i]}
	}
	if r.URL.Query().Get("stream") == "1" {
		s.writeStreamed(w, r, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// streamFrameRows is the number of results encoded per rows frame.
const streamFrameRows = 256

// Frame types of the streamed /search response (one JSON object per
// line, application/x-ndjson): a schema frame, zero or more rows
// frames, and exactly one trailing end or error frame. A response that
// ends without its trailing frame was truncated — clients must treat it
// as failed, never as a short result.
type schemaFrame struct {
	Frame    string   `json:"frame"` // "schema"
	Strategy string   `json:"strategy"`
	Query    string   `json:"query"`
	K        int      `json:"k"`
	Columns  []string `json:"columns"`
}

type rowsFrame struct {
	Frame   string         `json:"frame"` // "rows"
	Results []SearchResult `json:"results"`
}

type endFrame struct {
	Frame     string  `json:"frame"` // "end"
	Rows      int     `json:"rows"`
	LatencyMS float64 `json:"latency_ms"`
}

type errorFrame struct {
	Frame string `json:"frame"` // "error"
	Error string `json:"error"`
}

// writeStreamed encodes an already-computed response as ndjson frames,
// flushing after every frame so results reach a slow reader
// incrementally and a disconnect is noticed at the next frame boundary
// — at which point the handler returns and its deferred releases free
// the admission slot and memory reservation immediately.
func (s *Server) writeStreamed(w http.ResponseWriter, r *http.Request, resp SearchResponse) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	emit := func(frame any) bool {
		if err := r.Context().Err(); err != nil {
			// Cancelled mid-stream. Best-effort error frame: if this was a
			// server deadline the client may still be reading and deserves a
			// terminal frame; if the client disconnected the write just
			// fails. Either way the stream ends without its end frame.
			s.cancelled.Add(1)
			_ = enc.Encode(errorFrame{Frame: "error", Error: err.Error()})
			return false
		}
		if err := enc.Encode(frame); err != nil {
			// The connection is gone; there is nobody to tell.
			s.cancelled.Add(1)
			return false
		}
		if flusher != nil {
			flusher.Flush()
		}
		return true
	}
	if !emit(schemaFrame{Frame: "schema", Strategy: resp.Strategy, Query: resp.Query, K: resp.K,
		Columns: []string{"subject", "score"}}) {
		return
	}
	for lo := 0; lo < len(resp.Results); lo += streamFrameRows {
		hi := lo + streamFrameRows
		if hi > len(resp.Results) {
			hi = len(resp.Results)
		}
		if !emit(rowsFrame{Frame: "rows", Results: resp.Results[lo:hi]}) {
			return
		}
	}
	emit(endFrame{Frame: "end", Rows: len(resp.Results), LatencyMS: resp.LatencyMS})
}

func (s *Server) handleListStrategies(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name   string `json:"name"`
		Blocks int    `json:"blocks"`
	}
	sts := s.strategies.Strategies()
	out := make([]entry, len(sts))
	for i, st := range sts {
		out[i] = entry{Name: st.Name, Blocks: st.NumBlocks()}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleInstallStrategy(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	st, err := strategy.FromJSON(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Strategy installation shares the admission semaphore with /search:
	// installation validates and can pre-compile heavy materializations, so
	// letting it bypass admission would oversubscribe the worker pool
	// exactly when the server is saturated. The slot is taken only after
	// the body is read and parsed — a slow or malformed upload must not
	// occupy admission while doing no engine work. /stats stays exempt —
	// it must answer while the pool is busy, that is its job.
	release, err := s.gate.Admit(r.Context())
	if !s.admitted(w, err) {
		return
	}
	defer release()
	if err := s.Install(st); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"installed": st.Name})
}

// appendTriple is the wire form of one triple (or delete key). Object
// may be a JSON string or number; numbers without a fractional part
// become integer objects, matching the TSV loader's type detection.
type appendTriple struct {
	Subject  string  `json:"subject"`
	Property string  `json:"property"`
	Object   any     `json:"object"`
	P        float64 `json:"p"`
}

// appendDoc is the wire form of one corpus document.
type appendDoc struct {
	ID   string  `json:"id"`
	Text string  `json:"text"`
	P    float64 `json:"p"`
}

func (t appendTriple) convert(i int) (triple.Triple, error) {
	out := triple.Triple{Subject: t.Subject, Property: t.Property, P: t.P}
	switch x := t.Object.(type) {
	case string:
		out.Obj = triple.String(x)
	case json.Number:
		if v, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
			out.Obj = triple.Int(v)
		} else if f, err := x.Float64(); err == nil {
			out.Obj = triple.Float(f)
		} else {
			return out, fmt.Errorf("triple %d: bad numeric object %q", i, x.String())
		}
	default:
		return out, fmt.Errorf("triple %d: object must be a string or number, got %T", i, t.Object)
	}
	return out, nil
}

// handleAppend is live ingest over HTTP: the batch is WAL-logged (and
// fsynced per the server's policy) before it is applied, so a 200 means
// the rows are durable. Deletes apply after appends within one request.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if s.ingestMgr == nil {
		httpError(w, http.StatusNotImplemented, "live ingest is not enabled on this server")
		return
	}
	var req struct {
		Triples []appendTriple `json:"triples"`
		Deletes []appendTriple `json:"deletes"`
		Docs    []appendDoc    `json:"docs"`
	}
	// Read the whole payload off the network BEFORE decoding (and long
	// before the admission slot or the ingest manager's lock): a slow
	// writer trickling a large batch must stall here, in its own
	// connection's read, not inside any section other requests contend
	// on. Decoding then runs at memory speed.
	body, err := io.ReadAll(io.LimitReader(r.Body, 64<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	convert := func(ts []appendTriple) ([]triple.Triple, error) {
		out := make([]triple.Triple, len(ts))
		for i, t := range ts {
			var err error
			if out[i], err = t.convert(i); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	appends, err := convert(req.Triples)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	deletes, err := convert(req.Deletes)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Mutations share the admission semaphore with /search: publishing a
	// delta does engine-adjacent work (relation builds, cache eviction),
	// so it must not bypass the load bound. The slot is taken only after
	// the body is parsed.
	release, err := s.gate.Admit(r.Context())
	if !s.admitted(w, err) {
		return
	}
	defer release()
	appended, err := s.ingestMgr.AppendTriples(appends)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	deleted, err := s.ingestMgr.DeleteTriples(deletes)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	docs := make([]ingest.Doc, len(req.Docs))
	for i, d := range req.Docs {
		docs[i] = ingest.Doc{ID: d.ID, Text: d.Text, P: d.P}
	}
	appendedDocs, err := s.ingestMgr.AppendDocs(docs)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"appended_triples": appended,
		"deleted_triples":  deleted,
		"appended_docs":    appendedDocs,
		"watermark":        s.ingestMgr.Stats().Watermark,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	cacheStats := s.ctx.Cat.Cache().Stats()
	type stratStats struct {
		Requests int64   `json:"requests"`
		AvgMS    float64 `json:"avg_ms"`
	}
	perStrategy := map[string]stratStats{}
	s.requests.Range(func(k, v any) bool {
		cc := v.(*counter)
		cc.mu.Lock()
		st := stratStats{Requests: cc.n}
		if cc.n > 0 {
			st.AvgMS = float64(cc.totalNS) / float64(cc.n) / 1e6
		}
		cc.mu.Unlock()
		perStrategy[k.(string)] = st
		return true
	})
	parallelism := s.ctx.Parallelism
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	var walStats, ingestStats any
	if s.ingestMgr != nil {
		ingestStats = s.ingestMgr.Stats()
		if ws, ok := s.ingestMgr.WALStats(); ok {
			walStats = ws
		}
	}
	gs := s.gate.Stats()
	shed, pool := gs.Refused, s.gate.Pool()
	writeJSON(w, http.StatusOK, map[string]any{
		"tables":     s.ctx.Cat.TableNames(),
		"cache":      cacheStats,
		"dicts":      s.ctx.Cat.DictStats(),
		"strategies": perStrategy,
		"wal":        walStats,
		"ingest":     ingestStats,
		"executor": map[string]any{
			"parallelism": parallelism,
			"node_execs":  s.ctx.NodeExecs(),
			"cache_hits":  s.ctx.CacheHits(),
		},
		"optimizer": s.ctx.OptimizerStats(),
		"admission": map[string]any{
			"max_in_flight":     gs.MaxInFlight,
			"in_flight":         gs.InFlight,
			"queue_depth":       gs.QueueDepth,
			"queued_total":      gs.QueuedTotal,
			"queue_wait_ms":     gs.QueueWait.Milliseconds(),
			"admission_wait_ms": gs.AdmissionWait.Milliseconds(),
			"timeout_ms":        s.timeout.Milliseconds(),
			"cancelled":         s.cancelled.Load(),
			"timed_out":         s.timedOut.Load(),
			"draining":          gs.Draining,
			"ready":             s.Ready(),
		},
		"memory": map[string]any{
			"enabled":             pool != nil,
			"pool_capacity":       pool.Capacity(),
			"pool_used":           pool.Used(),
			"pool_peak":           pool.Peak(),
			"per_query_bytes":     s.gate.QueryBudget(),
			"active_reservations": pool.Active(),
			"budget_denied":       s.budgetDenied.Load(),
		},
		// The degradation ledger: every contained failure is counted here,
		// so "the process survived" is observable, not anecdotal.
		"faults": map[string]any{
			"recovered_panics":       s.handlerPanics.Load() + s.ctx.RecoveredPanics(),
			"handler_panics":         s.handlerPanics.Load(),
			"query_panics":           s.ctx.RecoveredPanics(),
			"cache_compute_panics":   cacheStats.Panics,
			"corrupt_snapshot_loads": s.ctx.Cat.SnapshotStats().CorruptLoads,
			"shed_requests":          shed[engine.CauseDrain] + shed[engine.CauseWait] + shed[engine.CauseDeadline],
			"shed_drain":             shed[engine.CauseDrain],
			"shed_wait":              shed[engine.CauseWait],
			"shed_deadline":          shed[engine.CauseDeadline],
			"budget_denied":          s.budgetDenied.Load(),
		},
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
