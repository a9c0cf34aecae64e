package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"irdb/client"
	"irdb/internal/fault"
)

// The three HTTP workloads share one harness: a real irdb-server
// process, `clients` closed-loop connections, and a per-workload
// request mix. They differ in dataset size, server flags and what the
// first connection does.

const strategyName = "auction-lots"

// opKind names what one request was; end-to-end metrics are per kind.
type opKind int

const (
	opSearch   opKind = iota // GET /search k=10, JSON: the headline request
	opStream                 // GET /search k=1000 stream=1 (ndjson frames)
	opAppend                 // POST /append of one batch
	opFresh                  // first search for a batch's sentinel after its ack
	opDocs                   // facade_mix: DB.SearchDocs(q, 10)
	opPrepared               // facade_mix: Stmt.Query with ?kind bound
	opAdhoc                  // facade_mix: DB.Query of the same program text
	numKinds
)

// kindP50 names the client-seen median of every kind but the headline
// one, whose metrics are search_ms_p50/p90/p95 and search_qps.
var kindP50 = map[opKind]string{
	opStream:   "stream_ms_p50",
	opAppend:   "append_ms_p50",
	opFresh:    "fresh_search_ms_p50",
	opPrepared: "prepared_ms_p50",
	opAdhoc:    "adhoc_ms_p50",
}

// kindSource draws a connection's request kinds: each block is sent in a
// freshly shuffled order (seeded, so repeatable). The shares stay exact
// (one stream request in every ten on hot_search), but the two closed-loop
// connections cannot fall into lock-step, both sending their large
// request at the same moment every time.
type kindSource struct {
	rng   *rand.Rand
	block []opKind
	next  int
}

func newKindSource(mix []opKind, seed int64, connection int) *kindSource {
	block := append([]opKind(nil), mix...)
	return &kindSource{rng: rand.New(rand.NewSource(seed*131 + int64(connection))), block: block, next: len(block)}
}

func (k *kindSource) draw() opKind {
	if k.next == len(k.block) {
		k.rng.Shuffle(len(k.block), func(i, j int) { k.block[i], k.block[j] = k.block[j], k.block[i] })
		k.next = 0
	}
	k.next++
	return k.block[k.next-1]
}

// httpParams are the per-workload knobs of the shared harness; the
// harness reads these and never matches on a workload's name.
type httpParams struct {
	// mix is the read request mix as one block of kinds; a connection
	// sends block after block.
	mix []opKind
	// cacheMB is the server's -cache-mb (0 = unbounded).
	cacheMB int
	// appendPeriod > 0 makes the first connection the paced ingest writer
	// and the server durable (-wal, -fsync always); the run then ends with
	// a crash and a recovery.
	appendPeriod time.Duration
	// warmPerClient is how many requests each connection sends before the
	// window (0 = its half of the whole query list). A bounded cache never
	// gets warmer than its bound allows, so a short pass reaches its
	// steady state.
	warmPerClient int
	// topKChecks / streamChecks size the post-window correctness checks.
	topKChecks, streamChecks int
}

// evictCacheMB is evict_search's -cache-mb: the MiB nearest half the
// working set. The same requests on the three 2 000-lot datasets of seed
// 42 with the cache unbounded build 8 349 222, 8 468 402 and 8 095 872
// bytes of cache + aux (7.72 to 8.08 MiB; half is 3.86 to 4.04), measured
// once.
const evictCacheMB = 4

func paramsFor(workloadName string) httpParams {
	switch workloadName {
	case "evict_search":
		return httpParams{mix: []opKind{opSearch}, cacheMB: evictCacheMB, warmPerClient: 8, topKChecks: 8, streamChecks: 2}
	case "ingest_search":
		return httpParams{mix: []opKind{opSearch}, appendPeriod: 500 * time.Millisecond, topKChecks: 32}
	}
	// hot_search: every 10th request is stream=1&k=1000.
	mix := make([]opKind, 10)
	mix[0] = opStream
	return httpParams{mix: mix, topKChecks: 32, streamChecks: 4}
}

// httpEnv is one set-up server with its inputs.
type httpEnv struct {
	cfg    runConfig
	par    httpParams
	in     *inputs
	dir    string
	bin    string
	walDir string
	proc   *serverProc
	conns  []*conn
}

// conn is one client connection: its own transport, so its own socket.
type conn struct {
	cl   *client.Client
	http *http.Client
	base string
}

func newConn(base string) *conn {
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &conn{cl: client.New(base, client.Config{HTTPClient: hc}), http: hc, base: base}
}

func (c *conn) close() { c.http.CloseIdleConnections() }

func (e *httpEnv) teardown() {
	if e == nil {
		return
	}
	for _, c := range e.conns {
		c.close()
	}
	e.proc.stop()
}

// serverArgs are the irdb-server flags of this workload, without -addr.
func (e *httpEnv) serverArgs(withData bool) []string {
	var args []string
	if withData {
		args = append(args, "-data", filepath.Join(e.dir, "data.tsv"))
	}
	if e.par.cacheMB > 0 {
		mb := e.par.cacheMB
		if e.cfg.scale != fullScale {
			// -cache-mb is whole MiB; a scaled-down dataset's working set
			// is below the smallest bound, so the smoke run only checks
			// the plumbing.
			mb = 1
		}
		args = append(args, "-cache-mb", strconv.Itoa(mb))
	}
	if e.par.appendPeriod > 0 {
		args = append(args, "-wal", e.walDir, "-fsync", "always")
	}
	return args
}

// setupHTTP is one complete set-up: generate the inputs, start the
// server on them, wait for /readyz, and run the warm-up pass. Its
// duration is one setup_s sample.
func setupHTTP(cfg runConfig, bin, dir string, round int) (*httpEnv, error) {
	in, err := genInputs(cfg.workload, cfg.seed, round, cfg.scale)
	if err != nil {
		return nil, err
	}
	if err := checkPins(cfg.root, cfg.workload, cfg.seed, round, cfg.scale, in); err != nil {
		return nil, err
	}
	e := &httpEnv{cfg: cfg, par: paramsFor(cfg.workload), in: in, dir: dir, bin: bin,
		walDir: filepath.Join(dir, fmt.Sprintf("wal-%d", round))}
	if err := os.WriteFile(filepath.Join(dir, "data.tsv"), in.tsv, 0o644); err != nil {
		return nil, err
	}
	if e.proc, err = startServer(bin, e.serverArgs(true)...); err != nil {
		return nil, err
	}
	for i := 0; i < clients; i++ {
		e.conns = append(e.conns, newConn(e.proc.base))
	}
	warm := e.par.warmPerClient
	if warm == 0 || warm > len(in.queries)/clients {
		warm = len(in.queries) / clients
	}
	failed := newRecorder()
	e.drive(failed, nil, func(i int, _ time.Time) bool { return i < warm })
	if failed.failed > 0 {
		e.teardown()
		return nil, fmt.Errorf("warm-up: %d of %d requests failed: %v", failed.failed, failed.attempted, failed.failures)
	}
	return e, nil
}

// window is what one measured window observed from outside the server.
type window struct {
	mu        sync.Mutex
	elapsed   float64 // seconds
	byKind    [numKinds]samples
	reported  samples // server-reported latency_ms of opSearch requests
	overhead  samples // client-observed minus reported, same requests
	late      samples // how late the paced writer started each append
	acked     []int   // batches whose POST /append was acknowledged
	bodyBytes int64   // POST /append request-body bytes acknowledged
}

func (w *window) add(kind opKind, d time.Duration, reportedMS float64) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.byKind[kind].add(d)
	if kind == opSearch {
		ms := float64(d) / float64(time.Millisecond)
		w.reported = append(w.reported, reportedMS)
		w.overhead = append(w.overhead, ms-reportedMS)
	}
}

// merge pools another round's client-side samples into w.
func (w *window) merge(o *window) {
	for k := range w.byKind {
		w.byKind[k] = append(w.byKind[k], o.byKind[k]...)
	}
	w.reported = append(w.reported, o.reported...)
	w.overhead = append(w.overhead, o.overhead...)
	w.late = append(w.late, o.late...)
}

const opTimeout = 60 * time.Second

// request sends one read request and validates the reply's shape.
func (c *conn) request(kind opKind, query string) (reportedMS float64, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	switch kind {
	case opStream:
		err = c.cl.SearchStream(ctx, strategyName, query, 1000, func(rows []client.SearchResult) error {
			if len(rows) == 0 {
				return fmt.Errorf("empty rows frame for %q", query)
			}
			return nil
		})
		return 0, err
	default:
		resp, err := c.search(ctx, query, 10)
		if err != nil {
			return 0, err
		}
		return resp.LatencyMS, nil
	}
}

func (c *conn) search(ctx context.Context, query string, k int) (*client.SearchResponse, error) {
	resp, err := c.cl.Search(ctx, strategyName, query, k)
	if err != nil {
		return nil, err
	}
	if len(resp.Results) > k {
		return nil, fmt.Errorf("search %q k=%d returned %d results", query, k, len(resp.Results))
	}
	return resp, nil
}

// postAppend sends one batch; the 200 is the durability acknowledgement.
// The client package has no write call, so this is plain net/http on the
// connection's own transport.
func (c *conn) postAppend(body []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/append", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /append: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}

// drive runs every connection's closed loop until more(i, now) says
// stop, where i counts that connection's requests. On ingest_search the
// first connection is the paced writer instead.
func (e *httpEnv) drive(rec *recorder, w *window, more func(i int, now time.Time) bool) {
	var wg sync.WaitGroup
	start := time.Now()
	for g, c := range e.conns {
		wg.Add(1)
		go func(g int, c *conn) {
			defer wg.Done()
			var err error
			defer func() {
				if err != nil {
					rec.op(err)
				}
			}()
			defer fault.Recover(fmt.Sprintf("load connection %d", g), &err)
			if g == 0 && e.par.appendPeriod > 0 && w != nil {
				e.writerLoop(c, rec, w, start, more)
				return
			}
			// Connections start at different points of the query list so
			// they do not ask for the same thing at the same moment.
			offset := g * len(e.in.queries) / len(e.conns)
			kinds := newKindSource(e.par.mix, e.cfg.seed, g)
			for i := 0; more(i, time.Now()); i++ {
				kind := kinds.draw()
				query := e.in.queries[(offset+i)%len(e.in.queries)]
				t0 := time.Now()
				reported, opErr := c.request(kind, query)
				w.add(kind, time.Since(t0), reported)
				rec.op(opErr)
			}
		}(g, c)
	}
	wg.Wait()
	if w != nil {
		w.elapsed = time.Since(start).Seconds()
	}
}

// writerLoop is the ingest writer: an open loop on a fixed schedule.
// Each append is timed from the moment it was due, so a stall is charged
// to every append it delays; how late the writer ran is reported beside
// it. After each acknowledgement it searches for the batch's sentinel
// term: the first read of the new data, which pays for rebuilding
// whatever the append invalidated.
func (e *httpEnv) writerLoop(c *conn, rec *recorder, w *window, start time.Time, more func(int, time.Time) bool) {
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * e.par.appendPeriod)
		if !more(i, due) {
			return
		}
		time.Sleep(time.Until(due))
		body := appendBody(e.in.ingestBatch(i))
		began := time.Now()
		err := c.postAppend(body)
		rec.op(err)
		if err != nil {
			continue
		}
		w.add(opAppend, time.Since(due), 0)
		w.mu.Lock()
		w.late.add(began.Sub(due))
		w.acked = append(w.acked, i)
		w.bodyBytes += int64(len(body))
		w.mu.Unlock()

		t0 := time.Now()
		err = c.findSentinel(i)
		w.add(opFresh, time.Since(t0), 0)
		rec.op(err)
	}
}

// findSentinel is the read-your-writes check: a search for batch i's
// sentinel must return lots of batch i and nothing else.
func (c *conn) findSentinel(batch int) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	resp, err := c.search(ctx, sentinel(batch), 10)
	if err != nil {
		return err
	}
	want := min(10, batchLots)
	if len(resp.Results) != want {
		return fmt.Errorf("sentinel of batch %d found %d lots, want %d", batch, len(resp.Results), want)
	}
	prefix := batchLotID(batch, 0)[:len("live00000-")]
	for _, r := range resp.Results {
		if !strings.HasPrefix(r.Subject, prefix) {
			return fmt.Errorf("sentinel of batch %d returned %s", batch, r.Subject)
		}
	}
	return nil
}

// round is one set-up server's share of the measured window, with the
// server-side readings taken around it.
type round struct {
	w             *window
	before, after *serverStats
	cpuMS         float64 // server CPU time spent during the window
	// Server VmHWM when the window starts (load + warm-up behind it) and
	// when it ends.
	rssSetupMB, rssWindowMB float64
}

// measure runs the closed loops against the set-up server for the given
// time, tracing off.
func (e *httpEnv) measure(rec *recorder, seconds float64) (*round, error) {
	pid := e.proc.cmd.Process.Pid
	r := &round{w: &window{}}
	var err error
	if r.rssSetupMB, err = rssPeakMB(pid); err != nil {
		return nil, err
	}
	if r.before, err = e.proc.stats(); err != nil {
		return nil, err
	}
	cpuBefore, err := cpuMS(pid)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	e.drive(rec, r.w, func(_ int, now time.Time) bool { return now.Before(deadline) })
	if r.after, err = e.proc.stats(); err != nil {
		return nil, err
	}
	cpuAfter, err := cpuMS(pid)
	if err != nil {
		return nil, err
	}
	r.cpuMS = cpuAfter - cpuBefore
	if r.rssWindowMB, err = rssPeakMB(pid); err != nil {
		return nil, err
	}
	return r, nil
}

// runHTTPWorkload is the whole run of one HTTP workload.
func runHTTPWorkload(cfg runConfig, rec *recorder) error {
	dir, err := workDir(cfg.root, cfg.workload)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	bin, err := buildServer(cfg.root, dir)
	if err != nil {
		return err
	}

	// Every round is a complete, independent set-up (fresh inputs, fresh
	// process, fresh WAL directory) followed by its share of the measured
	// window. setup_s needs the repeats; measuring on each of them as well
	// spreads the window over several server processes, each of which
	// settles into its own regime (heap size and GC pacing are fixed by how
	// its cold build happened to go).
	var (
		env    *httpEnv
		last   *round
		pooled window
		series = newRoundSeries()
	)
	defer func() { env.teardown() }()
	for i := 0; i < setupRepeats; i++ {
		env.teardown()
		t0 := time.Now()
		if env, err = setupHTTP(cfg, bin, dir, i); err != nil {
			return err
		}
		series.add("setup_s", time.Since(t0).Seconds(), 1)
		if last, err = env.measure(rec, cfg.seconds/setupRepeats); err != nil {
			return err
		}
		// rss_peak_mb is the high-water mark through load and warm-up (the
		// cold build, the largest allocation burst a server sees). The mark
		// at the end of the window is a layer metric: under evict_search's
		// thrash the resident set saw-tooths between the allocator and the
		// scavenger with a period as long as a round, so that mark does not
		// repeat (spread 17 % over ten runs against 10 % for this one).
		// 503 and 507 are expected on no workload; each round's process has
		// its own counters.
		checkNoRefusals(rec, last.after)
		series.add("rss_peak_mb", last.rssSetupMB, 1)
		series.add("process.rss_window_peak_mb", last.rssWindowMB, 1)
		w := last.w
		series.addLatencies(&w.byKind, opSearch, w.elapsed)
		pooled.merge(w)
	}
	series.report(rec, cfg.spec.EndToEnd)
	series.report(rec, cfg.spec.PerLayer)
	reportClientLayer(rec, &pooled)
	// The layer counters are differenced across one process's window: the
	// last round's (the whole window when tracing, which sets up once).
	env.reportLayers(rec, last)

	// Correctness, then (ingest_search) the crash and recovery.
	if err := env.checkAgainstFacade(rec, last.w); err != nil {
		return err
	}
	if cfg.traced {
		return env.tracedRun(rec)
	}
	return nil
}

// reportClientLayer turns the client-side samples of all rounds, pooled,
// into the client and server.reported layer metrics.
func reportClientLayer(rec *recorder, w *window) {
	search := w.byKind[opSearch]
	rec.set("client.search_ms_p99", search.quantile(0.99), "ms", len(search))
	rec.set("client.search_ms_max", search.max(), "ms", len(search))
	rec.setP50("client.overhead_ms_p50", w.overhead, "ms")
	rec.setP50("client.writer_late_ms_p50", w.late, "ms")
	rec.setP50("server.reported_ms_p50", w.reported, "ms")
}

// reportLayers turns one round's /stats differences into layer metrics.
func (e *httpEnv) reportLayers(rec *recorder, r *round) {
	w, before, after := r.w, r.before, r.after
	var requests, retries int64
	for k := range w.byKind {
		requests += int64(len(w.byKind[k]))
	}
	for _, c := range e.conns {
		retries += c.cl.Retries()
	}
	rec.set("client.retries", float64(retries), "count", int(requests))
	reportStatsDelta(rec, before, after, requests, r.cpuMS)

	appends := len(w.acked)
	if appends == 0 || after.WAL == nil || before.WAL == nil {
		return
	}
	rec.set("catalog.dep_invalidations_per_append",
		float64(after.Cache.DepInvalidations-before.Cache.DepInvalidations)/float64(appends), "count", appends)
	rec.set("wal.fsyncs_per_append", float64(after.WAL.Fsyncs-before.WAL.Fsyncs)/float64(appends), "count", appends)
	rec.set("wal.bytes_per_user_byte", float64(after.WAL.Bytes-before.WAL.Bytes)/float64(w.bodyBytes), "ratio", appends)
	rec.set("ingest.segments", float64(after.Ingest.Segments), "count", 1)
}

// reportStatsDelta reports the counters every workload has, differenced
// across the measured window: server /stats for the HTTP workloads,
// DB.Stats() for facade_mix.
func reportStatsDelta(rec *recorder, before, after *serverStats, requests int64, cpuDeltaMS float64) {
	n := int(requests)
	perRequest := func(delta int64) float64 { return float64(delta) / float64(max(requests, 1)) }
	rec.set("server.queued_total", float64(after.Admission.QueuedTotal-before.Admission.QueuedTotal), "count", n)
	rec.set("server.queue_wait_ms", float64(after.Admission.QueueWaitMS-before.Admission.QueueWaitMS), "ms", n)
	rec.set("server.shed_total", float64(after.Faults.ShedRequests-before.Faults.ShedRequests), "count", n)
	rec.set("engine.groups_costed_per_query", perRequest(after.Optimizer.GroupsCosted-before.Optimizer.GroupsCosted), "count", n)
	rec.set("engine.node_execs_per_query", perRequest(after.Executor.NodeExecs-before.Executor.NodeExecs), "count", n)
	rec.set("engine.cache_hits_per_query", perRequest(after.Executor.CacheHits-before.Executor.CacheHits), "count", n)
	rec.set("process.cpu_ms_per_query", cpuDeltaMS/float64(max(requests, 1)), "ms", n)

	hits := after.Cache.Hits - before.Cache.Hits
	misses := after.Cache.Misses - before.Cache.Misses
	ratio := 0.0
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	rec.set("catalog.cache_hit_ratio", ratio, "ratio", int(hits+misses))
	rec.set("catalog.cache_evictions", float64(after.Cache.Evictions-before.Cache.Evictions), "count", n)
	rec.set("catalog.cache_oversize", float64(after.Cache.Oversize-before.Cache.Oversize), "count", n)
	rec.set("catalog.cache_shared", float64(after.Cache.Shared-before.Cache.Shared), "count", n)
	rec.set("catalog.cache_bytes", float64(after.Cache.Bytes), "bytes", 1)
	rec.set("catalog.cache_aux_bytes", float64(after.Cache.AuxBytes), "bytes", 1)
	rec.set("catalog.stale_drops", float64(after.Cache.StaleDrops-before.Cache.StaleDrops), "count", n)
}
