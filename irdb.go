package irdb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/ingest"
	"irdb/internal/ir"
	"irdb/internal/relation"
	"irdb/internal/spinql"
	"irdb/internal/strategy"
	"irdb/internal/text"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/wal"
)

// ErrClosed is returned by every operation on a closed DB.
var ErrClosed = errors.New("irdb: database is closed")

// ErrOverloaded is returned when the in-flight limit is reached and a
// query's bounded admission wait (WithAdmissionWait) expires before a
// slot frees up. It is the library-level analogue of an HTTP 503: the
// caller should back off and retry rather than keep queueing.
var ErrOverloaded = errors.New("irdb: too many in-flight queries")

// ErrCorruptSnapshot is returned by LoadSnapshot when the file fails
// checksum or structural validation. The database is left unchanged.
// Match with errors.Is; the concrete error carries the failing section
// and byte offset.
var ErrCorruptSnapshot = catalog.ErrCorruptSnapshot

// ErrCorruptWAL is returned by Open when the durability directory's
// write-ahead log holds damage a crash cannot explain (a bad frame with
// valid data after it). A torn tail — the normal crash artifact — is
// repaired silently, never reported as this.
var ErrCorruptWAL = wal.ErrCorruptWAL

// ErrNotDurable is returned by Checkpoint on a database opened without
// WithDurability.
var ErrNotDurable = ingest.ErrNotDurable

// ErrBudgetExceeded is returned by a query whose memory charges exceed
// its per-query byte budget (WithQueryMemBytes) or the shared pool
// capacity (WithMemoryPoolBytes). The failure is clean and terminal for
// that query only: nothing is cached, the reservation is fully
// released, and the same query may succeed under a larger budget or a
// quieter pool. Match with errors.Is.
var ErrBudgetExceeded = engine.ErrBudgetExceeded

// PanicError is the typed failure a query returns when an operator
// panicked during execution. The panic is contained: the process
// survives, the worker pool drains, and nothing is cached. Op names the
// operator that blew up and Stack holds its (truncated) stack trace.
type PanicError = engine.PanicError

// AsPanicError reports whether err (or anything it wraps) is a
// contained operator panic.
func AsPanicError(err error) (*PanicError, bool) { return engine.AsPanicError(err) }

// DB is the public face of the engine: a probabilistic triple store, a
// document collection, the SpinQL query language with prepared
// statements, and block-based search strategies — all sharing one
// materialization cache and one worker pool. A DB is safe for concurrent
// use; every query-running method takes a context.Context whose deadline
// and cancellation reach all the way into the engine's morsel loops, so a
// cancelled call returns promptly without waiting for plan completion.
type DB struct {
	cat    *catalog.Catalog
	store  *triple.Store
	eng    *engine.Ctx
	ingest *ingest.Manager

	strategies *strategy.Registry

	// gate admits every query (the same admission gate irdb-server
	// uses): the in-flight limit, the admission-wait bound, the per-query
	// memory reservation, and the drain Close waits on.
	gate engine.Gate

	parses   atomic.Int64
	compiles atomic.Int64
	queries  atomic.Int64
	closed   atomic.Bool

	// searcher ranks the docs table for SearchDocs. Its score plan is
	// planned once per schema epoch, so LoadDocs and LoadSnapshot re-plan
	// it and AppendDocs does not.
	searcher *ir.Searcher
}

// Option configures Open.
type Option func(*config)

type config struct {
	parallelism   int
	cacheBytes    int64
	cacheEntries  int
	maxInFlight   int
	admissionWait time.Duration
	queryMemBytes int64
	memPoolBytes  int64
	synonyms      map[string][]string
	durDir        string
	fsyncPolicy   string
	fsyncInterval time.Duration
}

// WithParallelism bounds the engine worker pool shared by all concurrent
// queries on the DB. 0 (the default) means GOMAXPROCS; 1 forces serial
// execution. Results are bit-identical at every setting.
func WithParallelism(n int) Option { return func(c *config) { c.parallelism = n } }

// WithCacheBytes sets the byte budget of the materialization cache
// (relations plus auxiliary join indexes). <= 0 means unbounded. Under
// pressure the cache keeps the entries that are costliest to rebuild per
// byte and still being read (GreedyDual-Size): the indexes queries read
// stay, the bulky intermediates that built them are evicted first.
func WithCacheBytes(n int64) Option { return func(c *config) { c.cacheBytes = n } }

// WithCacheEntries bounds the number of cached relation entries.
// <= 0 means unbounded.
func WithCacheEntries(n int) Option { return func(c *config) { c.cacheEntries = n } }

// WithMaxInFlight bounds concurrently executing queries; excess callers
// queue (respecting their context) instead of oversubscribing the worker
// pool. <= 0 (the default) means unbounded.
func WithMaxInFlight(n int) Option { return func(c *config) { c.maxInFlight = n } }

// WithAdmissionWait bounds how long a query may queue for an in-flight
// slot before failing fast with ErrOverloaded. Only meaningful together
// with WithMaxInFlight. <= 0 (the default) queues for as long as the
// query's context allows — graceful degradation trades a little latency
// headroom for never building an unbounded backlog.
func WithAdmissionWait(d time.Duration) Option { return func(c *config) { c.admissionWait = d } }

// WithQueryMemBytes bounds the bytes any single query may hold in
// intermediate results: joins' build tables, sort runs, aggregation
// accumulators and gathered outputs all charge against the budget, and
// a query that exceeds it fails cleanly with ErrBudgetExceeded instead
// of pressuring the process toward OOM. <= 0 (the default) leaves
// queries unbounded (though still pool-bounded under
// WithMemoryPoolBytes). Budgets never change results: a query that fits
// is bit-identical to its unbudgeted run at every parallelism.
func WithQueryMemBytes(n int64) Option { return func(c *config) { c.queryMemBytes = n } }

// WithMemoryPoolBytes caps the total bytes concurrently executing
// queries may hold between them. Each query reserves from the shared
// pool as it allocates; a charge that would push the pool past its
// capacity fails that query with ErrBudgetExceeded (pool scope) while
// the others run on. <= 0 (the default) tracks usage without a cap.
func WithMemoryPoolBytes(n int64) Option { return func(c *config) { c.memPoolBytes = n } }

// WithSynonyms supplies the synonym dictionary used by strategies with
// query expansion enabled.
func WithSynonyms(syn map[string][]string) Option { return func(c *config) { c.synonyms = syn } }

// WithDurability makes the database durable: a write-ahead log and
// checkpoint snapshots live under dir (snapshot.irdb + wal/). Open
// recovers whatever the directory holds — newest snapshot, then WAL
// replay past its watermark — so a kill -9 at any point resumes at
// exactly the last acknowledged write. Every append/delete is logged
// (and fsynced per WithFsync) before it is applied.
func WithDurability(dir string) Option { return func(c *config) { c.durDir = dir } }

// WithFsync sets the WAL fsync policy: "always" (default — every
// acknowledged write survives any crash), "interval" (fsync at most
// every WithFsyncInterval; a crash loses at most one interval), or
// "off" (the OS decides; fastest, weakest). Only meaningful with
// WithDurability.
func WithFsync(policy string) Option { return func(c *config) { c.fsyncPolicy = policy } }

// WithFsyncInterval sets the minimum time between fsyncs under
// WithFsync("interval"); default 100ms.
func WithFsyncInterval(d time.Duration) Option { return func(c *config) { c.fsyncInterval = d } }

// Open creates a database. Without WithDurability it starts empty and
// in-memory; with it, Open recovers the durability directory's snapshot
// and write-ahead log first. Load data with LoadTriples / LoadTriplesTSV
// / LoadDocs, grow it live with AppendTriples / AppendDocs, then query.
func Open(opts ...Option) (*DB, error) {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	cat := catalog.New(cfg.cacheEntries)
	if cfg.cacheBytes > 0 {
		cat.Cache().SetMaxBytes(cfg.cacheBytes)
	}
	eng := engine.NewCtx(cat)
	eng.Parallelism = cfg.parallelism
	store := triple.NewStore(cat)
	searcher, err := ir.NewSearcher(eng, engine.NewScan(DocsTable), ir.DefaultParams())
	if err != nil {
		return nil, err
	}
	db := &DB{
		cat:        cat,
		store:      store,
		eng:        eng,
		ingest:     ingest.New(cat, store, DocsTable),
		strategies: strategy.NewRegistry(eng, text.SynonymDict(cfg.synonyms)),
		searcher:   searcher,
	}
	db.gate.SetMaxInFlight(cfg.maxInFlight)
	db.gate.SetAdmissionWait(cfg.admissionWait)
	db.gate.SetMemory(cfg.memPoolBytes, cfg.queryMemBytes)
	if cfg.durDir != "" {
		if cfg.fsyncPolicy == "" {
			cfg.fsyncPolicy = "always"
		}
		policy, err := wal.ParsePolicy(cfg.fsyncPolicy)
		if err != nil {
			return nil, err
		}
		opt := wal.Options{Policy: policy, Interval: cfg.fsyncInterval}
		if err := db.ingest.OpenDurable(cfg.durDir, opt); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// Close marks the database closed, drains in-flight queries, and drops
// the cache. New operations return ErrClosed immediately; Close returns
// once every outstanding Query/Search/SearchDocs call has finished (use
// context cancellation on those calls to bound the drain).
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	// Drain fails only when its context ends; Background never does.
	_ = db.gate.Drain(context.Background())
	db.cat.Cache().Clear()
	return db.ingest.Close()
}

func (db *DB) check() error {
	if db.closed.Load() {
		return ErrClosed
	}
	return nil
}

// enter admits one query through the gate, translating a
// refusal into the facade's errors: a closed (draining) database answers
// ErrClosed, an expired admission wait ErrOverloaded, and a deadline that
// passed before a slot freed context.DeadlineExceeded. The returned
// context carries the query's memory reservation on a governed database;
// release returns it and the slot.
func (db *DB) enter(ctx context.Context) (context.Context, func(), error) {
	qctx, release, err := db.gate.Enter(ctx)
	if cause, refused := engine.RefusalCause(err); refused {
		switch cause {
		case engine.CauseDrain:
			return nil, nil, ErrClosed
		case engine.CauseWait:
			return nil, nil, ErrOverloaded
		default:
			return nil, nil, context.DeadlineExceeded
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return qctx, release, nil
}

// ---------------------------------------------------------------------------
// Loading

// Triple is one probabilistic statement. Object must be a string, int,
// int64 or float64 (objects are partitioned by physical type, as in the
// paper). P is the tuple probability; 0 means certain (1.0).
type Triple struct {
	Subject  string
	Property string
	Object   any
	P        float64
}

// convertTriples maps the facade's any-typed objects onto the store's
// typed partitions.
func convertTriples(triples []Triple) ([]triple.Triple, error) {
	converted := make([]triple.Triple, len(triples))
	for i, t := range triples {
		var obj triple.Object
		switch x := t.Object.(type) {
		case string:
			obj = triple.String(x)
		case int:
			obj = triple.Int(int64(x))
		case int64:
			obj = triple.Int(x)
		case float64:
			obj = triple.Float(x)
		default:
			return nil, fmt.Errorf("irdb: triple %d: unsupported object type %T", i, t.Object)
		}
		converted[i] = triple.Triple{Subject: t.Subject, Property: t.Property, Obj: obj, P: t.P}
	}
	return converted, nil
}

// LoadTriples replaces the triple store's contents. The materialization
// cache is invalidated (cached sub-queries may depend on the old data).
// On a durable database the replace is checkpointed immediately.
func (db *DB) LoadTriples(triples []Triple) error {
	if err := db.check(); err != nil {
		return err
	}
	converted, err := convertTriples(triples)
	if err != nil {
		return err
	}
	return db.ingest.ReplaceTriples(converted)
}

// LoadTriplesTSV loads triples from tab-separated lines
// (subject, property, object, optional probability), replacing the store
// contents. It returns the number of triples loaded.
func (db *DB) LoadTriplesTSV(r io.Reader) (int, error) {
	if err := db.check(); err != nil {
		return 0, err
	}
	triples, err := triple.ReadTSV(r)
	if err != nil {
		return 0, err
	}
	if err := db.ingest.ReplaceTriples(triples); err != nil {
		return 0, err
	}
	return len(triples), nil
}

// AppendTriples appends triples to the store without touching existing
// rows — live ingest. On a durable database the batch is written to the
// WAL (and fsynced per policy) before it is applied: a nil error means
// the rows survive any crash. Cached query results over untouched
// tables stay resident; only plans reading a changed partition are
// invalidated (watermark rule). Returns the number of rows appended.
func (db *DB) AppendTriples(triples []Triple) (int, error) {
	if err := db.check(); err != nil {
		return 0, err
	}
	converted, err := convertTriples(triples)
	if err != nil {
		return 0, err
	}
	return db.ingest.AppendTriples(converted)
}

// DeleteTriples removes every row matching one of the given (subject,
// property, object) keys; probabilities are not part of the key. Same
// durability and cache semantics as AppendTriples. Returns the number of
// rows removed.
func (db *DB) DeleteTriples(keys []Triple) (int, error) {
	if err := db.check(); err != nil {
		return 0, err
	}
	converted, err := convertTriples(keys)
	if err != nil {
		return 0, err
	}
	return db.ingest.DeleteTriples(converted)
}

// Doc is one document of the keyword-search collection. P is the document
// probability; 0 means certain.
type Doc struct {
	ID   string
	Text string
	P    float64
}

// DocsTable is the base table LoadDocs fills and SearchDocs queries.
const DocsTable = "docs"

// LoadDocs replaces the document collection backing SearchDocs. Document
// text is indexed on demand: the first search pays the inverted-view
// materialization, later searches run hot from the cache. On a durable
// database the replace is checkpointed immediately.
func (db *DB) LoadDocs(docs []Doc) error {
	if err := db.check(); err != nil {
		return err
	}
	b := relation.NewBuilder(
		[]string{"docID", "data"},
		[]vector.Kind{vector.String, vector.String})
	for _, d := range docs {
		p := d.P
		if p == 0 {
			p = 1.0
		}
		b.AddP(p, d.ID, d.Text)
	}
	return db.ingest.ReplaceTable(DocsTable, b.Build())
}

// AppendDocs appends documents to the collection backing SearchDocs —
// live ingest with the same write-ahead durability as AppendTriples. The
// next search sees the new documents. Returns the number of documents
// appended.
func (db *DB) AppendDocs(docs []Doc) (int, error) {
	if err := db.check(); err != nil {
		return 0, err
	}
	converted := make([]ingest.Doc, len(docs))
	for i, d := range docs {
		converted[i] = ingest.Doc{ID: d.ID, Text: d.Text, P: d.P}
	}
	return db.ingest.AppendDocs(converted)
}

// Checkpoint writes a durable snapshot stamped with the WAL watermark it
// covers and rotates the log, bounding recovery replay time. Returns
// ErrNotDurable on a database opened without WithDurability.
func (db *DB) Checkpoint() error {
	if err := db.check(); err != nil {
		return err
	}
	return db.ingest.Checkpoint()
}

// ---------------------------------------------------------------------------
// Snapshots

// SaveSnapshot durably writes the base tables (dictionaries included) to
// path: temp file in the same directory, per-section CRC32 checksums,
// fsync, atomic rename. A crash at any point leaves either the previous
// file or the new one — never a torn mix. The materialization cache is
// not saved; it rebuilds on demand.
func (db *DB) SaveSnapshot(path string) error {
	release, err := db.gate.Hold() // refused only while closing
	if err != nil {
		return ErrClosed
	}
	defer release()
	return db.cat.SaveFile(path, catalog.SnapshotMeta{})
}

// LoadSnapshot replaces the base tables with the contents of a snapshot
// file, invalidating the materialization cache. Every checksum and
// structural invariant is verified before anything is replaced: on a
// corrupt file LoadSnapshot returns an error matching ErrCorruptSnapshot
// and the database is unchanged.
func (db *DB) LoadSnapshot(path string) error {
	release, err := db.gate.Hold() // refused only while closing
	if err != nil {
		return ErrClosed
	}
	defer release()
	return db.ingest.LoadSnapshotFile(path)
}

// ---------------------------------------------------------------------------
// Queries

// Query parses, compiles and executes a SpinQL program, returning the
// last statement's result. Each call re-parses and re-compiles src; for
// repeated execution use Prepare, which does both exactly once.
// Statements with ?name parameters must go through Prepare.
func (db *DB) Query(ctx context.Context, src string) (*Result, error) {
	qctx, release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	naive, plan, err := db.compile(src)
	if err != nil {
		return nil, err
	}
	if params := engine.Params(naive); len(params) > 0 {
		return nil, fmt.Errorf("irdb: statement has parameters %v; use Prepare and bind them", params)
	}
	db.queries.Add(1)
	rel, err := db.eng.Exec(qctx, plan)
	if err != nil {
		return nil, err
	}
	return &Result{rel: rel}, nil
}

// compile parses src against a fresh triples environment, lowers the
// result onto the engine, and optimizes the plan, bumping the
// parse/compile counters Stats reports (prepared statements pay them
// once, ad-hoc queries per call). Both the naive plan as compiled and the
// optimized plan actually executed are returned; the two produce
// bit-identical results.
func (db *DB) compile(src string) (naive, optimized engine.Node, err error) {
	db.parses.Add(1)
	prog, err := spinql.Parse(src, spinql.TriplesEnv())
	if err != nil {
		return nil, nil, err
	}
	db.compiles.Add(1)
	naive, err = prog.Result().Compile()
	if err != nil {
		return nil, nil, err
	}
	return naive, db.eng.Optimize(naive), nil
}

// Explain parses and compiles src and renders the engine plan — both the
// naive plan as compiled and, when the optimizer changed it, the
// optimized plan that Query would execute.
func (db *DB) Explain(src string) (string, error) {
	if err := db.check(); err != nil {
		return "", err
	}
	naive, optimized, err := db.compile(src)
	if err != nil {
		return "", err
	}
	return engine.ExplainChange(naive, optimized), nil
}

// ToSQL parses src and renders its SQL translation — the SpinQL-to-SQL
// step of section 2.3 of the paper.
func (db *DB) ToSQL(src string) (string, error) {
	if err := db.check(); err != nil {
		return "", err
	}
	return spinql.ToSQL(src, spinql.TriplesEnv())
}

// ---------------------------------------------------------------------------
// Strategies and search

// InstallStrategy validates and installs a strategy from its JSON
// serialization, returning its name. Installing over an existing name
// replaces it.
func (db *DB) InstallStrategy(spec []byte) (string, error) {
	if err := db.check(); err != nil {
		return "", err
	}
	st, err := strategy.FromJSON(spec)
	if err != nil {
		return "", err
	}
	if err := db.strategies.Install(st); err != nil {
		return "", err
	}
	return st.Name, nil
}

// InstallBuiltinStrategies installs the strategies shipped with the
// reproduction — the Figure 2 toy strategy, the Figure 3 auction strategy
// and its production variant — and returns their names.
func (db *DB) InstallBuiltinStrategies() []string {
	var names []string
	builtins := strategy.Builtins()
	for _, st := range builtins {
		names = append(names, st.Name)
	}
	// The builtins are valid; their tests pin it.
	_ = db.strategies.Install(builtins...)
	sort.Strings(names)
	return names
}

// StrategyNames returns the installed strategy names, sorted.
func (db *DB) StrategyNames() []string { return db.strategies.Names() }

// Hit is one ranked search result.
type Hit struct {
	ID    string
	Score float64
}

// Search runs an installed strategy against a keyword query and returns
// the top k subjects, or every matching subject when k ≤ 0. It runs the
// same admission and the same plan as irdb-server's /search: admitted
// first, then the strategy's prepared plan (compiled and optimized once
// per schema epoch) bound to query and executed. ctx's deadline and
// cancellation abort the plan mid-execution.
func (db *DB) Search(ctx context.Context, strategyName, query string, k int) ([]Hit, error) {
	qctx, release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	st, err := db.strategies.Lookup(strategyName)
	if err != nil {
		return nil, fmt.Errorf("irdb: %w", err)
	}
	db.queries.Add(1)
	rel, err := st.Search(qctx, query, k)
	if err != nil {
		return nil, err
	}
	prob := rel.Prob()
	hits := make([]Hit, rel.NumRows())
	for i := range hits {
		hits[i] = Hit{ID: rel.Col(0).Vec.Format(i), Score: prob[i]}
	}
	return hits, nil
}

// SearchDocs ranks the LoadDocs collection against a keyword query with
// the default retrieval model (BM25) and returns the top k documents, or
// every matching document when k ≤ 0. Its score plan is planned once per
// schema epoch and bound per search.
func (db *DB) SearchDocs(ctx context.Context, query string, k int) ([]Hit, error) {
	qctx, release, err := db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	db.queries.Add(1)
	irHits, err := db.searcher.Search(qctx, query, k)
	if err != nil {
		return nil, err
	}
	hits := make([]Hit, len(irHits))
	for i, h := range irHits {
		hits[i] = Hit{ID: h.DocID, Score: h.Score}
	}
	return hits, nil
}

// ---------------------------------------------------------------------------
// Statistics

// CacheStats describes the materialization cache. Hits and Misses count
// lookups of materialized relations only; join index lookups count toward
// Shared (callers that joined an in-flight computation) and nothing else.
type CacheStats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Shared    uint64
	Oversize  uint64
	// StaleDrops counts computed results discarded at insertion because a
	// table they read was republished while they ran; DepInvalidations
	// counts entries evicted by watermark-selective invalidation (a live
	// append evicts only entries reading a changed table, never flushes).
	StaleDrops       uint64
	DepInvalidations uint64
	Entries          int
	AuxEntries       int
	Bytes            int64
	AuxBytes         int64
	MaxBytes         int64
}

// ExecutorStats describes the engine.
type ExecutorStats struct {
	Parallelism int
	NodeExecs   int64
	CacheHits   int64
}

// OptimizerStats counts plan-optimizer work across all queries: plans
// seen, plans changed, and per-rewrite totals.
type OptimizerStats struct {
	Plans         int64
	PlansChanged  int64
	SelectsMerged int64
	SelectsPushed int64
	EmptyRewrites int64
	ColumnsPruned int64
	// Deprecated: always 0. The optimizer has no cost-based memo, so no
	// plan groups are costed; the field stays only because the benchmark
	// (benchmark/facade.go) still reads it.
	GroupsCosted int64
}

// StatementStats counts the query-processing front end: how many parses
// and plan compilations ran (prepared statements pay one each, ad-hoc
// queries one per call) and how many queries executed.
type StatementStats struct {
	Parses   int64
	Compiles int64
	Queries  int64
}

// FaultStats counts contained failures: every entry here is an incident
// the process survived instead of crashing or serving bad data.
type FaultStats struct {
	// RecoveredPanics counts operator panics converted to PanicError.
	RecoveredPanics int64
	// CachePanics counts panics contained inside detached cache flights.
	CachePanics uint64
	// Overloaded counts queries shed with ErrOverloaded.
	Overloaded int64
	// SnapshotSaves / SnapshotLoads count successful durable snapshot
	// writes and reads; CorruptSnapshotLoads counts reads refused after
	// checksum or validation failure (the catalog was left unchanged).
	SnapshotSaves        int64
	SnapshotLoads        int64
	CorruptSnapshotLoads int64
}

// MemoryStats describes per-query memory governance. Enabled is false
// (and everything else zero) without WithQueryMemBytes or
// WithMemoryPoolBytes.
type MemoryStats struct {
	Enabled bool
	// PoolCapacity is the shared pool's byte ceiling (0 = track-only);
	// PoolUsed and PoolPeak the current and high-water bytes reserved by
	// live queries; PoolDenied the charges refused at pool scope.
	PoolCapacity int64
	PoolUsed     int64
	PoolPeak     int64
	PoolDenied   int64
	// ActiveReservations is the number of reservations currently open.
	ActiveReservations int64
	// QueryBudget is the per-query byte budget (0 = pool-bounded only).
	QueryBudget int64
	// BudgetDenials counts charges refused at either scope; each failed
	// query contributes at least one.
	BudgetDenials int64
}

// WALStats describes the write-ahead log of a durable database. Enabled
// is false (and everything else zero) without WithDurability.
type WALStats struct {
	Enabled bool
	// Records and Bytes count frames appended by this process; Fsyncs the
	// file syncs issued (policy-dependent).
	Records int64
	Bytes   int64
	Fsyncs  int64
	// Replays counts recovery passes over the log directory and
	// ReplayedRecords the records they applied.
	Replays         int64
	ReplayedRecords int64
	// Rotations counts checkpoint rotations; LastRotationUnix the time of
	// the most recent one (0 = never).
	Rotations        int64
	LastRotationUnix int64
	// Segments is the number of live segment files; LastSeq the highest
	// sequence number appended or replayed.
	Segments int
	LastSeq  int64
	// Policy is the fsync policy ("always", "interval", "off").
	Policy string
}

// IngestStats counts live-ingest activity.
type IngestStats struct {
	// AppendedTriples / DeletedTriples / AppendedDocs count rows applied,
	// recovery replay included.
	AppendedTriples int64
	DeletedTriples  int64
	AppendedDocs    int64
	// Checkpoints counts snapshot+rotate cycles.
	Checkpoints int64
	// Watermark is the catalog's publish watermark: every delta publish
	// ticks it once, and cache entries computed at an older watermark over
	// a changed table are evicted.
	Watermark uint64
	// Segments is the number of live WAL segments (0 when memory-only).
	Segments int
}

// Stats is a point-in-time snapshot of the database.
type Stats struct {
	Tables     []string
	Cache      CacheStats
	Executor   ExecutorStats
	Optimizer  OptimizerStats
	Statements StatementStats
	Faults     FaultStats
	Memory     MemoryStats
	WAL        WALStats
	Ingest     IngestStats
}

// Stats returns a snapshot of catalog, cache and executor statistics.
func (db *DB) Stats() Stats {
	cs := db.cat.Cache().Stats()
	ss := db.cat.SnapshotStats()
	os := db.eng.OptimizerStats()
	par := db.eng.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	is := db.ingest.Stats()
	var ms MemoryStats
	if pool := db.gate.Pool(); pool != nil {
		ms = MemoryStats{
			Enabled:            true,
			PoolCapacity:       pool.Capacity(),
			PoolUsed:           pool.Used(),
			PoolPeak:           pool.Peak(),
			PoolDenied:         pool.Denied(),
			ActiveReservations: pool.Active(),
			QueryBudget:        db.gate.QueryBudget(),
			BudgetDenials:      db.eng.BudgetDenials(),
		}
	}
	var ws WALStats
	if raw, ok := db.ingest.WALStats(); ok {
		ws = WALStats{
			Enabled: true,
			Records: raw.Records, Bytes: raw.Bytes, Fsyncs: raw.Fsyncs,
			Replays: raw.Replays, ReplayedRecords: raw.ReplayedRecords,
			Rotations: raw.Rotations, LastRotationUnix: raw.LastRotationUnix,
			Segments: raw.Segments, LastSeq: raw.LastSeq, Policy: raw.Policy,
		}
	}
	return Stats{
		Tables: db.cat.TableNames(),
		Cache: CacheStats{
			Hits: cs.Hits, Misses: cs.Misses, Evictions: cs.Evictions,
			Shared: cs.Shared, Oversize: cs.Oversize,
			StaleDrops: cs.StaleDrops, DepInvalidations: cs.DepInvalidations,
			Entries: cs.Entries, AuxEntries: cs.AuxEntries,
			Bytes: cs.Bytes, AuxBytes: cs.AuxBytes, MaxBytes: cs.MaxBytes,
		},
		Executor: ExecutorStats{
			Parallelism: par,
			NodeExecs:   db.eng.NodeExecs(),
			CacheHits:   db.eng.CacheHits(),
		},
		Optimizer: OptimizerStats{
			Plans:         os.Plans,
			PlansChanged:  os.PlansChanged,
			SelectsMerged: os.SelectsMerged,
			SelectsPushed: os.SelectsPushed,
			EmptyRewrites: os.EmptyRewrites,
			ColumnsPruned: os.ColumnsPruned,
		},
		Statements: StatementStats{
			Parses:   db.parses.Load(),
			Compiles: db.compiles.Load(),
			Queries:  db.queries.Load(),
		},
		Faults: FaultStats{
			RecoveredPanics:      db.eng.RecoveredPanics(),
			CachePanics:          cs.Panics,
			Overloaded:           db.gate.Stats().Refused[engine.CauseWait],
			SnapshotSaves:        ss.Saves,
			SnapshotLoads:        ss.Loads,
			CorruptSnapshotLoads: ss.CorruptLoads,
		},
		Memory: ms,
		WAL:    ws,
		Ingest: IngestStats{
			AppendedTriples: is.AppendedTriples,
			DeletedTriples:  is.DeletedTriples,
			AppendedDocs:    is.AppendedDocs,
			Checkpoints:     is.Checkpoints,
			Watermark:       is.Watermark,
			Segments:        is.Segments,
		},
	}
}
