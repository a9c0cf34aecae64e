// Package irdb is a from-scratch Go reproduction of "Challenges for
// industrial-strength Information Retrieval on Databases" (Cornacchia,
// Hildebrand, de Vries, Dorssers; EDBT/ICDT 2017 workshops): information
// retrieval implemented on a relational column store, with a
// probabilistic triple data model, the SpinQL algebra language, and a
// block-based search strategy layer on top.
//
// # The public API
//
// This package is the stable facade over the engine — the shape a
// production deployment programs against. Open a database, load data,
// and query it; every query-running method takes a context.Context whose
// deadline and cancellation reach into the engine's morsel loops, so an
// abandoned request stops mid-plan instead of holding resources until
// completion:
//
//	db, err := irdb.Open(
//		irdb.WithParallelism(8),
//		irdb.WithCacheBytes(256<<20),
//		irdb.WithMaxInFlight(16),
//		irdb.WithDurability("/var/lib/irdb"), // optional: WAL + snapshots
//	)
//	if err != nil { ... }
//	defer db.Close()
//	db.LoadTriples(triples)
//
//	stmt, _ := db.Prepare(`SELECT [$2="category" and $3=?cat] (triples);`)
//	res, err := stmt.Query(ctx, irdb.P("cat", "toy"))
//
// # Memory governance and streamed results
//
// WithQueryMemBytes bounds the bytes one query may hold in intermediate
// state (join build tables, sort runs, aggregation accumulators,
// gathered outputs); WithMemoryPoolBytes caps all concurrent queries
// together. A query over either bound aborts cleanly with
// ErrBudgetExceeded — never cached, nothing leaked, and a query that
// fits is bit-identical to an unbudgeted run. Stmt.QueryStream returns
// the same rows as Stmt.Query but hands them out in batches, holding
// the query's admission slot and memory reservation until the consumer
// closes (or exhausts) the stream — the shape a server encoding rows to
// a slow client needs:
//
//	db, _ := irdb.Open(irdb.WithQueryMemBytes(64<<20), irdb.WithMemoryPoolBytes(512<<20))
//	st, err := stmt.QueryStream(ctx, irdb.P("cat", "toy"))
//	if errors.Is(err, irdb.ErrBudgetExceeded) { ... } // terminal: narrow the query or raise the budget
//	defer st.Close()
//	for st.Next() {
//		b := st.Batch() // a *Result view of up to 1024 rows
//		for i := 0; i < b.NumRows(); i++ { emit(b.Value(i, 0), b.Prob(i)) }
//	}
//	if st.Err() != nil { ... } // cancelled / disconnected mid-stream
//
// # One request spine
//
// Every query-running method and irdb-server's request handlers pass
// through the same admission gate (internal/engine, Gate): an in-flight
// limit (WithMaxInFlight), an admission wait capped by the caller's
// deadline (WithAdmissionWait), the per-query memory reservation
// (WithQueryMemBytes, WithMemoryPoolBytes), and the drain behind Close
// and the server's Shutdown. A search is one function on both surfaces:
// admitted first, then compiled, optimized, cut to the top k and
// executed (Strategy.Rank), so DB.Search and /search return identical
// rankings. The gate refuses with a typed cause that each surface
// reports in its own terms:
//
//	cause                              facade                      HTTP
//	closing / draining                 ErrClosed                   503 + Retry-After
//	admission wait expired             ErrOverloaded               503 + Retry-After
//	deadline passed before admission   context.DeadlineExceeded    503 + Retry-After
//	cancelled while queued             context.Canceled            503
//	budget exceeded while executing    ErrBudgetExceeded           507
//	deadline exceeded while executing  the caller's ctx.Err()      504 (server deadline)
//
// The HTTP layer speaks the same taxonomy: the server sheds overload as
// 503 + Retry-After, answers budget denials with 507 (terminal), streams
// /search?stream=1 as ndjson frames, and exposes /healthz and /readyz;
// the client package (irdb/client) retries the retryable statuses with
// jittered, deadline-aware exponential backoff and fails fast on the
// terminal ones:
//
//	c := client.New("http://127.0.0.1:8080", client.Config{MaxAttempts: 5})
//	resp, err := c.Search(ctx, "auction-lots", "wooden train", 10)
//	switch {
//	case errors.Is(err, client.ErrBudgetExceeded): // 507: do not retry
//	case errors.Is(err, client.ErrUnavailable):    // retries exhausted against 503s
//	}
//
// With WithDurability, writes are logged to a write-ahead log before
// they apply: DB.AppendTriples, DB.DeleteTriples and DB.AppendDocs
// return only after the batch is fsynced (per WithFsync policy), a
// crash recovers to exactly the last acknowledged write on the next
// Open, and DB.Checkpoint compacts the log into a checksummed snapshot.
// Live appends land in delta segments over the frozen base columns and
// evict only the cache entries that read a changed table (the watermark
// rule); see internal/engine/README.md, "Durability model".
//
// Prepared statements parse and compile exactly once; Query binds ?name
// placeholders to literals with a structural substitution thousands of
// times cheaper than re-parsing. Sub-plans that do not depend on any
// parameter are pointer-shared across bindings, so their fingerprints —
// and materialization cache entries — are reused whatever values are
// bound. Ad-hoc execution (DB.Query), strategy search (DB.Search over
// JSON-installed strategies), BM25 document search (DB.LoadDocs /
// DB.SearchDocs), plan inspection (DB.Explain, DB.ToSQL) and statistics
// (DB.Stats) round out the surface; see api.txt for the pinned listing.
// examples/quickstart is the canonical tour.
//
// # Migration from the internal call patterns
//
// Earlier revisions wired internal packages together by hand. The facade
// replaces those shapes one for one:
//
//	catalog.New + triple.NewStore + engine.NewCtx   -> irdb.Open(opts...)
//	ctx.Parallelism = n                             -> irdb.WithParallelism(n)
//	cat.Cache().SetMaxBytes(n)                      -> irdb.WithCacheBytes(n)
//	server admission gate                           -> irdb.WithMaxInFlight(n)
//	store.Load(triples)                             -> db.LoadTriples / db.LoadTriplesTSV
//	spinql.Eval(src, env, ctx)                      -> db.Query(ctx, src)
//	spinql.Parse + Compile per request              -> db.Prepare(src); stmt.Query(ctx, params...)
//	strategy.FromJSON + Rank                        -> db.InstallStrategy(json); db.Search(ctx, name, q, k)
//	ir.NewSearcher(ctx, docsPlan, params).Search    -> db.LoadDocs(docs); db.SearchDocs(ctx, q, k)
//	spinql.Explain / pra.ToSQL                      -> db.Explain / db.ToSQL
//
// At the engine layer, engine.Ctx.Exec and engine.Node.Execute now take
// a context.Context first; catalog.Cache.GetOrComputeDeps and
// GetOrComputeAuxDeps (the cache's two entry points) do too, and
// a waiter whose context is cancelled detaches from a single-flight
// computation without killing it for everyone else.
//
// # Execution model
//
// The engine executes every operator stage in parallel — independent
// subtrees fan out over a worker pool, hot per-row loops split into
// morsels, and materialization itself is morsel-parallel: output columns
// are pre-sized and written at offset, TopN and full Sort k-way-merge
// bounded per-run selections, the join build fills partitioned
// open-addressing tables, grouping deduplicates per morsel before a
// re-rank, and aggregation folds per-chunk partial accumulators in a
// fixed merge order — while guaranteeing results bit-identical to serial
// execution. String data is dictionary-encoded end-to-end
// (vector.DictStrings), so hashes, comparisons, sorts, group-bys and
// joins over interned columns run on fixed-width codes. The shared
// materialization cache single-flights concurrent misses so one VM's
// worth of traffic (the paper's 150k requests/day deployment) rebuilds
// each on-demand cache table once, not once per concurrent request.
//
// Cancellation is part of the execution contract: morsel loops and the
// k-way merges check the context at chunk boundaries, the join probe and
// grouping loops every few thousand rows, and a cancelled query returns
// context.Canceled promptly with nothing partial returned or cached. The
// cancellation suite in internal/engine and internal/catalog holds this
// in place; the serial-vs-parallel and prepared-vs-adhoc equivalence
// suites pin the bit-identity guarantees.
//
// Failures are contained the same way: a panic in any engine goroutine
// fails only that query, as a typed *PanicError (AsPanicError) carrying
// the operator label and stack, with nothing cached and the process
// intact. Snapshots (SaveSnapshot/LoadSnapshot) are durable — written
// to a temp file with per-section checksums, fsynced, atomically
// renamed — and a damaged file is refused with ErrCorruptSnapshot
// before any catalog state changes. Under load the facade can bound
// admission waits (WithAdmissionWait → ErrOverloaded) and the HTTP
// server sheds with 503 + Retry-After, drains on Shutdown, and reports
// a faults ledger under /stats. The fault-injection suite
// (go test -tags faultinject) drives every one of these paths, crash
// mid-snapshot-write included.
//
// # Enforced invariants
//
// The contracts above — panic containment at every spawn site,
// bit-deterministic iteration, context hygiene, budget-charged
// allocation, wrap-safe error matching, registry-backed fault sites —
// are machine-checked by irdb-lint, a go/analysis-style suite built on
// the stdlib (internal/lint, cmd/irdb-lint). Contributors run it as
//
//	go run ./cmd/irdb-lint ./...
//
// or through go vet -vettool; CI runs both, plus each analyzer's
// `// want`-annotated fixtures, and the tree must come up with zero
// findings. A legitimate exception is excused inline with
// //lint:allow <analyzer> <reason> — there is no suppression file. See
// internal/engine/README.md, "Enforced invariants", for the analyzer →
// contract table.
//
// The root package also holds the per-experiment benchmarks
// (bench_test.go) and the BenchmarkPreparedQuery / BenchmarkAdhocQuery
// pair demonstrating the eliminated re-parse/re-compile cost; the
// implementation lives under internal/ with runnable entry points under
// cmd/ and examples/.
package irdb
