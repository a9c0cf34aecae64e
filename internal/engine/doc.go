// Package engine implements a column-at-a-time relational query engine in
// the style of the column store the paper builds on (MonetDB): operators
// consume and produce fully materialized relations.
//
// Execution is parallel along two axes, following MonetDB's
// column-at-a-time-with-parallel-fragments lineage, while keeping results
// bit-identical to serial evaluation:
//
//   - Independent subtrees run concurrently: both inputs of a HashJoin,
//     both branches of the set operators, and every child of a Concat are
//     evaluated on separate workers when slots are free.
//   - Hot per-row loops — hash-join probe, row hashing, selection
//     predicate evaluation, probability recombination — split their rows
//     into contiguous morsels processed by concurrent workers, and merge
//     per-worker outputs in morsel order so row order is deterministic.
//     Morsels are bounded above (morselUnitRows) independently of
//     parallelism, so serial fallbacks still hit cancellation checks
//     between units.
//   - Materialization writes at offset instead of appending serially:
//     output columns are allocated once at full size and concurrent
//     morsels fill disjoint row ranges in place (gather, concat), TopN
//     selects per-morsel survivors with a bounded heap and k-way-merges
//     them (stable-sort-equivalent, the input is never fully sorted),
//     full Sort merge-sorts per-morsel stable runs through the same
//     merge, the hash-join build partitions flat open-addressing tables
//     by hash bits, grouping deduplicates morsels locally before a
//     serial re-rank over group representatives restores
//     first-appearance ids, and aggregation (including Normalize's
//     denominators and the probability combines) folds per-chunk partial
//     accumulators merged in a fixed chunk order so float results stay
//     bit-identical at every parallelism.
//   - String-keyed stages run over dictionary codes when inputs are
//     dict-encoded (vector.DictStrings): joins hash and compare int32
//     codes, a single encoded group column groups through dense
//     code→group arrays with no hashing at all, and sort comparators
//     compare precomputed lexicographic ranks. Mixed representations
//     (plain vs encoded, or different dicts) fall back to string
//     semantics — see README.md's dictionary-encoding contract.
//
// Compiled plans pass through an optimizer (Optimize / Ctx.Optimize)
// before execution: three rule passes — selection pushdown below joins
// and set operators, statically-empty branch elimination, and column
// pruning ahead of materialization. There is no cost model; a hash join
// always builds on its right input. Every rewrite preserves bit-identical
// results — values, probabilities and row order — at any parallelism,
// and every pass is conservative: a rewrite whose legality cannot be
// proven is skipped. ExplainChange renders the before/after plans;
// Ctx.OptimizerStats counts what the passes did.
//
// See README.md in this package for the materialization model, the
// optimizer pass pipeline and the determinism contracts in detail.
//
// The worker pool lives on Ctx (Parallelism; default GOMAXPROCS) and is
// shared by all concurrent queries on the context. Workers are acquired
// without blocking — saturated plans simply fall back to inline, serial
// evaluation — so arbitrarily nested parallel operators cannot deadlock.
//
// Plans are immutable trees of Node values. Every node has a canonical
// Fingerprint; together with catalog.Cache this gives the paper's
// on-demand materialization — wrap any sub-plan in Materialize and its
// result becomes an adaptive "cache table" reused across queries
// (sections 2.1 and 2.2). Concurrent queries that miss on the same
// fingerprint share one single-flight computation, detached from the
// callers so no caller's cancellation can kill work others wait on.
//
// Relations flowing between operators are treated as immutable; operators
// may share column vectors of their inputs but never modify them.
package engine
