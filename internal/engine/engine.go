package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"irdb/internal/catalog"
	"irdb/internal/fault"
	"irdb/internal/relation"
)

// Node is one operator of a query plan.
type Node interface {
	// Execute evaluates the subtree rooted at this node. Implementations
	// must evaluate children through Ctx.Exec so that materialization,
	// statistics and cancellation work. c carries the caller's deadline
	// and cancellation; operators check it at chunk boundaries and between
	// phases, so a cancelled query stops without waiting for plan
	// completion.
	Execute(c context.Context, ctx *Ctx) (*relation.Relation, error)
	// Fingerprint returns the subtree's 16-byte plan digest (binary, not
	// text), computed once by the node's constructor; it keys the
	// materialization cache. See README.md "Plan identity".
	Fingerprint() string
	// Children returns the direct child plans.
	Children() []Node
	// Label returns a short operator description for EXPLAIN output.
	Label() string
	// identity returns the digest and scan set the constructor computed.
	// It is unexported, so only this package's constructors make Nodes.
	identity() *ident
}

// Ctx carries everything a plan needs to run: the catalog (base tables +
// materialization cache), the worker pool for intra-query parallelism, and
// execution statistics. A single Ctx may be shared by concurrent queries;
// all of its state is safe for concurrent use.
type Ctx struct {
	Cat *catalog.Catalog
	// UseCache enables the materialization cache for Materialize nodes.
	UseCache bool
	// CacheAll additionally caches every intermediate node, emulating
	// "cache tables for any intermediate result" (section 2.2). Only tests
	// set it.
	CacheAll bool
	// Parallelism bounds the worker goroutines this context may run at
	// once, across all concurrent queries sharing it. 0 (the default)
	// means GOMAXPROCS; 1 forces fully serial execution. Results are
	// bit-identical at every setting. Must be set before the first Exec.
	Parallelism int

	semOnce sync.Once
	sem     chan struct{}

	nodeExecs     atomic.Int64
	cacheHits     atomic.Int64
	panics        atomic.Int64
	budgetDenials atomic.Int64

	// optCounters accumulates per-plan optimizer work; see optimize.go.
	optCounters
}

// NewCtx returns an execution context over the given catalog with
// Materialize-level caching enabled.
func NewCtx(cat *catalog.Catalog) *Ctx {
	return &Ctx{Cat: cat, UseCache: true}
}

// NodeExecs reports how many operator executions have run (cache hits do
// not count).
func (ctx *Ctx) NodeExecs() int64 { return ctx.nodeExecs.Load() }

// CacheHits reports how many node evaluations were answered from the
// materialization cache.
func (ctx *Ctx) CacheHits() int64 { return ctx.cacheHits.Load() }

// RecoveredPanics reports how many operator panics were contained and
// converted into PanicError query failures. A non-zero value means a bug
// fired in production and the process survived it; the counter is the
// signal to go find the bug.
func (ctx *Ctx) RecoveredPanics() int64 { return ctx.panics.Load() }

// ResetStats zeroes the per-context counters.
func (ctx *Ctx) ResetStats() {
	ctx.nodeExecs.Store(0)
	ctx.cacheHits.Store(0)
}

// Exec evaluates a plan node, consulting the materialization cache when
// enabled. This is the only correct way to evaluate a plan or child plan.
//
// c carries the query's deadline and cancellation. When c is cancelled,
// Exec returns c's error promptly: operators stop at their next chunk or
// phase boundary and their partial output is discarded here, never
// returned and never cached. Results of queries that were not cancelled
// are bit-identical to execution with a background context.
//
// Cacheable nodes are single-flighted through catalog.Cache: when several
// goroutines miss on the same fingerprint at once, one flight executes the
// subtree and the others block on its result instead of stampeding the
// computation. The flight runs under a cache-owned context detached from
// every caller, so any caller — the one that started it included — can be
// cancelled and leave without killing work others are waiting for.
func (ctx *Ctx) Exec(c context.Context, n Node) (*relation.Relation, error) {
	if err := c.Err(); err != nil {
		return nil, err
	}
	cacheable := ctx.UseCache && ctx.Cat != nil && (ctx.CacheAll || isMaterialize(n))
	// Unwrap Materialize before executing: it shares its child's
	// identity, so executing through it would re-enter the same
	// single-flight key and deadlock on our own in-flight computation.
	for {
		if m, ok := n.(*Materialize); ok {
			n = m.Child
			continue
		}
		break
	}
	execute := func(ec context.Context) (rel *relation.Relation, err error) {
		// Panic containment: a panic anywhere in the operator body — its own
		// code, or one transferred from a morsel worker by runRanges —
		// becomes a *PanicError instead of killing the process. The deferred
		// recover runs after the cancellation bookkeeping below, so a panic
		// deterministically wins over context.Canceled: a worker blowing up
		// during a cancel must surface as the bug it is, not be masked as a
		// client disconnect. The error path means the result is never cached.
		defer func() {
			if r := recover(); r != nil {
				ctx.panics.Add(1)
				rel, err = nil, fault.Capture(n.Label(), r)
			}
		}()
		ctx.nodeExecs.Add(1)
		r, err := n.Execute(ec, ctx)
		if err != nil {
			if _, isPanic := fault.AsPanicError(err); isPanic {
				// A contained panic from a child subtree; pass it through
				// undecorated (its Op already names the failing operator)
				// and ahead of any cancellation of our own context.
				return nil, err
			}
			if ec.Err() != nil {
				// Cancellation surfaced through an operator; report it
				// undecorated so callers match on context.Canceled /
				// DeadlineExceeded directly.
				return nil, ec.Err()
			}
			return nil, fmt.Errorf("%s: %w", n.Label(), err)
		}
		// A cancelled morsel loop leaves the operator's output partial;
		// discard it rather than hand it to the caller (or the cache).
		if err := ec.Err(); err != nil {
			return nil, err
		}
		return r, nil
	}
	if !cacheable {
		return execute(c)
	}
	// The digest keys the entry; the scan set lets live ingest evict it
	// only when a table it actually reads is republished (watermark rule).
	id := n.identity()
	if len(id.digest) != digestLen {
		return nil, fmt.Errorf("engine: %T was built without its constructor", n)
	}
	r, hit, err := ctx.Cat.Cache().GetOrComputeDeps(c, id.digest, id.scans, execute)
	if hit {
		ctx.cacheHits.Add(1)
	}
	return r, err
}

func isMaterialize(n Node) bool {
	_, ok := n.(*Materialize)
	return ok
}

// ---------------------------------------------------------------------------
// Scan

// Scan reads a base table from the catalog.
type Scan struct {
	ident
	Table string
}

// NewScan returns a scan of the named base table.
func NewScan(table string) *Scan {
	h := newHasher("scan")
	h.str(table)
	return &Scan{ident: ident{digest: h.sum(), scans: []string{table}}, Table: table}
}

// Execute implements Node.
func (s *Scan) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	if ctx.Cat == nil {
		return nil, fmt.Errorf("no catalog in context")
	}
	return ctx.Cat.Table(s.Table)
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// Label implements Node.
func (s *Scan) Label() string { return "Scan " + s.Table }

// ---------------------------------------------------------------------------
// Values

// Values wraps a literal relation as a leaf plan, e.g. the single-row
// "query document" of section 2.1. ID must distinguish distinct contents
// if the node is ever cached; Values produced for ad-hoc queries should
// use unique IDs (or caching should not wrap them).
type Values struct {
	ident
	ID  string
	Rel *relation.Relation
}

// NewValues wraps rel as a plan leaf identified by id.
func NewValues(id string, rel *relation.Relation) *Values {
	h := newHasher("values")
	h.str(id)
	return &Values{ident: h.finish(), ID: id, Rel: rel}
}

// Execute implements Node.
func (v *Values) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) { return v.Rel, nil }

// Children implements Node.
func (v *Values) Children() []Node { return nil }

// Label implements Node.
func (v *Values) Label() string {
	return fmt.Sprintf("Values %s (%d rows)", v.ID, v.Rel.NumRows())
}

// ---------------------------------------------------------------------------
// Materialize

// Materialize marks its subtree for on-demand materialization: the first
// execution stores the result in the catalog cache, later executions are
// answered from the cache. The cache key is the child's digest —
// Materialize takes its child's identity as its own — so equivalent
// sub-plans in different queries hit the same cache table.
type Materialize struct {
	ident
	Child Node
}

// NewMaterialize wraps child with a materialization point.
func NewMaterialize(child Node) *Materialize {
	return &Materialize{ident: *identOf(child), Child: child}
}

// Execute implements Node.
func (m *Materialize) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	return ctx.Exec(c, m.Child)
}

// Children implements Node.
func (m *Materialize) Children() []Node { return []Node{m.Child} }

// Label implements Node.
func (m *Materialize) Label() string { return "Materialize" }

// ---------------------------------------------------------------------------
// Limit / Rename

// Limit keeps the first N rows.
type Limit struct {
	ident
	Child Node
	N     int
}

// NewLimit returns a plan keeping the first n rows of child.
func NewLimit(child Node, n int) *Limit {
	h := newHasher("limit")
	h.int(n)
	return &Limit{ident: h.finish(child), Child: child, N: n}
}

// Execute implements Node. N ≤ 0 keeps no rows, as TopN does.
func (l *Limit) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, l.Child)
	if err != nil {
		return nil, err
	}
	n := max(l.N, 0)
	if n >= in.NumRows() {
		return in, nil
	}
	// N comes from the query, so the row-id selection is user-sized;
	// budget it like any other data allocation.
	if err := ctx.charge(c, int64(n)*8); err != nil {
		return nil, err
	}
	sel := make([]int, n)
	for i := range sel {
		sel[i] = i
	}
	return gatherParallel(c, ctx, in, sel)
}

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit %d", l.N) }

// Rename gives new names to all columns of its input, positionally.
type Rename struct {
	ident
	Child Node
	Names []string
}

// NewRename renames child's columns to names (arity-checked at execution).
func NewRename(child Node, names ...string) *Rename {
	h := newHasher("rename")
	h.strs(names)
	return &Rename{ident: h.finish(child), Child: child, Names: names}
}

// Execute implements Node.
func (r *Rename) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, r.Child)
	if err != nil {
		return nil, err
	}
	return in.Renamed(r.Names)
}

// Children implements Node.
func (r *Rename) Children() []Node { return []Node{r.Child} }

// Label implements Node.
func (r *Rename) Label() string { return fmt.Sprintf("Rename %v", r.Names) }
