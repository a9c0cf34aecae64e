package engine

// Mid-query cancellation suite: a cancelled context must abort execution
// without waiting for plan completion — during the join probe, during the
// sort k-way merge, and while waiting on another query's single-flight
// computation — and must leave the materialization cache consistent: no
// partial result is ever returned or cached, and an identical query run
// afterwards produces exactly the uncancelled result. Run under -race in
// CI, these tests also pin down that cancellation introduces no data
// races between the cancelling goroutine and in-flight morsel workers.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// cancelRel builds an n-row relation with an int64 key column of the
// given cardinality and a payload column.
func cancelRel(n, cardinality int, seed int64) *relation.Relation {
	r := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	payload := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.Intn(cardinality))
		payload[i] = r.Int63()
	}
	return relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromInt64s(keys)},
		{Name: "v", Vec: vector.FromInt64s(payload)},
	}, nil)
}

// runCancelled executes plan twice: once uncancelled (the reference), and
// once with a context cancelled shortly after execution starts. It
// asserts the cancelled run returns context.Canceled well before the
// uncancelled duration, and that a final uncancelled re-run still matches
// the reference — the cache was not poisoned by the aborted attempt.
func runCancelled(t *testing.T, ctx *Ctx, plan Node) {
	t.Helper()
	start := time.Now()
	want, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatalf("reference execution: %v", err)
	}
	full := time.Since(start)

	c, cancel := context.WithCancel(context.Background())
	go func() {
		// Let execution get into its hot loops before cancelling.
		time.Sleep(full / 20)
		cancel()
	}()
	start = time.Now()
	_, err = ctx.Exec(c, plan)
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("cancelled execution returned %v, want context.Canceled", err)
	}
	// Generous bound: the run must abort well before plan completion.
	// (Checks fire at chunk boundaries and every few thousand rows of the
	// probe/merge loops, so the overhang is a fraction of the full run.)
	if full > 100*time.Millisecond && elapsed > full*3/4 {
		t.Errorf("cancelled execution took %v of an uncancelled %v — cancellation did not interrupt the plan", elapsed, full)
	}

	got, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatalf("re-execution after cancel: %v", err)
	}
	if got.NumRows() != want.NumRows() {
		t.Fatalf("re-execution after cancel: %d rows, want %d (cache inconsistent)", got.NumRows(), want.NumRows())
	}
	if want.NumRows() > 0 && got.Format(50) != want.Format(50) {
		t.Fatalf("re-execution after cancel differs from reference (cache inconsistent)")
	}
}

func TestCancelDuringJoinProbe(t *testing.T) {
	cat := catalog.New(0)
	// High fan-out: every probe row matches ~build/cardinality rows, so
	// the probe loop dominates.
	cat.Put("build", cancelRel(20_000, 200, 1))
	cat.Put("probe", cancelRel(30_000, 200, 2))
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			ctx := NewCtx(cat)
			ctx.Parallelism = par
			plan := NewHashJoin(NewScan("probe"), NewScan("build"),
				[]string{"k"}, []string{"k"}, JoinIndependent)
			runCancelled(t, ctx, plan)
		})
	}
}

func TestCancelDuringSortMerge(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("big", cancelRel(600_000, 1<<30, 3))
	// Parallelism 2 splits the sort into per-morsel runs; the k-way merge
	// then checks cancellation every few thousand pops.
	ctx := NewCtx(cat)
	ctx.Parallelism = 2
	plan := NewSort(NewScan("big"), SortSpec{Col: "v"}, SortSpec{Col: "k"})
	runCancelled(t, ctx, plan)
}

func TestCancelDuringAggregate(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("big", cancelRel(500_000, 250_000, 4))
	ctx := NewCtx(cat)
	ctx.Parallelism = 2
	plan := NewAggregate(NewScan("big"), []string{"k"},
		[]AggSpec{{Op: Sum, Col: "v", As: "s"}}, GroupCertain)
	runCancelled(t, ctx, plan)
}

// TestCancelDuringNormalize: grouped Normalize guards against folding
// over a grouping cut short by cancellation (whose groupOf still holds
// per-morsel local ids) — the query must return context.Canceled, never
// panic.
func TestCancelDuringNormalize(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("big", cancelRel(300_000, 150_000, 10))
	ctx := NewCtx(cat)
	ctx.Parallelism = 2
	plan := NewNormalize(NewScan("big"), []int{0}, NormSum)
	runCancelled(t, ctx, plan)
}

// TestCancelledNeverCached: an execution cancelled mid-plan must not
// leave a partial relation in the materialization cache. The cancellation
// is deterministic — a cancelNode inside the cached subtree cancels the
// query once its input is read — and the join is small (4 000 probe rows
// × 20 matches), so the test never skips and stays cheap under -race.
func TestCancelledNeverCached(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("build", cancelRel(2_000, 100, 5))
	cat.Put("probe", cancelRel(4_000, 100, 6))
	ctx := NewCtx(cat)
	ctx.Parallelism = 2
	plan := func(cancel context.CancelFunc) Node {
		return NewMaterialize(NewHashJoin(NewScan("probe"), newCancelNode(NewScan("build"), cancel),
			[]string{"k"}, []string{"k"}, JoinIndependent))
	}

	c, cancel := context.WithCancel(context.Background())
	defer cancel()
	if _, err := ctx.Exec(c, plan(cancel)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := cat.Cache().Stats().Entries; n != 0 {
		t.Fatalf("cache holds %d entries after a cancelled execution, want 0", n)
	}
	// The same plan, left uncancelled, computes cleanly and caches its
	// full result under the same digest.
	clean := plan(nil)
	want, err := ctx.Exec(context.Background(), clean)
	if err != nil {
		t.Fatalf("re-execution: %v", err)
	}
	cached, hit := cat.Cache().Get(clean.Fingerprint())
	if !hit || cached.NumRows() != want.NumRows() {
		t.Fatalf("clean re-execution not cached correctly (hit=%v)", hit)
	}
}

// cancelNode executes its child, then calls cancel, when set, and waits
// until the cancellation reaches the context it runs under. Inside a cache
// flight that context is cancelled once the last caller has detached, so
// the flight always ends under a cancelled context. cancel is not part of
// the node's identity.
type cancelNode struct {
	ident
	Child  Node
	cancel context.CancelFunc
}

func newCancelNode(child Node, cancel context.CancelFunc) *cancelNode {
	h := newHasher("cancel")
	return &cancelNode{ident: h.finish(child), Child: child, cancel: cancel}
}

func (n *cancelNode) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	rel, err := ctx.Exec(c, n.Child)
	if n.cancel != nil {
		n.cancel()
		<-c.Done()
	}
	return rel, err
}
func (n *cancelNode) Children() []Node { return []Node{n.Child} }
func (n *cancelNode) Label() string    { return "Cancel" }

// flipCtx is a context whose Err() becomes context.Canceled after a
// fixed number of Err() calls — a deterministic way to land cancellation
// in a specific internal phase of an operator.
type flipCtx struct {
	context.Context
	mu    sync.Mutex
	after int
}

func (f *flipCtx) Err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.after <= 0 {
		return context.Canceled
	}
	f.after--
	return nil
}

// TestBuildBucketsCancelledMidBuild: a build cancelled during its
// table-fill phase must return an error, never a partial index — a
// partial index reaching the aux cache would panic every later probe on
// its zero-valued partitions.
func TestBuildBucketsCancelledMidBuild(t *testing.T) {
	hashes := make([]uint64, 50_000)
	for i := range hashes {
		hashes[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	ctx := &Ctx{Parallelism: 4} // multi-morsel: partitioned two-phase build
	// Sweep the flip point across every internal check: whichever phase
	// the cancellation lands in, buildBuckets must not return (nil error,
	// partial index).
	for after := 0; after < 40; after++ {
		c := &flipCtx{Context: context.Background(), after: after}
		idx, err := buildBuckets(c, ctx, hashes)
		if err != nil {
			continue
		}
		for _, h := range hashes {
			idx.lookup(h) // must not panic, must be a complete table
		}
	}
}

// TestCancelNeverPoisonsJoinIndex: cancelling a join whose build-side
// index is aux-cacheable (CacheAll) must never cache a partially built
// index — later live queries would panic probing its zero-valued
// partitions. Cancellation is raced at varying delays to sweep the
// build/probe phases.
func TestCancelNeverPoisonsJoinIndex(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("build", cancelRel(120_000, 60_000, 11))
	cat.Put("probe", cancelRel(120_000, 60_000, 12))
	ctx := NewCtx(cat)
	ctx.CacheAll = true
	ctx.Parallelism = 4
	plan := NewHashJoin(NewScan("probe"), NewScan("build"),
		[]string{"k"}, []string{"k"}, JoinIndependent)

	want, err := ctx.Exec(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, delay := range []time.Duration{
		50 * time.Microsecond, 200 * time.Microsecond, time.Millisecond,
		3 * time.Millisecond, 10 * time.Millisecond,
	} {
		cat.Cache().Clear()
		ctx.ResetStats()
		c, cancel := context.WithTimeout(context.Background(), delay)
		_, _ = ctx.Exec(c, plan)
		cancel()
		// Whatever phase the cancellation hit, a clean re-run must work
		// and match the reference — a poisoned cached index would panic
		// in the probe or drop matches.
		got, err := ctx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatalf("delay %v: re-run: %v", delay, err)
		}
		if got.NumRows() != want.NumRows() {
			t.Fatalf("delay %v: re-run rows = %d, want %d (cached index poisoned)", delay, got.NumRows(), want.NumRows())
		}
	}
}

// TestCancelPreemptsExecution: a context cancelled before Exec starts
// runs nothing at all.
func TestCancelPreemptsExecution(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", cancelRel(10, 10, 7))
	ctx := NewCtx(cat)
	c, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ctx.Exec(c, NewScan("t")); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ctx.NodeExecs(); n != 0 {
		t.Fatalf("executed %d nodes under a pre-cancelled context", n)
	}
}

// TestCancelDeadline: DeadlineExceeded propagates like Canceled.
func TestCancelDeadline(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("build", cancelRel(60_000, 200, 8))
	cat.Put("probe", cancelRel(120_000, 200, 9))
	ctx := NewCtx(cat)
	ctx.Parallelism = 2
	plan := NewHashJoin(NewScan("probe"), NewScan("build"),
		[]string{"k"}, []string{"k"}, JoinIndependent)
	c, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := ctx.Exec(c, plan); err != context.DeadlineExceeded {
		t.Skipf("plan beat the 1ms deadline (%v)", err)
	}
}
