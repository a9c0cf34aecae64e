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
	"errors"
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
	return cancelRelScaled(n, cardinality, seed, 1)
}

// cancelRelScaled is cancelRel with every key multiplied by scale: at 1
// the keys span [0, cardinality) and take the direct-addressed path, at
// sparseScale they span far past any slot limit and hash.
func cancelRelScaled(n, cardinality int, seed, scale int64) *relation.Relation {
	r := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	payload := make([]int64, n)
	for i := range keys {
		keys[i] = int64(r.Intn(cardinality)) * scale
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
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("par%d", par), func(t *testing.T) {
			for _, keys := range keyFamilies {
				t.Run(keys.name, func(t *testing.T) {
					cat := catalog.New(0)
					// High fan-out: every probe row matches
					// ~build/cardinality rows, so the probe loop dominates.
					build := cancelRelScaled(20_000, 200, 1, keys.scale)
					assertKeyPath(t, build, "k", denseJoinSlots, keys.dense)
					cat.Put("build", build)
					cat.Put("probe", cancelRelScaled(30_000, 200, 2, keys.scale))
					ctx := NewCtx(cat)
					ctx.Parallelism = par
					plan := NewHashJoin(NewScan("probe"), NewScan("build"),
						[]string{"k"}, []string{"k"}, JoinIndependent)
					runCancelled(t, ctx, plan)
				})
			}
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
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) {
			cat := catalog.New(0)
			big := cancelRelScaled(500_000, 250_000, 4, keys.scale)
			assertKeyPath(t, big, "k", denseGroupSlots, keys.dense)
			cat.Put("big", big)
			ctx := NewCtx(cat)
			ctx.Parallelism = 2
			plan := NewAggregate(NewScan("big"), []string{"k"},
				[]AggSpec{{Op: Sum, Col: "v", As: "s"}}, GroupCertain)
			runCancelled(t, ctx, plan)
		})
	}
}

// TestCancelDuringNormalize: grouped Normalize guards against folding
// over a grouping cut short by cancellation (whose groupOf is partial) —
// the query must return context.Canceled, never panic.
func TestCancelDuringNormalize(t *testing.T) {
	for _, keys := range keyFamilies {
		t.Run(keys.name, func(t *testing.T) {
			cat := catalog.New(0)
			big := cancelRelScaled(300_000, 150_000, 10, keys.scale)
			assertKeyPath(t, big, "k", denseGroupSlots, keys.dense)
			cat.Put("big", big)
			ctx := NewCtx(cat)
			ctx.Parallelism = 2
			plan := NewNormalize(NewScan("big"), []string{"k"}, NormSum)
			runCancelled(t, ctx, plan)
		})
	}
}

// TestCancelledFoldReturnsCanceled: under a cancelled context a fold over
// several aggregation chunks dispatches none of them, so every operator
// tail built on foldGroups must return context.Canceled rather than merge
// or index the partials it lacks. A fast grouping moves a query's
// cancellation point into the fold, which is how this was found.
func TestCancelledFoldReturnsCanceled(t *testing.T) {
	in := cancelRel(3*aggChunk, 50, 12)
	ctx := &Ctx{Parallelism: 2}
	groupOf, firstRow, err := groupRows(context.Background(), ctx, in, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if len(aggRanges(in.NumRows(), len(firstRow))) < 2 {
		t.Fatal("input does not split into aggregation chunks")
	}
	c, cancel := context.WithCancel(context.Background())
	cancel()
	aggs := []AggSpec{{Op: CountAll, As: "n"}, {Op: Avg, Col: "v", As: "a"}, {Op: Min, Col: "v", As: "m"}, {Op: SumProb, As: "sp"}}
	for _, pmode := range []GroupProb{GroupCertain, GroupDisjoint, GroupIndependent, GroupMax, GroupSumRaw} {
		if _, err := aggregateGroups(c, ctx, in, []int{0}, []string{"k"}, groupOf, firstRow, aggs, pmode); !errors.Is(err, context.Canceled) {
			t.Fatalf("aggregate %v: err = %v, want context.Canceled", pmode, err)
		}
	}
	for _, mode := range []NormMode{NormSum, NormMax} {
		if _, err := normalizeGroups(c, ctx, in, groupOf, len(firstRow), mode); !errors.Is(err, context.Canceled) {
			t.Fatalf("normalize %v: err = %v, want context.Canceled", mode, err)
		}
	}
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
// index is aux-cacheable (its build side is a Materialize) must never
// cache a partially built index — later live queries would panic probing
// its zero-valued partitions. The probe side is small, so building the
// index is most of a cold run, and cancellation is raced at delays spread
// over one cold run, so some of them land inside the build on any machine.
func TestCancelNeverPoisonsJoinIndex(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("build", cancelRel(120_000, 60_000, 11))
	cat.Put("probe", cancelRel(2_000, 60_000, 12))
	ctx := NewCtx(cat)
	ctx.Parallelism = 4
	plan := NewHashJoin(NewScan("probe"), NewMaterialize(NewScan("build")),
		[]string{"k"}, []string{"k"}, JoinIndependent)

	// The fastest of three cold runs: the first one also pays for warm-up.
	var want *relation.Relation
	cold := time.Hour
	for i := 0; i < 3; i++ {
		cat.Cache().Clear()
		start := time.Now()
		got, err := ctx.Exec(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		cold, want = min(cold, time.Since(start)), got
	}
	const steps = 16
	for i := 0; i < steps; i++ {
		delay := cold * time.Duration(i) / steps
		cat.Cache().Clear()
		c, cancel := context.WithTimeout(context.Background(), delay)
		_, _ = ctx.Exec(c, plan)
		cancel()
		// The abandoned build ends at its next cancellation check, after
		// Exec has returned. No event marks that end, so wait a cold run's
		// time for it: a re-run that started earlier would build its own
		// index and hide whatever the abandoned build left in the cache.
		// The wait cannot fail a correct run.
		time.Sleep(cold)
		// Whatever phase the cancellation hit, a clean re-run must work and
		// match the reference — a poisoned cached index would panic in the
		// probe or drop matches.
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
