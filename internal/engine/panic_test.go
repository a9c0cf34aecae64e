package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// panicHook lets tests inject a panic into the middle of predicate
// evaluation — which runs inside runRanges morsel workers — through a
// registered scalar function, without any build tags.
var panicHook atomic.Pointer[func()]

func init() {
	expr.RegisterFunc(expr.Func{Name: "test_panic_hook", Eval: func(args []vector.Vector, n int) (vector.Vector, error) {
		if h := panicHook.Load(); h != nil {
			(*h)()
		}
		out := make([]bool, n)
		for i := range out {
			out[i] = true
		}
		return vector.FromBools(out), nil
	}})
}

func setPanicHook(t *testing.T, f func()) {
	t.Helper()
	panicHook.Store(&f)
	t.Cleanup(func() { panicHook.Store(nil) })
}

// panicRel is large enough (> 2*minMorsel) that Select's predicate loop
// really splits into morsels at Parallelism > 1.
func panicRel() *relation.Relation {
	r := rand.New(rand.NewSource(11))
	return randRel(r, 3*minMorsel, 64)
}

// hookedSelect is a Select whose predicate calls the panic hook on every
// morsel.
func hookedSelect() Node {
	return NewSelect(NewScan("t"), expr.NewCall("test_panic_hook", expr.Column("b")))
}

// TestSelectPanicContained: a panic inside a morsel worker becomes a
// *PanicError query failure — the process survives, the pool drains, the
// failed result is never cached, and the very next query on the same
// context succeeds. Run under -race at parallelism 1, 2 and 8 to cover
// the inline, barely-parallel and oversubscribed dispatch paths.
func TestSelectPanicContained(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx := ctxAt(par, map[string]*relation.Relation{"t": panicRel()})
			setPanicHook(t, func() { panic("kaboom") })

			plan := NewMaterialize(hookedSelect())
			_, err := ctx.Exec(context.Background(), plan)
			pe, ok := AsPanicError(err)
			if !ok {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Op == "" || len(pe.Stack) == 0 {
				t.Errorf("PanicError missing context: op=%q stack=%d bytes", pe.Op, len(pe.Stack))
			}
			if got := ctx.RecoveredPanics(); got == 0 {
				t.Errorf("RecoveredPanics = %d, want > 0", got)
			}
			if _, cached := ctx.Cat.Cache().Get(plan.Fingerprint()); cached {
				t.Error("failed result was cached")
			}

			// The pool drained and the process survived: the same query runs
			// clean once the fault is gone.
			panicHook.Store(nil)
			rel, err := ctx.Exec(context.Background(), plan)
			if err != nil {
				t.Fatalf("query after contained panic: %v", err)
			}
			if rel.NumRows() != 3*minMorsel {
				t.Errorf("rows = %d, want %d", rel.NumRows(), 3*minMorsel)
			}
		})
	}
}

// TestPanicBeatsCancellation: when a worker panics while the query's
// context is being cancelled, the query deterministically reports the
// panic — a blown-up worker is a bug to surface, not a client disconnect
// to shrug off. The hook cancels the context itself, so the interleaving
// is exact at every parallelism. (The guarantee holds on the direct
// execute path; a caller that detaches from a shared single-flight cache
// computation reports its own cancellation, because the flight may be
// computing for someone else.)
func TestPanicBeatsCancellation(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx := ctxAt(par, map[string]*relation.Relation{"t": panicRel()})
			c, cancel := context.WithCancel(context.Background())
			defer cancel()
			setPanicHook(t, func() {
				cancel()
				panic("kaboom during cancel")
			})

			plan := hookedSelect()
			_, err := ctx.Exec(c, plan)
			if _, ok := AsPanicError(err); !ok {
				t.Fatalf("err = %v, want *PanicError to win over cancellation", err)
			}
			if errors.Is(err, context.Canceled) {
				t.Errorf("PanicError wraps context.Canceled: %v", err)
			}
			if _, cached := ctx.Cat.Cache().Get(plan.Fingerprint()); cached {
				t.Error("failed result was cached")
			}
		})
	}
}

// boomNode is a plan leaf whose execution panics, for exercising the
// subtree-goroutine containment in execPair.
type boomNode struct{ ident }

func newBoomNode() *boomNode {
	h := newHasher("boom")
	return &boomNode{ident: h.finish()}
}

func (b *boomNode) Execute(context.Context, *Ctx) (*relation.Relation, error) {
	panic("child boom")
}
func (b *boomNode) Children() []Node { return nil }
func (b *boomNode) Label() string    { return "Boom" }

// TestJoinChildPanicContained: a panicking join input — evaluated on an
// execPair worker goroutine at parallelism > 1, inline at 1 — fails the
// query with a PanicError naming the operator, and the context stays
// usable.
func TestJoinChildPanicContained(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx := ctxAt(par, map[string]*relation.Relation{"t": panicRel()})
			plan := NewHashJoin(NewScan("t"), newBoomNode(), []string{"a"}, []string{"a"}, JoinIndependent)
			_, err := ctx.Exec(context.Background(), plan)
			pe, ok := AsPanicError(err)
			if !ok {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if pe.Op != "Boom" {
				t.Errorf("Op = %q, want the failing operator's label", pe.Op)
			}
			if _, err := ctx.Exec(context.Background(), NewScan("t")); err != nil {
				t.Fatalf("query after contained panic: %v", err)
			}
		})
	}
}

// TestConcatChildPanicContained: one panicking branch of nested unions,
// among healthy ones, fails the query, not the process, and every branch
// worker drains.
func TestConcatChildPanicContained(t *testing.T) {
	for _, par := range []int{1, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			ctx := ctxAt(par, map[string]*relation.Relation{"t": panicRel()})
			plan := NewUnion(NewUnion(NewScan("t"), newBoomNode()), NewScan("t"))
			_, err := ctx.Exec(context.Background(), plan)
			if _, ok := AsPanicError(err); !ok {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if _, err := ctx.Exec(context.Background(), NewUnion(NewScan("t"), NewScan("t"))); err != nil {
				t.Fatalf("query after contained panic: %v", err)
			}
		})
	}
}
