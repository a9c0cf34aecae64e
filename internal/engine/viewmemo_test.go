package engine

import (
	"fmt"
	"testing"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// The optimized-view memo behind Ctx.Optimize: its entries follow the
// catalog's schema epoch, and Materialize chains share one entry.

// memoTable builds a string table with the given column names and rows
// rows.
func memoTable(rows int, names ...string) *relation.Relation {
	kinds := make([]vector.Kind, len(names))
	for i := range kinds {
		kinds[i] = vector.String
	}
	b := relation.NewBuilder(names, kinds)
	for r := 0; r < rows; r++ {
		vals := make([]any, len(names))
		for i := range vals {
			vals[i] = fmt.Sprintf("%s%d", names[i], r%3)
		}
		b.Add(vals...)
	}
	return b.Build()
}

// memoPlan takes the top groups of a view that aggregates t by k;
// pruning inside the view keeps only the columns the aggregate reads, so
// the view's optimized form depends on t's column names.
func memoPlan() Node {
	view := NewMaterialize(NewAggregate(NewScan("t"), []string{"k"},
		[]AggSpec{{Op: Max, Col: "v", As: "m"}}, GroupCertain))
	return NewLimit(NewSort(view, SortSpec{Col: "k"}), 2)
}

// viewChild returns the child of the first Materialize in plan.
func viewChild(t *testing.T, plan Node) Node {
	t.Helper()
	if m, ok := plan.(*Materialize); ok {
		return m.Child
	}
	for _, c := range plan.Children() {
		if v := viewChild(t, c); v != nil {
			return v
		}
	}
	return nil
}

// wantFresh checks that got renders exactly as a memo-less Optimize of
// plan against cat, digest included, and returns that rendering.
func wantFresh(t *testing.T, cat *catalog.Catalog, plan, got Node) string {
	t.Helper()
	want, _ := Optimize(cat, plan)
	if got.Fingerprint() != want.Fingerprint() || Explain(got) != Explain(want) {
		t.Errorf("memoized optimize differs from a fresh one:\n--- got ---\n%s--- want ---\n%s", Explain(got), Explain(want))
	}
	assertFresh(t, got)
	return Explain(want)
}

// TestViewMemoSchemaEpoch: replacing a table with a renamed column must
// re-derive the view; a memo that ignored the schema epoch would keep
// the projection of the old column names.
func TestViewMemoSchemaEpoch(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", memoTable(6, "k", "v", "x"))
	ctx := NewCtx(cat)
	plan := memoPlan()
	before := wantFresh(t, cat, plan, ctx.Optimize(plan))

	cat.Put("t", memoTable(6, "k", "w", "x"))
	after := wantFresh(t, cat, plan, ctx.Optimize(plan))
	if before == after {
		t.Fatalf("renaming a column did not change the optimized view; the test proves nothing:\n%s", after)
	}
	if st := ctx.OptimizerStats(); st.Views != 1 {
		t.Errorf("Views = %d after a schema change, want 1", st.Views)
	}
}

// TestViewMemoPutDeltas: appends that keep column names leave the memo
// alone (a hit returns the very node stored before), while a delta that
// renames a column ticks the epoch and re-derives the view.
func TestViewMemoPutDeltas(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", memoTable(6, "k", "v", "x"))
	ctx := NewCtx(cat)
	plan := memoPlan()
	first := viewChild(t, ctx.Optimize(plan))

	epoch := cat.SchemaEpoch()
	cat.PutDeltas(map[string]*relation.Relation{"t": memoTable(9, "k", "v", "x")})
	if got := cat.SchemaEpoch(); got != epoch {
		t.Fatalf("PutDeltas with the same column names moved the schema epoch %d -> %d", epoch, got)
	}
	out := ctx.Optimize(plan)
	if viewChild(t, out) != first {
		t.Errorf("an append evicted the memoized view")
	}
	wantFresh(t, cat, plan, out)

	cat.PutDeltas(map[string]*relation.Relation{"t": memoTable(9, "k", "w", "x")})
	if got := cat.SchemaEpoch(); got == epoch {
		t.Fatalf("PutDeltas that renamed a column left the schema epoch at %d", got)
	}
	out = ctx.Optimize(plan)
	if viewChild(t, out) == first {
		t.Errorf("a renamed column kept the memoized view")
	}
	wantFresh(t, cat, plan, out)
}

// TestViewMemoNestedChain: M(M(x)) and M(x) are one view (Materialize
// takes its child's identity), so they share a memo entry; optimized in
// either order on one Ctx each must still render exactly as a fresh
// Optimize, and must not block on its own entry.
func TestViewMemoNestedChain(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", memoTable(6, "k", "v", "x"))
	inner := NewAggregate(NewScan("t"), []string{"k"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupCertain)
	double := NewLimit(NewMaterialize(NewMaterialize(inner)), 3)
	single := NewLimit(NewMaterialize(inner), 3)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, order := range [][]Node{{double, single}, {single, double}} {
			ctx := NewCtx(cat)
			for _, plan := range order {
				wantFresh(t, cat, plan, ctx.Optimize(plan))
			}
			if st := ctx.OptimizerStats(); st.Views != 1 {
				t.Errorf("Views = %d for one view under two chains, want 1", st.Views)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("optimizing a Materialize chain did not finish")
	}
}
