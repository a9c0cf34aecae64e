//go:build faultinject

package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"irdb/internal/faultpoint"
	"irdb/internal/relation"
)

// These tests run only under `go test -tags faultinject`: they arm the
// faultpoint.SiteEngineMorsel fault point inside runRanges, so the injected panic
// fires in exactly the code path production morsels take — no test
// doubles, no special predicates.

func injectTables() map[string]*relation.Relation {
	r := rand.New(rand.NewSource(23))
	return map[string]*relation.Relation{
		"l": randRel(r, 3*minMorsel, 64),
		"r": randRel(r, 3*minMorsel, 64),
	}
}

// TestInjectedPanicMidJoinProbe arms the morsel site to fire a few hits
// in — mid-way through the join's hash/probe morsel stream — and proves
// the query fails with a PanicError, nothing lands in the cache, and the
// same plan runs clean (and correct) after the fault is disarmed.
func TestInjectedPanicMidJoinProbe(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			tables := injectTables()
			plan := NewHashJoin(NewScan("l"), NewScan("r"), []string{"a"}, []string{"a"}, JoinIndependent)

			// Reference result from an undisturbed context.
			want, err := ctxAt(par, tables).Exec(context.Background(), plan)
			if err != nil {
				t.Fatal(err)
			}

			ctx := ctxAt(par, tables)
			faultpoint.Arm(faultpoint.SiteEngineMorsel, faultpoint.Spec{Panic: "injected mid-probe", After: 2, Count: 1})
			t.Cleanup(faultpoint.Reset)
			_, err = ctx.Exec(context.Background(), plan)
			if _, ok := AsPanicError(err); !ok {
				t.Fatalf("err = %v, want *PanicError", err)
			}
			if faultpoint.Hits(faultpoint.SiteEngineMorsel) <= 2 {
				t.Fatalf("fault site hit %d times; the query never reached it mid-stream", faultpoint.Hits(faultpoint.SiteEngineMorsel))
			}
			if n := ctx.Cat.Cache().Stats().Entries; n != 0 {
				t.Errorf("cache holds %d relations after a failed query", n)
			}

			faultpoint.Reset()
			got, err := ctx.Exec(context.Background(), plan)
			if err != nil {
				t.Fatalf("query after injected panic: %v", err)
			}
			mustEqualRel(t, want, got, "post-fault re-run")
		})
	}
}

// TestInjectedPanicMidRank fires in the TopN ranking morsels — the
// per-morsel heap build and merge that every /search request runs — and
// proves containment there too.
func TestInjectedPanicMidRank(t *testing.T) {
	tables := injectTables()
	ctx := ctxAt(4, tables)
	plan := NewTopN(NewScan("l"), 10, SortSpec{Col: "x", Desc: true}, SortSpec{Col: "a"})

	faultpoint.Arm(faultpoint.SiteEngineMorsel, faultpoint.Spec{Panic: "injected mid-rank", After: 1, Count: 1})
	t.Cleanup(faultpoint.Reset)
	_, err := ctx.Exec(context.Background(), plan)
	if _, ok := AsPanicError(err); !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}

	faultpoint.Reset()
	if _, err := ctx.Exec(context.Background(), plan); err != nil {
		t.Fatalf("query after injected panic: %v", err)
	}
}

// TestInjectedErrorBecomesPanicError: the morsel path has no error
// channel, so an armed error spec is injected as a panic and must surface
// the same typed way.
func TestInjectedErrorBecomesPanicError(t *testing.T) {
	ctx := ctxAt(2, injectTables())
	boom := errors.New("injected morsel error")
	faultpoint.Arm(faultpoint.SiteEngineMorsel, faultpoint.Spec{Err: boom, Count: 1})
	t.Cleanup(faultpoint.Reset)
	_, err := ctx.Exec(context.Background(),
		NewHashJoin(NewScan("l"), NewScan("r"), []string{"a"}, []string{"a"}, JoinIndependent))
	pe, ok := AsPanicError(err)
	if !ok {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if pv, isErr := pe.Value.(error); !isErr || !errors.Is(pv, boom) {
		t.Errorf("PanicError.Value = %v, want the injected error", pe.Value)
	}
}
