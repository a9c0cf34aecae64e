//go:build faultinject

package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"irdb/internal/faultpoint"
	"irdb/internal/memory"
)

// TestInjectedBudgetPressure arms the faultpoint.SiteMemoryGrow fault point — the
// budget-pressure site inside Reservation.Grow — so a charge deep in the
// plan is denied exactly as a real budget exhaustion would be, without
// tuning byte numbers to the plan's allocation sizes. The query must
// fail with ErrBudgetExceeded, cache nothing, leak nothing, and run
// clean (and correct) once the fault is disarmed.
func TestInjectedBudgetPressure(t *testing.T) {
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("par=%d", par), func(t *testing.T) {
			want, err := (&Ctx{Cat: budgetCatalog(), Parallelism: 1}).Exec(context.Background(), budgetPlan())
			if err != nil {
				t.Fatal(err)
			}

			ctx := &Ctx{Cat: budgetCatalog(), Parallelism: par, UseCache: true}
			pool := memory.NewPool(0)
			res := pool.Reserve(1 << 30) // generous: only the injected denial can fail it
			c := memory.WithReservation(context.Background(), res)
			faultpoint.Arm(faultpoint.SiteMemoryGrow, faultpoint.Spec{
				Err:   &memory.BudgetError{Scope: "query", Requested: 1, Limit: 1},
				After: 3, Count: 1, // deny a charge mid-plan, not the first one
			})
			t.Cleanup(faultpoint.Reset)
			_, err = ctx.Exec(c, budgetPlan())
			if !errors.Is(err, ErrBudgetExceeded) {
				t.Fatalf("err = %v, want ErrBudgetExceeded", err)
			}
			if faultpoint.Hits(faultpoint.SiteMemoryGrow) <= 3 {
				t.Fatalf("fault site hit %d times; the query never charged mid-plan", faultpoint.Hits(faultpoint.SiteMemoryGrow))
			}
			res.Release()
			if used := pool.Used(); used != 0 {
				t.Fatalf("pool holds %d bytes after injected denial", used)
			}

			faultpoint.Reset()
			got, err := ctx.Exec(context.Background(), budgetPlan())
			if err != nil {
				t.Fatalf("clean rerun: %v", err)
			}
			mustEqualRel(t, want, got, fmt.Sprintf("post-injection rerun par=%d", par))
		})
	}
}
