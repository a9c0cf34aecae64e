package engine

import (
	"context"

	"irdb/internal/memory"
	"irdb/internal/relation"
)

// Memory budgets.
//
// A query that should be governed runs with a *memory.Reservation
// attached to its context (memory.WithReservation); operators charge
// estimated allocation sizes at their sizing sites — gather outputs,
// concat prefix sums, hash-join build tables, sort runs, aggregation
// accumulators, tokenizer output — *before* allocating. A denied charge surfaces as
// ErrBudgetExceeded through the ordinary operator error path: charges
// happen on the coordinating goroutine before morsels fan out, so the
// abort needs no extra draining beyond what any operator error gets,
// and Ctx.Exec's error path guarantees the failed result is never
// cached. Contexts without a reservation pay one context lookup per
// site and are never denied.

// ErrBudgetExceeded is returned (wrapped, per Ctx.Exec's "<label>: %w"
// convention) by queries whose memory charges exceed their per-query
// budget or the shared pool capacity. Match with errors.Is. The error
// is terminal for the query but says nothing about the server: the
// same query may succeed under a larger budget or a quieter pool.
var ErrBudgetExceeded = memory.ErrBudgetExceeded

// charge reserves n more bytes against the reservation attached to c,
// if any. The returned error wraps ErrBudgetExceeded.
func (ctx *Ctx) charge(c context.Context, n int64) error {
	if err := memory.Charge(c, n); err != nil {
		ctx.budgetDenials.Add(1)
		return err
	}
	return nil
}

// chargeRel charges the estimated footprint of materializing nRows rows
// shaped like r.
func (ctx *Ctx) chargeRel(c context.Context, r *relation.Relation, nRows int) error {
	return ctx.charge(c, r.ApproxRowBytes()*int64(nRows))
}

// BudgetDenials reports how many memory charges this context has
// denied. Each aborts one query with ErrBudgetExceeded.
func (ctx *Ctx) BudgetDenials() int64 { return ctx.budgetDenials.Load() }
