// Package memory is the byte accountant behind per-query memory budgets.
//
// A Pool tracks bytes reserved by live queries against an optional
// process-level capacity; a Reservation tracks one query's own usage
// against its per-query budget. Operators charge estimated allocation
// sizes through Charge before materializing; a charge that would push
// either the reservation past its budget or the pool past its capacity
// fails with ErrBudgetExceeded, and the query aborts through the
// ordinary operator error path — before the allocation happens, so the
// process never OOMs on an unselective plan.
//
// The accountant is advisory, not a malloc shim: charges are cheap
// estimates taken at sizing sites (gathers, concat prefix sums,
// hash-join build tables, sort runs, aggregation accumulators), chosen
// to bound the dominant allocations rather than every byte.
package memory

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"irdb/internal/faultpoint"
)

// ErrBudgetExceeded is the sentinel wrapped by every budget denial.
// Match with errors.Is; the concrete *BudgetError carries the numbers.
var ErrBudgetExceeded = errors.New("memory budget exceeded")

// BudgetError reports a denied charge. It wraps ErrBudgetExceeded.
type BudgetError struct {
	Scope     string // "query" (per-query budget) or "pool" (shared capacity)
	Requested int64  // bytes the denied charge asked for
	Reserved  int64  // bytes already reserved in that scope
	Limit     int64  // the budget or capacity that would be exceeded
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("%s memory budget exceeded: %d requested + %d reserved > %d limit",
		e.Scope, e.Requested, e.Reserved, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrBudgetExceeded }

// Pool is a shared reservation pool. Zero capacity means the pool only
// tracks usage without enforcing a ceiling (per-query budgets still
// apply). All methods are safe for concurrent use; a nil *Pool is a
// valid unbounded, untracked pool.
type Pool struct {
	capacity int64
	used     atomic.Int64
	peak     atomic.Int64
	denied   atomic.Int64
	active   atomic.Int64
}

// NewPool returns a pool with the given byte capacity (0 = track only).
func NewPool(capacity int64) *Pool {
	return &Pool{capacity: capacity}
}

// Reserve opens a reservation charged against p with the given
// per-query budget (0 = no per-query ceiling, pool capacity still
// applies). Reserve on a nil pool returns a reservation governed only
// by the per-query budget.
func (p *Pool) Reserve(budget int64) *Reservation {
	if p != nil {
		p.active.Add(1)
	}
	return &Reservation{pool: p, budget: budget}
}

// Capacity returns the pool's byte capacity (0 = unbounded).
func (p *Pool) Capacity() int64 {
	if p == nil {
		return 0
	}
	return p.capacity
}

// Used returns the bytes currently reserved across all reservations.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// Peak returns the high-water mark of Used.
func (p *Pool) Peak() int64 {
	if p == nil {
		return 0
	}
	return p.peak.Load()
}

// Denied returns how many charges the pool's capacity has refused.
func (p *Pool) Denied() int64 {
	if p == nil {
		return 0
	}
	return p.denied.Load()
}

// Active returns the number of open (unreleased) reservations.
func (p *Pool) Active() int64 {
	if p == nil {
		return 0
	}
	return p.active.Load()
}

// grow attempts to add n bytes of pool usage, failing if capacity would
// be exceeded. CAS loop so concurrent reservations never overshoot.
func (p *Pool) grow(n int64) error {
	if p == nil {
		return nil
	}
	for {
		used := p.used.Load()
		if p.capacity > 0 && used+n > p.capacity {
			p.denied.Add(1)
			return &BudgetError{Scope: "pool", Requested: n, Reserved: used, Limit: p.capacity}
		}
		if p.used.CompareAndSwap(used, used+n) {
			for {
				peak := p.peak.Load()
				if used+n <= peak || p.peak.CompareAndSwap(peak, used+n) {
					return nil
				}
			}
		}
	}
}

func (p *Pool) shrink(n int64) {
	if p != nil {
		p.used.Add(-n)
	}
}

// Reservation is one query's byte account. Grow charges bytes against
// the per-query budget and the owning pool; Release returns everything.
// A nil *Reservation is valid and unbounded (every method no-ops), so
// budget-free paths pay nothing.
//
// Grow and Release are serialized by a mutex rather than lock-free
// atomics: charges happen per operator (a handful per query), and the
// mutex makes Grow-after-Release a safe no-op — detached cache flights
// that outlive their initiating query (catalog single-flight keeps
// context values through WithoutCancel) cannot leak pool bytes by
// charging a reservation the query already released.
type Reservation struct {
	pool   *Pool
	budget int64

	mu       sync.Mutex
	used     int64
	peak     int64
	released bool
}

// Grow charges n more bytes. It fails with an error wrapping
// ErrBudgetExceeded if the per-query budget or the pool capacity would
// be exceeded; on failure nothing is charged. Grow after Release is a
// no-op returning nil.
func (r *Reservation) Grow(n int64) error {
	if r == nil || n <= 0 {
		return nil
	}
	if err := faultpoint.Inject(faultpoint.SiteMemoryGrow); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		return nil
	}
	if r.budget > 0 && r.used+n > r.budget {
		return &BudgetError{Scope: "query", Requested: n, Reserved: r.used, Limit: r.budget}
	}
	if err := r.pool.grow(n); err != nil {
		return err
	}
	r.used += n
	if r.used > r.peak {
		r.peak = r.used
	}
	return nil
}

// Peak returns the reservation's high-water mark.
func (r *Reservation) Peak() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.peak
}

// Release returns all charged bytes to the pool and closes the
// reservation. Idempotent; later Grow calls no-op.
func (r *Reservation) Release() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.released {
		return
	}
	r.released = true
	r.pool.shrink(r.used)
	r.used = 0
	if r.pool != nil {
		r.pool.active.Add(-1)
	}
}

type ctxKey struct{}

// WithReservation attaches r to ctx. Operators downstream pick it up
// through Charge/FromContext; context values survive the catalog
// cache's detached flights (context.WithoutCancel keeps values), so a
// cache computation is charged to the query that initiated it.
func WithReservation(ctx context.Context, r *Reservation) context.Context {
	if r == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the reservation attached to ctx, or nil.
func FromContext(ctx context.Context) *Reservation {
	r, _ := ctx.Value(ctxKey{}).(*Reservation)
	return r
}

// Charge grows the reservation attached to ctx by n bytes. A context
// without a reservation is unbounded: Charge returns nil without any
// allocation or locking, so budget-free execution pays one context
// lookup per sizing site.
func Charge(ctx context.Context, n int64) error {
	return FromContext(ctx).Grow(n)
}
