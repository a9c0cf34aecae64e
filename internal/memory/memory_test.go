package memory

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func TestReservationBudget(t *testing.T) {
	p := NewPool(0)
	r := p.Reserve(100)
	if err := r.Grow(60); err != nil {
		t.Fatalf("Grow(60): %v", err)
	}
	if err := r.Grow(40); err != nil {
		t.Fatalf("Grow(40): %v", err)
	}
	err := r.Grow(1)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Grow over budget = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Scope != "query" || be.Requested != 1 || be.Reserved != 100 || be.Limit != 100 {
		t.Fatalf("budget error detail = %+v", be)
	}
	// A denied charge charges nothing.
	if got := r.Peak(); got != 100 {
		t.Fatalf("Peak after denial = %d, want 100", got)
	}
	if got := p.Used(); got != 100 {
		t.Fatalf("pool Used = %d, want 100", got)
	}
	r.Release()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool Used after release = %d, want 0", got)
	}
	if got := p.Active(); got != 0 {
		t.Fatalf("pool Active after release = %d, want 0", got)
	}
}

func TestPoolCapacity(t *testing.T) {
	p := NewPool(100)
	a := p.Reserve(0)
	b := p.Reserve(0)
	defer a.Release()
	defer b.Release()
	if err := a.Grow(70); err != nil {
		t.Fatalf("a.Grow: %v", err)
	}
	err := b.Grow(40)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("pool-capacity denial = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Scope != "pool" {
		t.Fatalf("scope = %+v, want pool", be)
	}
	if p.Denied() != 1 {
		t.Fatalf("Denied = %d, want 1", p.Denied())
	}
	if err := b.Grow(30); err != nil {
		t.Fatalf("b.Grow within capacity: %v", err)
	}
	if p.Used() != 100 || p.Peak() != 100 {
		t.Fatalf("Used/Peak = %d/%d, want 100/100", p.Used(), p.Peak())
	}
}

func TestGrowAfterReleaseNoLeak(t *testing.T) {
	// A detached cache flight can outlive the query that started it; a
	// Grow racing past Release must not leave pool bytes stranded.
	p := NewPool(0)
	r := p.Reserve(0)
	if err := r.Grow(50); err != nil {
		t.Fatal(err)
	}
	r.Release()
	if err := r.Grow(25); err != nil {
		t.Fatalf("Grow after Release = %v, want nil no-op", err)
	}
	if got := p.Used(); got != 0 {
		t.Fatalf("pool Used = %d, want 0 (no leak from post-release Grow)", got)
	}
	r.Release() // idempotent
	if got := p.Active(); got != 0 {
		t.Fatalf("Active = %d, want 0", got)
	}
}

func TestNilSafety(t *testing.T) {
	var p *Pool
	r := p.Reserve(10)
	if err := r.Grow(5); err != nil {
		t.Fatalf("nil-pool Grow: %v", err)
	}
	if err := r.Grow(6); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("nil-pool budget = %v, want ErrBudgetExceeded", err)
	}
	r.Release()
	var nr *Reservation
	if err := nr.Grow(1 << 40); err != nil {
		t.Fatalf("nil reservation Grow: %v", err)
	}
	nr.Release()
	if nr.Peak() != 0 {
		t.Fatal("nil reservation accessors")
	}
	if p.Used() != 0 || p.Capacity() != 0 || p.Peak() != 0 || p.Denied() != 0 || p.Active() != 0 {
		t.Fatal("nil pool accessors")
	}
}

func TestContextPlumbing(t *testing.T) {
	ctx := context.Background()
	if FromContext(ctx) != nil {
		t.Fatal("FromContext on bare ctx")
	}
	if err := Charge(ctx, 1<<40); err != nil {
		t.Fatalf("Charge without reservation = %v, want nil", err)
	}
	p := NewPool(0)
	r := p.Reserve(10)
	defer r.Release()
	ctx = WithReservation(ctx, r)
	if FromContext(ctx) != r {
		t.Fatal("FromContext did not round-trip")
	}
	if err := Charge(ctx, 8); err != nil {
		t.Fatalf("Charge: %v", err)
	}
	if err := Charge(ctx, 8); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Charge over budget = %v", err)
	}
	if WithReservation(context.Background(), nil) != context.Background() {
		t.Fatal("WithReservation(nil) should return ctx unchanged")
	}
}

func TestConcurrentGrowRelease(t *testing.T) {
	// Hammer a capacity-bounded pool from many reservations; the
	// invariant under -race is simply that accounting returns to zero.
	p := NewPool(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r := p.Reserve(1 << 16)
				for j := 0; j < 8; j++ {
					_ = r.Grow(1 << 10)
				}
				r.Release()
			}
		}()
	}
	wg.Wait()
	if got := p.Used(); got != 0 {
		t.Fatalf("pool Used after all releases = %d, want 0", got)
	}
	if got := p.Active(); got != 0 {
		t.Fatalf("pool Active = %d, want 0", got)
	}
	if p.Peak() > 1<<20 {
		t.Fatalf("peak %d exceeded capacity", p.Peak())
	}
}
