package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"irdb/internal/relation"
)

// holdSlot fills a one-slot gate and returns the holder's release.
func holdSlot(t *testing.T, g *Gate) func() {
	t.Helper()
	_, release, err := g.Enter(context.Background())
	if err != nil {
		t.Fatalf("Enter on an idle gate: %v", err)
	}
	return release
}

func wantRefusal(t *testing.T, err error, want Cause) {
	t.Helper()
	if got, ok := RefusalCause(err); !ok || got != want {
		t.Fatalf("err = %v, want refusal %v", err, want)
	}
}

// TestGateRefusalCauses: one case per refusal cause, each counted under
// its own cause in Stats.
func TestGateRefusalCauses(t *testing.T) {
	t.Run("drain", func(t *testing.T) {
		var g Gate
		if err := g.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		_, _, err := g.Enter(context.Background())
		wantRefusal(t, err, CauseDrain)
		if _, err := g.Hold(); err == nil {
			t.Fatal("Hold admitted work on a draining gate")
		}
		if st := g.Stats(); st.Refused[CauseDrain] != 2 || !st.Draining {
			t.Errorf("stats = %+v, want 2 drain refusals while draining", st)
		}
	})
	t.Run("wait bound", func(t *testing.T) {
		var g Gate
		g.SetMaxInFlight(1)
		g.SetAdmissionWait(5 * time.Millisecond)
		defer holdSlot(t, &g)()
		_, _, err := g.Enter(context.Background())
		wantRefusal(t, err, CauseWait)
		if st := g.Stats(); st.Refused[CauseWait] != 1 || st.QueuedTotal != 1 || st.QueueDepth != 0 {
			t.Errorf("stats = %+v, want one wait refusal, one queued, none queueing", st)
		}
	})
	t.Run("deadline already past", func(t *testing.T) {
		var g Gate
		g.SetMaxInFlight(1)
		g.SetAdmissionWait(time.Hour)
		defer holdSlot(t, &g)()
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		start := time.Now()
		_, _, err := g.Enter(ctx)
		wantRefusal(t, err, CauseDeadline)
		if d := time.Since(start); d > time.Second {
			t.Errorf("refusal took %s; a passed deadline must not wait", d)
		}
	})
	t.Run("deadline shorter than wait", func(t *testing.T) {
		var g Gate
		g.SetMaxInFlight(1)
		g.SetAdmissionWait(time.Hour)
		defer holdSlot(t, &g)()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		defer cancel()
		_, _, err := g.Enter(ctx)
		wantRefusal(t, err, CauseDeadline)
		if st := g.Stats(); st.Refused[CauseDeadline] != 1 || st.Refused[CauseWait] != 0 {
			t.Errorf("stats = %+v, want the deadline, not the wait, to refuse", st)
		}
	})
	t.Run("cancel while queued is not a refusal", func(t *testing.T) {
		var g Gate
		g.SetMaxInFlight(1)
		defer holdSlot(t, &g)()
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, _, err := g.Enter(ctx)
		if _, refused := RefusalCause(err); refused || !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})
}

// TestGateDrainWaitsForActiveWork: Drain returns only once admitted work
// has released; a bounded Drain with work still running returns its
// context's error, and a later Drain keeps waiting.
func TestGateDrainWaitsForActiveWork(t *testing.T) {
	var g Gate
	g.SetMaxInFlight(2)
	release := holdSlot(t, &g)
	hold, err := g.Hold()
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with work active = %v, want DeadlineExceeded", err)
	}

	drained := make(chan error, 1)
	go func() { drained <- g.Drain(context.Background()) }()
	release()
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with held work outstanding", err)
	case <-time.After(20 * time.Millisecond):
	}
	hold()
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("Drain = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Drain did not return after the last work released")
	}
	if st := g.Stats(); st.InFlight != 0 {
		t.Errorf("in flight after drain = %d, want 0", st.InFlight)
	}
}

// TestGateReleasesReservation: the reservation Enter attaches is returned
// to the pool on every exit — success, operator error, budget denial,
// contained panic — and a caller cancelled while queued never takes one.
func TestGateReleasesReservation(t *testing.T) {
	run := func(t *testing.T, budget int64, ec *Ctx, plan Node) error {
		t.Helper()
		var g Gate
		g.SetMemory(0, budget)
		qctx, release, err := g.Enter(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if got := g.Pool().Active(); got != 1 {
			t.Fatalf("active reservations while admitted = %d, want 1", got)
		}
		_, err = ec.Exec(qctx, plan)
		release()
		if p := g.Pool(); p.Active() != 0 || p.Used() != 0 {
			t.Fatalf("after release: %d reservations, %d bytes held", p.Active(), p.Used())
		}
		return err
	}

	t.Run("success", func(t *testing.T) {
		ec := &Ctx{Cat: budgetCatalog(), Parallelism: 2}
		if err := run(t, 1<<30, ec, budgetPlan()); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("operator error", func(t *testing.T) {
		ec := &Ctx{Cat: budgetCatalog(), Parallelism: 2}
		if err := run(t, 1<<30, ec, NewScan("no-such-table")); err == nil {
			t.Fatal("scan of a missing table succeeded")
		}
	})
	t.Run("budget denial", func(t *testing.T) {
		ec := &Ctx{Cat: budgetCatalog(), Parallelism: 2}
		if err := run(t, 512, ec, budgetPlan()); !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("err = %v, want ErrBudgetExceeded", err)
		}
	})
	t.Run("contained panic", func(t *testing.T) {
		ec := ctxAt(2, map[string]*relation.Relation{"t": panicRel()})
		setPanicHook(t, func() { panic("kaboom") })
		if _, ok := AsPanicError(run(t, 1<<30, ec, hookedSelect())); !ok {
			t.Fatal("want a contained *PanicError")
		}
	})
	t.Run("cancel while queued", func(t *testing.T) {
		var g Gate
		g.SetMaxInFlight(1)
		g.SetMemory(0, 1<<20)
		release := holdSlot(t, &g)
		ctx, cancel := context.WithCancel(context.Background())
		queued := make(chan error, 1)
		go func() {
			_, _, err := g.Enter(ctx)
			queued <- err
		}()
		for g.Stats().QueueDepth == 0 {
			time.Sleep(time.Millisecond)
		}
		cancel()
		if err := <-queued; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if got := g.Pool().Active(); got != 1 {
			t.Fatalf("active reservations = %d, want only the holder's", got)
		}
		release()
		if p := g.Pool(); p.Active() != 0 || p.Used() != 0 {
			t.Fatalf("after release: %d reservations, %d bytes held", p.Active(), p.Used())
		}
	})
}

// TestGateAdmitTakesNoReservation: Admit holds a slot and counts toward
// the drain like Enter, but opens no memory reservation.
func TestGateAdmitTakesNoReservation(t *testing.T) {
	var g Gate
	g.SetMaxInFlight(1)
	g.SetAdmissionWait(5 * time.Millisecond)
	g.SetMemory(0, 1<<20)
	release, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := g.Pool().Active(); got != 0 {
		t.Fatalf("active reservations under Admit = %d, want 0", got)
	}
	_, _, err = g.Enter(context.Background())
	wantRefusal(t, err, CauseWait)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain with admitted work = %v, want DeadlineExceeded", err)
	}
	release()
	if err := g.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	_, err = g.Admit(context.Background())
	wantRefusal(t, err, CauseDrain)
}
