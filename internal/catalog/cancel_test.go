package catalog

import (
	"context"
	"testing"
	"time"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func flightRel(n int) *relation.Relation {
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i)
	}
	return relation.MustFromColumns(
		[]relation.Column{{Name: "x", Vec: vector.FromInt64s(vals)}}, nil)
}

// TestCancelDuringSingleFlightWait: a waiter joining another caller's
// in-flight computation detaches as soon as its own context is cancelled,
// while the computation keeps running, completes, and is cached for
// everyone else — for relation and join index flights alike.
func TestCancelDuringSingleFlightWait(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			cache := NewCache(0)
			started := make(chan struct{})
			unblock := make(chan struct{})
			want := k.val(64)

			computerDone := make(chan error, 1)
			go func() {
				_, _, err := cache.getOrCompute(context.Background(), k.kind, "k", nil, func(context.Context) (any, error) {
					close(started)
					<-unblock
					return want, nil
				})
				computerDone <- err
			}()
			<-started

			// The waiter joins the in-flight computation, then gives up.
			c, cancel := context.WithCancel(context.Background())
			waiterDone := make(chan error, 1)
			go func() {
				_, _, err := cache.getOrCompute(c, k.kind, "k", nil, func(context.Context) (any, error) {
					t.Error("waiter must join the flight, not start its own computation")
					return nil, nil
				})
				waiterDone <- err
			}()
			time.Sleep(10 * time.Millisecond) // let the waiter block on the flight
			cancel()
			select {
			case err := <-waiterDone:
				if err != context.Canceled {
					t.Fatalf("waiter returned %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled waiter did not detach from the in-flight computation")
			}

			// The computation was not killed by the waiter's departure.
			close(unblock)
			if err := <-computerDone; err != nil {
				t.Fatalf("computer failed: %v", err)
			}
			if got, ok := peek(cache, k.kind, "k"); !ok || got != want {
				t.Fatalf("flight result not cached after waiter cancellation (ok=%v)", ok)
			}
			if st := cache.Stats(); st.Shared != 1 {
				t.Errorf("Shared = %d, want 1 (the cancelled waiter joined the flight)", st.Shared)
			}
		})
	}
}

// TestWaiterSurvivesCancelledLeader: when a flight fails with a context
// error (the abandoned-flight race: compute was cancelled after every
// caller left, or, historically, the leader's cancellation leaked into
// it), a waiter whose own context is live must not inherit that error —
// it retries the key with a fresh flight and computes the result itself.
func TestWaiterSurvivesCancelledLeader(t *testing.T) {
	cache := NewCache(0)
	want := flightRel(8)
	leaderStarted := make(chan struct{})
	leaderAbort := make(chan struct{})

	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
			close(leaderStarted)
			<-leaderAbort
			return nil, context.Canceled // the engine surfaces the leader's ctx error
		})
		leaderDone <- err
	}()
	<-leaderStarted

	waiterDone := make(chan error, 1)
	var got *relation.Relation
	go func() {
		rel, _, err := cache.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
			return want, nil // the waiter's retry computes for real
		})
		got = rel
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter join the flight
	close(leaderAbort)

	if err := <-leaderDone; err != context.Canceled {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("healthy waiter inherited the leader's cancellation: %v", err)
		}
		if got != want {
			t.Fatalf("waiter rel = %v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never completed after the leader's cancellation")
	}
	if rel, hit := cache.Get("k"); !hit || rel != want {
		t.Fatalf("retried result not cached (hit=%v)", hit)
	}
}

// TestFlightSurvivesLeaderCancellation: the computation is detached from
// the caller that started it. Cancelling the leader returns the leader's
// context error promptly while the flight keeps running under its own
// (uncancelled) context and delivers to the remaining waiter, and the
// result is cached.
func TestFlightSurvivesLeaderCancellation(t *testing.T) {
	cache := NewCache(0)
	want := flightRel(16)
	started := make(chan struct{})
	unblock := make(chan struct{})
	flightCtxErr := make(chan error, 1)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrComputeDeps(leaderCtx, "k", nil, func(fc context.Context) (*relation.Relation, error) {
			close(started)
			<-unblock
			flightCtxErr <- fc.Err()
			return want, nil
		})
		leaderDone <- err
	}()
	<-started

	// A waiter with a live context joins the same flight.
	waiterDone := make(chan error, 1)
	var got *relation.Relation
	go func() {
		rel, shared, err := cache.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
			t.Error("waiter must join the flight, not start a new one")
			return nil, nil
		})
		if err == nil && !shared {
			t.Error("waiter should report being served by the shared flight")
		}
		got = rel
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the waiter block on the flight

	cancelLeader()
	select {
	case err := <-leaderDone:
		if err != context.Canceled {
			t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled leader did not detach from its own flight")
	}

	close(unblock)
	select {
	case err := <-waiterDone:
		if err != nil {
			t.Fatalf("waiter inherited the leader's cancellation: %v", err)
		}
		if got != want {
			t.Fatalf("waiter rel = %v, want the flight's result", got)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never received the detached flight's result")
	}
	if err := <-flightCtxErr; err != nil {
		t.Fatalf("flight context was cancelled while a waiter remained: %v", err)
	}
	if rel, hit := cache.Get("k"); !hit || rel != want {
		t.Fatalf("detached flight's result not cached (hit=%v)", hit)
	}
}

// TestAbandonedFlightIsCancelled: when every caller detaches, the flight's
// context is cancelled so the computation nobody wants stops, and its
// (error) result is not cached.
func TestAbandonedFlightIsCancelled(t *testing.T) {
	cache := NewCache(0)
	started := make(chan struct{})

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderDone := make(chan error, 1)
	computeDone := make(chan error, 1)
	go func() {
		_, _, err := cache.GetOrComputeDeps(leaderCtx, "k", nil, func(fc context.Context) (*relation.Relation, error) {
			close(started)
			<-fc.Done() // simulate an operator noticing cancellation
			computeDone <- fc.Err()
			return nil, fc.Err()
		})
		leaderDone <- err
	}()
	<-started

	cancelLeader() // the only caller leaves
	select {
	case err := <-leaderDone:
		if err != context.Canceled {
			t.Fatalf("leader returned %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("leader did not return after cancellation")
	}
	select {
	case err := <-computeDone:
		if err != context.Canceled {
			t.Fatalf("flight context err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("abandoned flight's context was never cancelled")
	}
	if _, hit := cache.Get("k"); hit {
		t.Fatal("abandoned flight's error result must not be cached")
	}
}
