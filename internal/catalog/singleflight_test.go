package catalog

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func oneRowRel(v int64) *relation.Relation {
	return relation.MustFromColumns([]relation.Column{
		{Name: "v", Vec: vector.FromInt64s([]int64{v})}}, nil)
}

// TestGetOrComputeSingleFlight: concurrent misses on one key run the
// computation exactly once and all receive its result, for both entry
// kinds; only relation lookups count as hits and misses.
func TestGetOrComputeSingleFlight(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			c := NewCache(0)
			var computes atomic.Int64
			gate := make(chan struct{})

			const callers = 32
			var wg sync.WaitGroup
			vals := make([]any, callers)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					v, _, err := c.getOrCompute(context.Background(), k.kind, "k", nil, func(context.Context) (any, error) {
						computes.Add(1)
						<-gate // hold the flight open until every caller has piled in
						return k.val(42), nil
					})
					if err != nil {
						t.Errorf("caller %d: %v", g, err)
					}
					vals[g] = v
				}(g)
			}
			// Let callers join, then release the leader. The sleep-free way:
			// wait until the cache records callers-1 shared joins or all are
			// blocked.
			for {
				c.mu.Lock()
				joined := c.shared
				c.mu.Unlock()
				if joined == callers-1 || computes.Load() > 1 {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			close(gate)
			wg.Wait()

			if n := computes.Load(); n != 1 {
				t.Fatalf("compute ran %d times, want 1", n)
			}
			for g := 1; g < callers; g++ {
				if vals[g] != vals[0] {
					t.Fatalf("caller %d got a different value", g)
				}
			}
			if st := c.Stats(); st.Shared != callers-1 {
				t.Errorf("Shared = %d, want %d", st.Shared, callers-1)
			}
			if n := entriesOf(c, k.kind); n != 1 {
				t.Errorf("entries = %d, want 1", n)
			}
			if v, ok := peek(c, k.kind, "k"); !ok || v != vals[0] {
				t.Error("flight result not stored")
			}
			// Later callers hit the completed entry without computing.
			if _, hit, _ := c.getOrCompute(context.Background(), k.kind, "k", nil, func(context.Context) (any, error) {
				t.Fatal("compute must not run on a warm key")
				return nil, nil
			}); !hit {
				t.Error("warm key reported as miss")
			}
			wantLookups := uint64(1) // one miss (the leader), one hit (the warm call)
			if k.kind == kindAux {
				wantLookups = 0
			}
			if st := c.Stats(); st.Hits != wantLookups || st.Misses != wantLookups {
				t.Errorf("hits/misses = %d/%d, want %d/%d", st.Hits, st.Misses, wantLookups, wantLookups)
			}
		})
	}
}

// TestGetOrComputeError: errors reach every waiter and are never cached.
func TestGetOrComputeError(t *testing.T) {
	c := NewCache(0)
	boom := errors.New("boom")
	var computes atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, hit, err := c.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
				computes.Add(1)
				return nil, boom
			})
			if !errors.Is(err, boom) {
				t.Errorf("err = %v, want boom", err)
			}
			if hit {
				t.Error("failed computation reported as hit")
			}
		}()
	}
	wg.Wait()
	if n := c.Stats().Entries; n != 0 {
		t.Errorf("cache holds %d entries after failures, want 0", n)
	}
	// The key is not poisoned: a succeeding compute works.
	rel, _, err := c.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
		return oneRowRel(1), nil
	})
	if err != nil || rel == nil {
		t.Fatalf("recovery compute: rel=%v err=%v", rel, err)
	}
}

// TestClearDuringFlight: a Clear racing an in-flight computation must not
// let the (possibly stale) result land in the post-Clear cache.
func TestClearDuringFlight(t *testing.T) {
	c := NewCache(0)
	entered := make(chan struct{})
	gate := make(chan struct{})
	done := make(chan *relation.Relation, 1)
	go func() {
		rel, _, _ := c.GetOrComputeDeps(context.Background(), "k", nil, func(context.Context) (*relation.Relation, error) {
			close(entered)
			<-gate
			return oneRowRel(7), nil
		})
		done <- rel
	}()
	<-entered
	c.Clear()
	close(gate)
	if rel := <-done; rel == nil || rel.NumRows() != 1 {
		t.Fatal("flight caller must still receive the computed relation")
	}
	if n := c.Stats().Entries; n != 0 {
		t.Errorf("stale flight result was cached across Clear (%d entries)", n)
	}
	if _, ok := c.Get("k"); ok {
		t.Error("stale entry visible after Clear")
	}
}

// TestCacheConcurrentHammer drives every public cache method from many
// goroutines at once; the -race detector is the assertion.
func TestCacheConcurrentHammer(t *testing.T) {
	c := NewCache(8) // small capacity: exercise eviction under load
	const goroutines = 16
	const iters = 300
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				key := fmt.Sprintf("k%d", (g+i)%12)
				switch i % 7 {
				case 0:
					c.GetOrComputeDeps(context.Background(), key, []string{"t"}, func(context.Context) (*relation.Relation, error) {
						return oneRowRel(int64(i)), nil
					})
				case 1:
					c.Get(key)
				case 2:
					c.GetOrComputeDeps(context.Background(), key, nil, func(context.Context) (*relation.Relation, error) {
						return oneRowRel(int64(g)), nil
					})
				case 3:
					c.InvalidateDeps([]string{"t"}, uint64(i))
				case 4:
					c.DropAux(key)
				case 5:
					if i%63 == 5 {
						c.Clear()
					} else {
						c.GetOrComputeAuxDeps(context.Background(), key, nil, func(context.Context) (any, error) { return g, nil })
					}
				case 6:
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.Stats().Entries; n > 8 {
		t.Errorf("capacity 8 exceeded: %d entries", n)
	}
}
