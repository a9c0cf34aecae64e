package catalog

import (
	"context"
	"sync"
	"testing"

	"irdb/internal/fault"
)

// TestCacheComputePanicReleasesWaiters: a panic in a single-flight
// compute callback (a materialization or a join index build) must not
// kill the process — and, just as important, must not leave the flight's
// done channel unclosed, which would hang every concurrent waiter
// forever. All callers get the typed error, nothing is cached, and the
// key computes fine afterwards.
func TestCacheComputePanicReleasesWaiters(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			c := NewCache(0)
			const callers = 6
			var wg sync.WaitGroup
			errs := make([]error, callers)
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, _, errs[i] = c.getOrCompute(context.Background(), k.kind, "k", nil,
						func(context.Context) (any, error) { panic("compute boom") })
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				pe, ok := fault.AsPanicError(err)
				if !ok {
					t.Fatalf("caller %d: err = %v, want *fault.PanicError", i, err)
				}
				if pe.Op == "" {
					t.Errorf("caller %d: PanicError has no operation label", i)
				}
			}
			if n := entriesOf(c, k.kind); n != 0 {
				t.Errorf("cache holds %d entries after panicking computes", n)
			}
			if st := c.Stats(); st.Panics == 0 {
				t.Errorf("Stats().Panics = 0, want > 0")
			}

			// The key is not poisoned: a healthy compute succeeds and caches.
			want := k.val(1)
			got, _, err := c.getOrCompute(context.Background(), k.kind, "k", nil,
				func(context.Context) (any, error) { return want, nil })
			if err != nil || got != want {
				t.Fatalf("compute after panic: v=%v err=%v", got, err)
			}
			if entriesOf(c, k.kind) != 1 {
				t.Errorf("healthy result not cached")
			}
		})
	}
}
