package catalog

import (
	"context"
	"fmt"
	"testing"
	"time"

	"irdb/internal/relation"
)

// costOf returns the recorded rebuild cost of the entry under (kind, key).
func costOf(t *testing.T, c *Cache, kind entryKind, key string) time.Duration {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[kind][key]
	if !ok {
		t.Fatalf("%q not cached", key)
	}
	return el.Value.(*cacheEntry).cost
}

// resident reports which of keys are cached relation entries.
func resident(c *Cache, keys ...string) map[string]bool {
	out := make(map[string]bool, len(keys))
	for _, k := range keys {
		_, out[k] = peek(c, kindRel, k)
	}
	return out
}

// TestGreedyDualEvictsCheapLargeFirst: under byte pressure a large entry
// that was cheap to build per byte goes before an older, small entry that
// was expensive per byte — LRU would evict the older one. Priority is
// cost per byte, so at equal costs the larger entry goes first.
func TestGreedyDualEvictsCheapLargeFirst(t *testing.T) {
	for _, tc := range []struct {
		name             string
		oldCost, bigCost time.Duration
	}{
		{"cheaper", 10 * time.Millisecond, 10 * time.Microsecond},
		{"equal cost", time.Millisecond, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCache(0)
			c.SetMaxBytes(4 * rel(10).EstimatedBytes())
			seed(c, kindRel, "old", rel(10), tc.oldCost)
			seed(c, kindRel, "big", rel(20), tc.bigCost)
			seed(c, kindRel, "new", rel(20), time.Millisecond)
			got := resident(c, "old", "big", "new")
			if !got["old"] || got["big"] || !got["new"] {
				t.Errorf("resident = %v, want old and new kept, big evicted", got)
			}
			if st := c.Stats(); st.Evictions != 1 {
				t.Errorf("evictions = %d, want 1", st.Evictions)
			}
		})
	}
}

// TestGreedyDualAgesOutUnreadEntries: an expensive entry that is no longer
// read survives a few cheap insertions, but each eviction advances the
// clock, and once the clock passes its priority it goes too — nothing is
// pinned forever by a high cost.
func TestGreedyDualAgesOutUnreadEntries(t *testing.T) {
	c := NewCache(0)
	c.SetMaxBytes(3 * rel(10).EstimatedBytes())
	seed(c, kindRel, "old", rel(10), time.Millisecond)
	for i := 0; i < 40; i++ {
		seed(c, kindRel, fmt.Sprintf("k%d", i), rel(10), 100*time.Microsecond)
		_, ok := peek(c, kindRel, "old")
		switch {
		case i < 5 && !ok:
			t.Fatalf("old evicted after %d cheap insertions, want it kept at first", i+1)
		case ok && i >= 20:
			t.Fatalf("old still resident after %d cheap insertions, want it aged out", i+1)
		case !ok:
			return
		}
	}
}

// TestGreedyDualHitRenewsPriority: reading an entry re-sets its priority
// from the current clock, so an expensive entry that keeps being read
// outlives the aging that evicts an unread one.
func TestGreedyDualHitRenewsPriority(t *testing.T) {
	c := NewCache(0)
	c.SetMaxBytes(3 * rel(10).EstimatedBytes())
	seed(c, kindRel, "read", rel(10), time.Millisecond)
	for i := 0; i < 100; i++ {
		if _, ok := c.Get("read"); !ok {
			t.Fatalf("read evicted after %d cheap insertions although read before each", i)
		}
		seed(c, kindRel, fmt.Sprintf("k%d", i), rel(10), 100*time.Microsecond)
	}
}

// TestSetMaxBytesShrinkEvictsByPriority: shrinking the budget evicts the
// cheapest entries, not the least recently used ones.
func TestSetMaxBytesShrinkEvictsByPriority(t *testing.T) {
	c := NewCache(0)
	costs := []time.Duration{time.Millisecond, time.Microsecond, time.Millisecond, time.Microsecond}
	for i, cost := range costs {
		seed(c, kindRel, fmt.Sprintf("k%d", i), rel(10), cost)
	}
	c.SetMaxBytes(2 * rel(10).EstimatedBytes())
	got := resident(c, "k0", "k1", "k2", "k3")
	if !got["k0"] || got["k1"] || !got["k2"] || got["k3"] {
		t.Errorf("resident = %v, want k0 and k2 (the expensive ones)", got)
	}
}

// TestCapacityEvictionByPriority: count pressure evicts the cheapest
// relation entry, not the least recently used one.
func TestCapacityEvictionByPriority(t *testing.T) {
	c := NewCache(2)
	seed(c, kindRel, "a", rel(10), 10*time.Millisecond)
	seed(c, kindRel, "b", rel(10), time.Microsecond)
	seed(c, kindRel, "c", rel(10), time.Millisecond)
	got := resident(c, "a", "b", "c")
	if !got["a"] || got["b"] || !got["c"] {
		t.Errorf("resident = %v, want a and c kept, b evicted", got)
	}
}

// TestGreedyDualCostIncludesCachedInputs: an entry's cost includes the
// recorded cost of every cached entry its computation read, in nested
// flights too, so a rebuild's price does not depend on what happened to
// be cached when it last ran.
func TestGreedyDualCostIncludesCachedInputs(t *testing.T) {
	c := NewCache(0)
	ctx := context.Background()
	seed(c, kindRel, "input", rel(10), time.Hour)
	readInput := func(fc context.Context) (*relation.Relation, error) {
		r, _, err := c.GetOrComputeDeps(fc, "input", nil, nil)
		return r, err
	}
	if _, _, err := c.GetOrComputeDeps(ctx, "outer", nil, func(fc context.Context) (*relation.Relation, error) {
		r, _, err := c.GetOrComputeDeps(fc, "mid", nil, readInput)
		return r, err
	}); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"mid", "outer"} {
		if got := costOf(t, c, kindRel, k); got < time.Hour {
			t.Errorf("%s cost = %v, want at least the input's hour", k, got)
		}
	}
	if got := costOf(t, c, kindRel, "input"); got != time.Hour {
		t.Errorf("input cost = %v, want its seeded hour unchanged", got)
	}
}
