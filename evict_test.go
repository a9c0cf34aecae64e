package irdb

import (
	"fmt"
	"testing"
)

// TestEvictionKeepsQueryIndexes: under evict_search's 4 MiB budget, about
// half the cache's working set, a warm search reads ~3.7 MB of cached
// join indexes and relations. Eviction must keep those resident and give
// up the bulky intermediates that build them, so the cache settles: some
// run of 32 consecutive searches misses nothing. An LRU cache instead
// rebuilds the indexes on every search (over a thousand misses per 64
// searches).
func TestEvictionKeepsQueryIndexes(t *testing.T) {
	const settled, within = 32, 256
	for _, seed := range []int64{126, 127, 128, 7} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cache, search, queries := evictSearch(t, seed, 4<<20)
			quiet := 0
			for i, q := range queries[:within] {
				before := cache.Stats().Misses
				if err := search(q); err != nil {
					t.Fatal(err)
				}
				if cache.Stats().Misses == before {
					quiet++
				} else {
					quiet = 0
				}
				if quiet == settled {
					t.Logf("settled after %d searches", i+1)
					return
				}
			}
			st := cache.Stats()
			t.Fatalf("no %d consecutive searches without a miss in %d (misses %d, hits %d, evictions %d)",
				settled, within, st.Misses, st.Hits, st.Evictions)
		})
	}
}
