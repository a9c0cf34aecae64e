package catalog

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func rel(n int) *relation.Relation {
	b := relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64})
	for i := 0; i < n; i++ {
		b.Add(i)
	}
	return b.Build()
}

// seed stores v under (kind, key) the way a completed flight whose
// computation took cost does, with unknown deps, for tests that arrange
// cache contents directly.
func seed(c *Cache, kind entryKind, key string, v any, cost time.Duration) {
	b := c.sizeOf(kind, v)
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(kind, key, v, b, cost, nil, c.curWMLocked())
}

// peek returns the value under (kind, key) without touching the recency
// order, the priorities or the counters.
func peek(c *Cache, kind entryKind, key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[kind][key]
	if !ok {
		return nil, false
	}
	return el.Value.(*cacheEntry).val, true
}

// kindCases runs a cache test over both entry kinds; val builds a fresh,
// distinct value of the kind.
var kindCases = []struct {
	name string
	kind entryKind
	val  func(n int) any
}{
	{"rel", kindRel, func(n int) any { return rel(n) }},
	{"aux", kindAux, func(n int) any { return &sizedAux{bytes: int64(n)} }},
}

// entriesOf reports the number of cached entries of one kind.
func entriesOf(c *Cache, kind entryKind) int {
	st := c.Stats()
	if kind == kindAux {
		return st.AuxEntries
	}
	return st.Entries
}

func TestCatalogPutGet(t *testing.T) {
	c := New(0)
	c.Put("t", rel(3))
	r, err := c.Table("t")
	if err != nil || r.NumRows() != 3 {
		t.Fatalf("Table(t): %v", err)
	}
	if _, err := c.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
}

func TestCatalogTableNamesSorted(t *testing.T) {
	c := New(0)
	c.Put("zeta", rel(1))
	c.Put("alpha", rel(1))
	names := c.TableNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "zeta" {
		t.Errorf("TableNames = %v", names)
	}
}

func TestPutInvalidatesCache(t *testing.T) {
	c := New(0)
	c.Put("t", rel(1))
	seed(c.Cache(), kindRel, "fp1", rel(5), 0)
	if c.Cache().Stats().Entries != 1 {
		t.Fatal("cache put failed")
	}
	c.Put("t", rel(2))
	if c.Cache().Stats().Entries != 0 {
		t.Error("cache survived table replacement")
	}
}

func TestCacheHitMissEvict(t *testing.T) {
	cache := NewCache(2)
	if _, ok := cache.Get("a"); ok {
		t.Error("empty cache returned a hit")
	}
	seed(cache, kindRel, "a", rel(1), 0)
	seed(cache, kindRel, "b", rel(2), 0)
	if r, ok := cache.Get("a"); !ok || r.NumRows() != 1 {
		t.Error("Get(a) failed")
	}
	// "b" is now LRU; inserting "c" must evict it.
	seed(cache, kindRel, "c", rel(3), 0)
	if _, ok := cache.Get("b"); ok {
		t.Error("LRU entry not evicted")
	}
	if _, ok := cache.Get("a"); !ok {
		t.Error("recently used entry evicted")
	}
	s := cache.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 2 || s.Misses != 2 {
		t.Errorf("hits/misses = %d/%d, want 2/2", s.Hits, s.Misses)
	}
	if s.Entries != 2 {
		t.Errorf("entries = %d, want 2", s.Entries)
	}
}

// TestKindsHaveSeparateKeySpaces: a relation and a join index stored
// under the same key string are two entries, and DropAux and Get each
// reach only their own kind.
func TestKindsHaveSeparateKeySpaces(t *testing.T) {
	cache := NewCache(0)
	ctx := context.Background()
	r := rel(1)
	if _, _, err := cache.GetOrComputeDeps(ctx, "k", nil, func(context.Context) (*relation.Relation, error) { return r, nil }); err != nil {
		t.Fatal(err)
	}
	if _, hit, err := cache.GetOrComputeAuxDeps(ctx, "k", nil, func(context.Context) (any, error) { return &sizedAux{bytes: 8}, nil }); err != nil || hit {
		t.Fatalf("aux lookup under a relation's key: hit=%v err=%v", hit, err)
	}
	if st := cache.Stats(); st.Entries != 1 || st.AuxEntries != 1 {
		t.Fatalf("entries=%d aux=%d, want 1, 1", st.Entries, st.AuxEntries)
	}
	cache.DropAux("k")
	if st := cache.Stats(); st.Entries != 1 || st.AuxEntries != 0 {
		t.Errorf("after DropAux: entries=%d aux=%d, want 1, 0", st.Entries, st.AuxEntries)
	}
	if got, ok := cache.Get("k"); !ok || got != r {
		t.Error("DropAux removed the relation entry")
	}
}

func TestCacheUpdateExisting(t *testing.T) {
	cache := NewCache(0)
	seed(cache, kindRel, "k", rel(1), 0)
	seed(cache, kindRel, "k", rel(9), 0)
	if n := cache.Stats().Entries; n != 1 {
		t.Errorf("Entries = %d, want 1", n)
	}
	r, _ := cache.Get("k")
	if r.NumRows() != 9 {
		t.Error("update did not replace value")
	}
}

func TestCacheClearKeepsStats(t *testing.T) {
	cache := NewCache(0)
	seed(cache, kindRel, "k", rel(1), 0)
	cache.Get("k")
	cache.Clear()
	if s := cache.Stats(); s.Entries != 0 {
		t.Error("Clear left entries")
	} else if s.Hits != 1 {
		t.Error("Clear should keep counters")
	}
}

func TestCatalogConcurrentAccess(t *testing.T) {
	c := New(0)
	c.Put("t", rel(10))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 4 {
				case 0:
					c.Table("t")
				case 1:
					seed(c.Cache(), kindRel, fmt.Sprintf("k%d-%d", g, i), rel(1), 0)
				case 2:
					c.Cache().Get(fmt.Sprintf("k%d-%d", g, i-1))
				case 3:
					c.TableNames()
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSchemaEpoch: the schema epoch moves on every change that may rename
// a column — Put, Drop, snapshot install, and deltas that add a table or
// change its column names — and stays put across same-named appends.
func TestSchemaEpoch(t *testing.T) {
	c := New(0)
	step := func(what string, moves bool, f func()) {
		t.Helper()
		before := c.SchemaEpoch()
		f()
		if got := c.SchemaEpoch() != before; got != moves {
			t.Errorf("%s: epoch moved = %v, want %v", what, got, moves)
		}
	}
	renamed := relation.NewBuilder([]string{"y"}, []vector.Kind{vector.Int64}).Add(1).Build()
	step("Put", true, func() { c.Put("a", rel(2)) })
	step("append", false, func() { c.PutDelta("a", rel(5)) })
	step("append to two tables, one new", true, func() {
		c.PutDeltas(map[string]*relation.Relation{"a": rel(6), "b": rel(1)})
	})
	step("renaming delta", true, func() { c.PutDelta("b", renamed) })
	var buf bytes.Buffer
	if err := c.Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	step("snapshot load", true, func() {
		if _, err := c.LoadSnapshot(&buf); err != nil {
			t.Fatal(err)
		}
	})
}
