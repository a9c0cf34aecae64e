package catalog

import (
	"context"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func oneRow(v int64) *relation.Relation {
	return relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Add(v).Build()
}

// TestPutDeltaInvalidatesSelectively is the watermark invalidation rule of
// the durability model: an append to table b evicts only the cache entries
// (relations and join indexes alike) depending on b or with unknown deps;
// entries over a stay resident.
func TestPutDeltaInvalidatesSelectively(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			ctx := context.Background()
			c := New(0)
			c.Put("a", oneRow(1))
			c.Put("b", oneRow(2))

			compute := func(n int) func(context.Context) (any, error) {
				return func(context.Context) (any, error) { return k.val(n), nil }
			}
			for _, q := range []struct {
				key  string
				deps []string // nil: unknown, so any publish must evict it
			}{{"qa", []string{"a"}}, {"qb", []string{"b"}}, {"qnil", nil}} {
				if _, hit, err := c.Cache().getOrCompute(ctx, k.kind, q.key, q.deps, compute(10)); err != nil || hit {
					t.Fatalf("%s first compute: hit=%v err=%v", q.key, hit, err)
				}
			}

			c.PutDelta("b", oneRow(3))

			if _, ok := peek(c.Cache(), k.kind, "qa"); !ok {
				t.Error("entry over table a evicted by an append to table b")
			}
			if _, ok := peek(c.Cache(), k.kind, "qb"); ok {
				t.Error("entry over table b survived an append to table b")
			}
			if _, ok := peek(c.Cache(), k.kind, "qnil"); ok {
				t.Error("unknown-deps entry survived a publish")
			}
			if st := c.Cache().Stats(); st.DepInvalidations != 2 {
				t.Errorf("DepInvalidations = %d, want 2 (qb + qnil)", st.DepInvalidations)
			}

			// The surviving entry is a real hit, not a recompute.
			if _, hit, err := c.Cache().getOrCompute(ctx, k.kind, "qa", []string{"a"}, compute(99)); err != nil || !hit {
				t.Fatalf("qa after unrelated append: hit=%v err=%v", hit, err)
			}
		})
	}
}

// TestStaleFlightResultIsDropped: a result computed while its dependency
// was republished mid-flight reaches its waiter but must not be inserted
// — the next lookup recomputes against the new table version.
func TestStaleFlightResultIsDropped(t *testing.T) {
	for _, k := range kindCases {
		t.Run(k.name, func(t *testing.T) {
			ctx := context.Background()
			c := New(0)
			c.Put("a", oneRow(1))
			v, hit, err := c.Cache().getOrCompute(ctx, k.kind, "q", []string{"a"}, func(context.Context) (any, error) {
				// The append lands while the query is computing.
				c.PutDelta("a", oneRow(2))
				return k.val(10), nil
			})
			if err != nil || hit || v == nil {
				t.Fatalf("in-flight compute: hit=%v err=%v", hit, err)
			}
			if _, ok := peek(c.Cache(), k.kind, "q"); ok {
				t.Error("stale flight result was cached")
			}
			if st := c.Cache().Stats(); st.StaleDrops != 1 {
				t.Errorf("StaleDrops = %d, want 1", st.StaleDrops)
			}
		})
	}
}
