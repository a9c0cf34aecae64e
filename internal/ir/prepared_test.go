package ir

import (
	"context"
	"math"
	"testing"

	"irdb/internal/engine"
)

// TestPreparedSearchMatchesScorePlan: for every model and k, the plan
// Search runs — the prepared score plan bound to the query — is the plan
// Optimize makes of ScorePlan under a Limit(k) (none for k = 0), and its
// hits are bit-identical to that plan's.
func TestPreparedSearchMatchesScorePlan(t *testing.T) {
	queries := []string{"wooden train", "book book book", "", "zzzq", "the history of toys"}
	for _, m := range []Model{BM25, TFIDF, LMJelinekMercer} {
		ctx, docs := newIRCtx(t)
		p := DefaultParams()
		p.Model = m
		s, err := NewSearcher(ctx, docs, p)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int{0, 1, 10} {
			for _, q := range queries {
				plan, err := s.ScorePlan(q)
				if err != nil {
					t.Fatal(err)
				}
				if k > 0 {
					plan = engine.NewLimit(plan, k)
				}
				want := ctx.Optimize(plan)
				got, err := s.plan(q, k)
				if err != nil {
					t.Fatal(err)
				}
				if got.Fingerprint() != want.Fingerprint() {
					t.Fatalf("%v k=%d %q: prepared plan differs:\n%s", m, k, q, engine.ExplainChange(want, got))
				}
				rel, err := ctx.Exec(context.Background(), want)
				if err != nil {
					t.Fatal(err)
				}
				wantHits, err := HitsFromRelation(rel)
				if err != nil {
					t.Fatal(err)
				}
				hits, err := s.Search(context.Background(), q, k)
				if err != nil {
					t.Fatal(err)
				}
				if len(hits) != len(wantHits) {
					t.Fatalf("%v k=%d %q: %d hits, want %d", m, k, q, len(hits), len(wantHits))
				}
				for i, h := range hits {
					w := wantHits[i]
					if h.DocID != w.DocID || math.Float64bits(h.Score) != math.Float64bits(w.Score) {
						t.Fatalf("%v k=%d %q: hit %d = %+v, want %+v", m, k, q, i, h, w)
					}
				}
			}
		}
	}
}
