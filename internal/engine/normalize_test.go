package engine

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"irdb/internal/catalog"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

func normCtx(probs []float64, keys []string) *Ctx {
	b := relation.NewBuilder([]string{"k"}, []vector.Kind{vector.String})
	for i, p := range probs {
		b.AddP(p, keys[i])
	}
	cat := catalog.New(0)
	cat.Put("t", b.Build())
	return NewCtx(cat)
}

func TestNormalizeGlobalSum(t *testing.T) {
	ctx := normCtx([]float64{0.2, 0.6, 0.2}, []string{"a", "b", "c"})
	r, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), nil, NormSum))
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range r.Prob() {
		sum += p
	}
	if math.Abs(sum-1.0) > 1e-12 {
		t.Errorf("sum = %g", sum)
	}
	if math.Abs(r.Prob()[1]-0.6) > 1e-12 {
		t.Errorf("p(b) = %g, want 0.6", r.Prob()[1])
	}
}

func TestNormalizeGlobalMax(t *testing.T) {
	ctx := normCtx([]float64{0.2, 0.5}, []string{"a", "b"})
	r, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), nil, NormMax))
	if err != nil {
		t.Fatal(err)
	}
	if r.Prob()[1] != 1.0 || math.Abs(r.Prob()[0]-0.4) > 1e-12 {
		t.Errorf("max-normalized = %v", r.Prob())
	}
}

func TestNormalizeGrouped(t *testing.T) {
	ctx := normCtx([]float64{0.1, 0.3, 0.5}, []string{"g1", "g1", "g2"})
	r, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), []string{"k"}, NormSum))
	if err != nil {
		t.Fatal(err)
	}
	p := r.Prob()
	if math.Abs(p[0]-0.25) > 1e-12 || math.Abs(p[1]-0.75) > 1e-12 || p[2] != 1.0 {
		t.Errorf("grouped normalize = %v", p)
	}
}

func TestNormalizeZeroDenominator(t *testing.T) {
	ctx := normCtx([]float64{0, 0}, []string{"a", "b"})
	r, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), nil, NormSum))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Prob() {
		if p != 0 {
			t.Errorf("zero group produced p=%g", p)
		}
	}
}

func TestNormalizeBadKey(t *testing.T) {
	ctx := normCtx([]float64{1}, []string{"a"})
	if _, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), []string{"nope"}, NormSum)); err == nil {
		t.Error("a key column the input does not have should fail")
	}
}

func TestNormalizeDoesNotMutateInput(t *testing.T) {
	ctx := normCtx([]float64{0.2, 0.4}, []string{"a", "b"})
	if _, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), nil, NormSum)); err != nil {
		t.Fatal(err)
	}
	base, _ := ctx.Cat.Table("t")
	if base.Prob()[0] != 0.2 {
		t.Errorf("input mutated: %v", base.Prob())
	}
}

// Property: NormSum output always sums to 1 per group (when any mass
// exists), and NormMax peaks at exactly 1.
func TestNormalizeProperties(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		probs := make([]float64, len(raw))
		keys := make([]string, len(raw))
		var mass float64
		for i, x := range raw {
			x = math.Abs(x)
			x -= math.Floor(x)
			probs[i] = x
			mass += x
			keys[i] = "k"
		}
		ctx := normCtx(probs, keys)
		r, err := ctx.Exec(context.Background(), NewNormalize(NewScan("t"), []string{"k"}, NormSum))
		if err != nil {
			return false
		}
		var sum float64
		for _, p := range r.Prob() {
			sum += p
		}
		if mass > 0 && math.Abs(sum-1.0) > 1e-9 {
			return false
		}
		if mass == 0 && sum != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRowNumber(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).
		Add("a").Add("b").Add("c").Build())
	ctx := NewCtx(cat)
	r, err := ctx.Exec(context.Background(), NewRowNumber(NewScan("t"), "id"))
	if err != nil {
		t.Fatal(err)
	}
	if r.NumCols() != 2 {
		t.Fatalf("cols = %d", r.NumCols())
	}
	ids := r.Col(1).Vec.(*vector.Int64s).Values()
	for i, id := range ids {
		if id != int64(i+1) {
			t.Fatalf("ids = %v, want 1-based dense", ids)
		}
	}
}

func TestJoinIndexReuse(t *testing.T) {
	ctx := newTestCtx()
	right := NewMaterialize(NewScan("triples"))
	probe := NewValues("probe", relation.NewBuilder(
		[]string{"s"}, []vector.Kind{vector.String}).Add("p1").Build())
	j := NewHashJoin(probe, right, []string{"s"}, []string{"subject"}, JoinLeft)
	if _, err := ctx.Exec(context.Background(), j); err != nil {
		t.Fatal(err)
	}
	// The aux cache must now hold a hash index for the build side.
	key := "hashidx|" + right.Fingerprint() + "|subject"
	if _, hit, _ := ctx.Cat.Cache().GetOrComputeAuxDeps(context.Background(), key, nil, func(context.Context) (any, error) {
		return nil, errors.New("index missing")
	}); !hit {
		t.Error("join index not cached for materialized build side")
	}
	// And a second evaluation reuses it (no way to observe directly other
	// than it does not error and stays consistent).
	rel, err := ctx.Exec(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if rel.NumRows() != 2 {
		t.Errorf("rows = %d, want 2 (category+description of p1)", rel.NumRows())
	}
}
