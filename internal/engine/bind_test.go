package engine

import (
	"context"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

func bindTestCat() *catalog.Catalog {
	cat := catalog.New(0)
	cat.Put("t", relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings([]string{"a", "b", "a", "c"})},
		{Name: "v", Vec: vector.FromInt64s([]int64{1, 2, 3, 4})},
	}, nil))
	return cat
}

// TestBindSharesParamFreeSubtrees: binding substitutes only the
// param-dependent spine; a subtree without parameters is the same Node
// pointer in the bound plan, so its fingerprint — and cache entry — is
// shared across bindings.
func TestBindSharesParamFreeSubtrees(t *testing.T) {
	free := NewMaterialize(NewSelect(NewScan("t"),
		expr.Cmp{Op: expr.Eq, L: expr.Column("k"), R: expr.Str("a")}))
	plan := NewHashJoin(
		NewSelect(NewScan("t"),
			expr.Cmp{Op: expr.Gt, L: expr.Column("v"), R: expr.Param{Name: "min"}}),
		free,
		[]string{"k"}, []string{"k"}, JoinIndependent)

	if got := Params(plan); len(got) != 1 || got[0] != "min" {
		t.Fatalf("Params = %v", got)
	}
	bound, err := Bind(plan, func(name string) (expr.Lit, bool) {
		return expr.Int(2), name == "min"
	})
	if err != nil {
		t.Fatal(err)
	}
	bj, ok := bound.(*HashJoin)
	if !ok || bj == plan {
		t.Fatalf("bound plan not rebuilt: %T", bound)
	}
	if bj.R != Node(free) {
		t.Fatal("param-free subtree was copied by Bind")
	}
	// The bound plan is another plan than the prepared one, and the same
	// plan as one written with the literal in place of ?min.
	if bound.Fingerprint() == plan.Fingerprint() {
		t.Fatal("bound plan shares the prepared plan's digest")
	}
	literal := NewHashJoin(
		NewSelect(NewScan("t"), expr.Cmp{Op: expr.Gt, L: expr.Column("v"), R: expr.Int(2)}),
		free, []string{"k"}, []string{"k"}, JoinIndependent)
	if bound.Fingerprint() != literal.Fingerprint() {
		t.Fatal("bound plan's digest differs from the plan written with the literal")
	}
	assertFresh(t, bound)

	// Bound plans execute; two bindings give different results.
	ctx := NewCtx(bindTestCat())
	r2, err := ctx.Exec(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	b0, err := Bind(plan, func(string) (expr.Lit, bool) { return expr.Int(0), true })
	if err != nil {
		t.Fatal(err)
	}
	r0, err := ctx.Exec(context.Background(), b0)
	if err != nil {
		t.Fatal(err)
	}
	if r2.NumRows() >= r0.NumRows() {
		t.Fatalf("min=2 gave %d rows, min=0 gave %d", r2.NumRows(), r0.NumRows())
	}

	// An unbound execution fails with the unbound-parameter error.
	if _, err := ctx.Exec(context.Background(), plan); err == nil ||
		!strings.Contains(err.Error(), "unbound parameter ?min") {
		t.Fatalf("unbound exec err = %v", err)
	}

	// Missing binding errors out of Bind itself.
	if _, err := Bind(plan, func(string) (expr.Lit, bool) { return expr.Lit{}, false }); err == nil {
		t.Fatal("Bind without a binding must error")
	}
}

// TestBindNoParamsReturnsSamePlan: a parameter-free plan binds to itself.
func TestBindNoParamsReturnsSamePlan(t *testing.T) {
	plan := NewSort(NewScan("t"), SortSpec{Col: "k"})
	bound, err := Bind(plan, func(string) (expr.Lit, bool) { return expr.Lit{}, false })
	if err != nil {
		t.Fatal(err)
	}
	if bound != Node(plan) {
		t.Fatal("param-free plan was copied")
	}
}

// TestAlignProbeReencodes: a plain-string probe against a dict-encoded
// build side is re-encoded into the build dict's code space, agreeing
// with a fresh EncodeLookup, with unknown strings mapped to -1.
func TestAlignProbeReencodes(t *testing.T) {
	dict := vector.EncodeStrings(vector.FromStrings([]string{"a", "b", "c"}))
	probe := vector.FromStrings([]string{"b", "x", "a", "b"})

	out := alignProbeVecs([]vector.Vector{probe}, []vector.Vector{dict})
	enc, ok := out[0].(*vector.DictStrings)
	if !ok {
		t.Fatalf("probe not re-encoded: %T", out[0])
	}
	fresh := vector.EncodeLookup(dict.Dict(), probe)
	for i, c := range enc.Codes() {
		if c != fresh.Codes()[i] {
			t.Fatalf("aligned code %d = %d, fresh = %d", i, c, fresh.Codes()[i])
		}
	}
	if enc.Codes()[1] != -1 {
		t.Fatalf("unknown probe string encoded as %d, want -1", enc.Codes()[1])
	}
}
