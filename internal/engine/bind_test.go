package engine

import (
	"context"
	"fmt"
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

	out, err := alignProbeVecs(context.Background(), &Ctx{}, []vector.Vector{probe}, []vector.Vector{dict})
	if err != nil {
		t.Fatal(err)
	}
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

// TestPreparedRelationParam: a relation-valued parameter is a leaf with a
// schema and no rows. The optimizer resolves its columns, Bind replaces
// it by a literal Values with the same columns, and the optimized plan
// bound is the optimized plan written with that literal. Left unbound it
// is an error from Bind and from Exec, never a panic and never empty rows.
func TestPreparedRelationParam(t *testing.T) {
	rel := relation.MustFromColumns([]relation.Column{
		{Name: "k", Vec: vector.FromStrings([]string{"a", "c"})},
		{Name: "w", Vec: vector.FromInt64s([]int64{10, 30})},
	}, nil)
	lit := NewValues("query:a c", rel)
	table := NewMaterialize(NewScan("t"))
	// The Select sinks into the leaf's side of the join only when the
	// optimizer knows the leaf's columns.
	over := func(leaf Node) Node {
		return NewProject(NewSelect(NewHashJoin(leaf, table, []string{"k"}, []string{"k"}, JoinLeft),
			expr.Cmp{Op: expr.Gt, L: expr.Column("w"), R: expr.Int(15)}), ByName("v")...)
	}
	param := NewValuesParam("q", "k", "w")
	plan := over(param)
	if !plan.identity().params || table.identity().params || lit.identity().params {
		t.Fatal("has-parameters bits wrong")
	}
	if got := Params(plan); len(got) != 1 || got[0] != "q" {
		t.Fatalf("Params = %v", got)
	}
	if !strings.Contains(Explain(plan), "?q") {
		t.Fatalf("EXPLAIN does not show the parameter:\n%s", Explain(plan))
	}

	cat := bindTestCat()
	ctx := NewCtx(cat)
	opt, _ := Optimize(cat, plan)
	want, info := Optimize(cat, over(lit))
	if info.SelectsPushed == 0 {
		t.Fatalf("the literal plan's Select was not pushed:\n%s", Explain(want))
	}
	bind := Bindings{Relation: func(name string) (*Values, bool) { return lit, name == "q" }}
	bound, err := bind.Bind(opt)
	if err != nil {
		t.Fatal(err)
	}
	if bound.Fingerprint() != want.Fingerprint() {
		t.Fatalf("bound plan differs from the literal plan:\n%s", ExplainChange(want, bound))
	}
	got, err := ctx.Exec(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 { // only c passes w > 15, and joins one row of t
		t.Fatalf("bound plan gave %d rows, want 1", got.NumRows())
	}

	for name, b := range map[string]Bindings{
		"no bindings":   {},
		"scalars only":  {Scalar: func(string) (expr.Lit, bool) { return expr.Int(1), true }},
		"unknown name":  {Relation: func(name string) (*Values, bool) { return lit, name == "other" }},
		"another param": {Relation: func(string) (*Values, bool) { return param, true }},
		"wrong columns": {Relation: func(string) (*Values, bool) {
			return NewValues("x", relation.MustFromColumns([]relation.Column{
				{Name: "k", Vec: vector.FromStrings([]string{"a"})}}, nil)), true
		}},
	} {
		if _, err := b.Bind(opt); err == nil || !strings.Contains(err.Error(), "?q") {
			t.Errorf("%s: Bind err = %v", name, err)
		}
	}
	if _, err := Bind(plan, func(string) (expr.Lit, bool) { return expr.Int(1), true }); err == nil {
		t.Error("scalar Bind left the relation parameter unbound without an error")
	}
	for _, p := range []Node{plan, opt, NewMaterialize(plan)} {
		if r, err := ctx.Exec(context.Background(), p); err == nil ||
			!strings.Contains(err.Error(), "unbound relation parameter ?q") {
			t.Errorf("unbound exec = %v rows, err %v", r, err)
		}
	}
}

// epochTable builds a string table with the given column names and rows
// rows.
func epochTable(rows int, names ...string) *relation.Relation {
	cols := make([]relation.Column, len(names))
	for i, name := range names {
		vals := make([]string, rows)
		for r := range vals {
			vals[r] = fmt.Sprintf("%s%d", name, r%3)
		}
		cols[i] = relation.Column{Name: name, Vec: vector.FromStrings(vals)}
	}
	return relation.MustFromColumns(cols, nil)
}

// epochPrepared prepares one plan over table t through a Prepared[Node]
// and returns a getter that checks each value against a fresh Optimize,
// plus a pointer to the number of prepares so far. Pruning inside the
// view keeps only the columns the aggregate reads, so the optimized plan
// depends on t's column names.
func epochPrepared(t *testing.T, cat *catalog.Catalog) (get func() Node, prepares *int) {
	ctx := NewCtx(cat)
	plan := NewLimit(NewSort(NewMaterialize(NewAggregate(NewScan("t"), []string{"k"},
		[]AggSpec{{Op: Max, Col: "v", As: "m"}}, GroupCertain)), SortSpec{Col: "k"}), 2)
	var p Prepared[Node]
	prepares = new(int)
	get = func() Node {
		t.Helper()
		got, err := p.Get(ctx, func() (Node, error) {
			*prepares++
			return ctx.Optimize(plan), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := Optimize(cat, plan)
		if got.Fingerprint() != want.Fingerprint() || Explain(got) != Explain(want) {
			t.Errorf("prepared plan differs from a fresh Optimize:\n%s", ExplainChange(want, got))
		}
		return got
	}
	return get, prepares
}

// TestPreparedSchemaEpoch: a table replaced with a renamed column moves
// the schema epoch, so the prepared plan prepares again, and the new plan
// is the one Optimize makes against the new schema.
func TestPreparedSchemaEpoch(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", epochTable(6, "k", "v", "x"))
	get, prepares := epochPrepared(t, cat)
	first := get()

	cat.Put("t", epochTable(6, "k", "w", "x"))
	renamed := get()
	if *prepares != 2 {
		t.Fatalf("a renamed column kept the prepared plan (%d prepares)", *prepares)
	}
	if Explain(renamed) == Explain(first) {
		t.Fatalf("renaming a column did not change the optimized plan; the test proves nothing:\n%s", Explain(renamed))
	}
}

// TestPreparedPutDeltas: appends that keep the column names leave the
// schema epoch alone, so the prepared value is the very node stored
// before; a delta that renames a column moves the epoch and prepares
// again.
func TestPreparedPutDeltas(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", epochTable(6, "k", "v", "x"))
	get, prepares := epochPrepared(t, cat)
	first := get()

	epoch := cat.SchemaEpoch()
	cat.PutDeltas(map[string]*relation.Relation{"t": epochTable(9, "k", "v", "x")})
	if got := cat.SchemaEpoch(); got != epoch {
		t.Fatalf("PutDeltas with the same column names moved the schema epoch %d -> %d", epoch, got)
	}
	if get() != first || *prepares != 1 {
		t.Errorf("an append prepared again (%d prepares)", *prepares)
	}

	cat.PutDeltas(map[string]*relation.Relation{"t": epochTable(9, "k", "w", "x")})
	if got := cat.SchemaEpoch(); got == epoch {
		t.Fatalf("PutDeltas that renamed a column left the schema epoch at %d", got)
	}
	if get() == first || *prepares != 2 {
		t.Errorf("a renamed column kept the prepared plan (%d prepares)", *prepares)
	}
}
