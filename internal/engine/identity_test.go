package engine

import (
	"context"
	"encoding/hex"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// TestDigestCoversEveryParameter: changing any one parameter or child of
// any node type, or any part of an expression, changes the digest; no two
// of the plans below share one.
func TestDigestCoversEveryParameter(t *testing.T) {
	t1, t2 := NewScan("t"), NewScan("u")
	rel := relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build()
	x, y := expr.Column("x"), expr.Column("y")
	p := expr.Cmp{Op: expr.Eq, L: x, R: expr.Int(1)}
	k, j := []string{"k"}, []string{"j"}
	agg := func(op AggOp, col, as string) []AggSpec { return []AggSpec{{Op: op, Col: col, As: as}} }
	stop := func(w string) text.Tokenizer {
		return text.Tokenizer{Lower: true, DropStopwords: true, Stopwords: map[string]bool{w: true}}
	}
	plans := []Node{
		t1, t2,
		NewValues("a", rel), NewValues("b", rel),
		NewLimit(t1, 3), NewLimit(t1, 4), NewLimit(t2, 3),
		NewSelect(t1, p), NewSelect(t2, p),
		NewProject(t1, ProjCol{Name: "a", E: x}), NewProject(t1, ProjCol{Name: "b", E: x}),
		NewProject(t1, ProjCol{Name: "a", E: y}), NewProject(t2, ProjCol{Name: "a", E: x}),
		NewProject(t1, ProjCol{Name: "a", E: x}, ProjCol{Name: "b", E: x}),
		NewProject(t1, ProjCol{Name: "a", E: x}, ProjCol{Name: "b", E: y}), NewProject(t1, ProjCol{Name: "b", E: x}, ProjCol{Name: "a", E: y}),
		NewProject(t1, ProjCol{Name: "a", E: y}, ProjCol{Name: "b", E: x}),
		NewHashJoin(t1, t2, k, k, JoinIndependent), NewHashJoin(t2, t2, k, k, JoinIndependent),
		NewHashJoin(t1, t1, k, k, JoinIndependent), NewHashJoin(t1, t2, j, k, JoinIndependent),
		NewHashJoin(t1, t2, k, j, JoinIndependent), NewHashJoin(t1, t2, k, k, JoinLeft),
		NewHashJoin(t1, t2, []string{"k", "j"}, []string{"k", "j"}, JoinIndependent), NewHashJoin(t1, t2, []string{"kj"}, []string{"kj"}, JoinIndependent),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Col: "k", Name: "k"}}),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Right: true, Col: "k", Name: "k"}}),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Col: "k", Name: "k_2"}}),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Col: "j", Name: "k"}}),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Col: "k", Name: "k"}, {Right: true, Col: "k", Name: "k_2"}}),
		newHashJoin(t1, t2, k, k, JoinIndependent, []JoinCol{{Right: true, Col: "k", Name: "k_2"}, {Col: "k", Name: "k"}}),
		NewAggregate(t1, []string{"g"}, agg(Sum, "v", "s"), GroupCertain), NewAggregate(t2, []string{"g"}, agg(Sum, "v", "s"), GroupCertain),
		NewAggregate(t1, []string{"h"}, agg(Sum, "v", "s"), GroupCertain), NewAggregate(t1, []string{"g"}, agg(Max, "v", "s"), GroupCertain),
		NewAggregate(t1, []string{"g"}, agg(Sum, "w", "s"), GroupCertain), NewAggregate(t1, []string{"g"}, agg(Sum, "v", "t"), GroupCertain),
		NewAggregate(t1, []string{"g"}, agg(Sum, "v", "s"), GroupDisjoint), NewAggregate(t1, nil, agg(Sum, "v", "s"), GroupCertain),
		NewDistinct(t1, GroupMax), NewDistinct(t2, GroupMax), NewDistinct(t1, GroupIndependent),
		NewUnion(t1, t2), NewUnion(t2, t1), NewUnion(t1, t1),
		NewSubtract(t1, t2, true), NewSubtract(t1, t2, false), NewSubtract(t2, t2, true),
		NewSort(t1, SortSpec{Col: "x"}), NewSort(t1, SortSpec{Col: "x", Desc: true}), NewSort(t1, SortSpec{Col: "y"}),
		NewSort(t1, SortSpec{Col: "x"}, SortSpec{}), NewSort(t2, SortSpec{Col: "x"}),
		NewTopN(t1, 5, SortSpec{}), NewTopN(t1, 6, SortSpec{}), NewTopN(t1, 5, SortSpec{Desc: true}), NewTopN(t2, 5, SortSpec{}),
		NewScaleProb(t1, 0.5), NewScaleProb(t1, 0.25), NewScaleProb(t2, 0.5),
		NewProbFromCol(t1, "s", true, true), NewProbFromCol(t1, "r", true, true), NewProbFromCol(t1, "s", false, true),
		NewProbFromCol(t1, "s", true, false), NewProbFromCol(t2, "s", true, true),
		NewNormalize(t1, k, NormMax), NewNormalize(t1, j, NormMax), NewNormalize(t1, []string{"k", "j"}, NormMax),
		NewNormalize(t1, nil, NormMax), NewNormalize(t1, k, NormSum), NewNormalize(t2, k, NormMax),
		NewRowNumber(t1, "id"), NewRowNumber(t1, "n"), NewRowNumber(t2, "id"),
		NewTokenize(t1, "x", "y", text.Default(), false), NewTokenize(t1, "z", "y", text.Default(), false),
		NewTokenize(t1, "x", "z", text.Default(), false), NewTokenize(t1, "x", "y", text.Tokenizer{}, false),
		NewTokenize(t1, "x", "y", text.Default(), true), NewTokenize(t2, "x", "y", text.Default(), false),
		NewTokenize(t1, "x", "y", stop("toy"), false), NewTokenize(t1, "x", "y", stop("car"), false),
	}
	for _, e := range []expr.Expr{
		x, y, expr.Prob{}, expr.Param{Name: "x"}, expr.Param{Name: "y"},
		expr.Int(1), expr.Int(2), expr.Float(1), expr.Str("1"), expr.Str("x"), expr.BoolLit(true), expr.BoolLit(false),
		expr.Cmp{Op: expr.Eq, L: x, R: y}, expr.Cmp{Op: expr.Lt, L: x, R: y}, expr.Cmp{Op: expr.Eq, L: y, R: x},
		expr.And{L: x, R: y}, expr.And{L: y, R: x}, expr.Or{L: x, R: y}, expr.Not{E: x}, expr.Not{E: y},
		expr.Arith{Op: expr.Add, L: x, R: y}, expr.Arith{Op: expr.Mul, L: x, R: y}, expr.Arith{Op: expr.Add, L: y, R: x},
		expr.NewCall("log", x), expr.NewCall("exp", x), expr.NewCall("log", y), expr.NewCall("greatest", x, y),
	} {
		plans = append(plans, NewSelect(t1, e))
	}
	seen := map[string]int{}
	for i, n := range plans {
		d := n.Fingerprint()
		if len(d) != digestLen {
			t.Fatalf("plan %d (%T): digest has %d bytes", i, n, len(d))
		}
		if prev, dup := seen[d]; dup {
			t.Errorf("plans %d and %d share a digest:\n%s\n%s", prev, i, Explain(plans[prev]), Explain(n))
		}
		seen[d] = i
	}
	// Calls resolve function names case-insensitively, so names hash
	// case-folded; Materialize has no identity of its own.
	if NewSelect(t1, expr.NewCall("LOG", x)).Fingerprint() != NewSelect(t1, expr.NewCall("log", x)).Fingerprint() {
		t.Error("the case of a function name changed the digest")
	}
	if NewMaterialize(NewSelect(t1, p)).Fingerprint() != NewSelect(t1, p).Fingerprint() {
		t.Error("Materialize's digest differs from its child's")
	}
	// An empty output list means all columns, as nil does.
	if newHashJoin(t1, t2, k, k, JoinLeft, []JoinCol{}).Fingerprint() != NewHashJoin(t1, t2, k, k, JoinLeft).Fingerprint() {
		t.Error("an empty join output list changed the digest")
	}
}

// TestGoldenDigest pins the digest across processes and platforms: a
// fixed plan has a fixed digest. It changes only when the hash or a
// constructor's inputs change, which re-keys every cache entry.
func TestGoldenDigest(t *testing.T) {
	plan := NewTopN(NewSelect(
		NewHashJoin(NewScan("l"), NewMaterialize(NewScan("r")), []string{"k"}, []string{"k"}, JoinLeft),
		expr.Cmp{Op: expr.Gt, L: expr.Column("v"), R: expr.Float(0.5)}), 10, SortSpec{Desc: true})
	const want = "b9c0c521b8db9856762b394c72b74aac"
	if got := hex.EncodeToString([]byte(plan.Fingerprint())); got != want {
		t.Errorf("digest = %s, want %s", got, want)
	}
}

// TestScanSets: a node stores the sorted union of the base tables below
// it. A subtree without scans depends on no table: its set is empty, not
// nil, which the cache would read as "unknown".
func TestScanSets(t *testing.T) {
	rel := relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build()
	a, b := NewScan("a"), NewScan("b")
	for _, tc := range []struct {
		plan Node
		want []string
	}{
		{NewValues("v", rel), []string{}},
		{b, []string{"b"}},
		{NewHashJoin(b, NewMaterialize(a), []string{"x"}, []string{"x"}, JoinLeft), []string{"a", "b"}},
		{NewUnion(NewUnion(b, a), NewUnion(NewValues("v", rel), b)), []string{"a", "b"}},
		{NewUnion(NewSelect(b, expr.BoolLit(true)), b), []string{"b"}},
	} {
		if got := tc.plan.identity().scans; got == nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("scans = %#v, want %q for\n%s", got, tc.want, Explain(tc.plan))
		}
	}
}

// TestLiteralNodeRefused: a node assembled as a struct literal has no
// digest. Exec refuses to cache under it and a parent constructor panics,
// where a zero digest would make every such node share one cache entry.
func TestLiteralNodeRefused(t *testing.T) {
	ctx := NewCtx(catalog.New(0))
	if _, err := ctx.Exec(context.Background(), &Materialize{Child: &Scan{Table: "t"}}); err == nil || !strings.Contains(err.Error(), "constructor") {
		t.Errorf("Exec of a literal node: err = %v, want a constructor error", err)
	}
	defer func() {
		if recover() == nil {
			t.Error("NewLimit accepted a literal child")
		}
	}()
	NewLimit(&Scan{Table: "t"}, 1)
}

// assertFresh fails unless every node of plan holds the identity its
// constructor computes from the node's current fields and children: the
// guard against a node copied and then modified.
func assertFresh(t *testing.T, plan Node) {
	t.Helper()
	fresh := rebuild(plan, plan.Children())
	switch x := plan.(type) {
	case *Scan:
		fresh = NewScan(x.Table)
	case *Values:
		fresh = NewValues(x.ID, x.Rel)
	}
	if fresh.Fingerprint() != plan.Fingerprint() || !reflect.DeepEqual(fresh.identity().scans, plan.identity().scans) {
		t.Errorf("%T holds a stale identity:\n%s", plan, Explain(plan))
	}
	for _, c := range plan.Children() {
		assertFresh(t, c)
	}
}

// digestLedger checks digests against planKey renderings: distinct plans
// must get distinct digests, and equal plans equal ones.
type digestLedger struct{ byDigest, byKey map[string]string }

func newDigestLedger() *digestLedger {
	return &digestLedger{byDigest: map[string]string{}, byKey: map[string]string{}}
}

// add records plan and every sub-plan of it.
func (l *digestLedger) add(t *testing.T, plan Node) {
	t.Helper()
	d, k := plan.Fingerprint(), planKey(plan)
	if prev, ok := l.byDigest[d]; ok && prev != k {
		t.Fatalf("two plans share digest %x:\n%s\n%s", d, prev, k)
	}
	if prev, ok := l.byKey[k]; ok && prev != d {
		t.Fatalf("one plan has digests %x and %x:\n%s", prev, d, k)
	}
	l.byDigest[d], l.byKey[k] = k, d
	for _, c := range plan.Children() {
		l.add(t, c)
	}
}

var (
	nodeType  = reflect.TypeOf((*Node)(nil)).Elem()
	nodesType = reflect.TypeOf([]Node(nil))
	relType   = reflect.TypeOf((*relation.Relation)(nil))
)

// planKey renders a plan from its exported fields, independently of the
// digest code. Values relations are left out (a Values node is identified
// by its ID) and Materialize is transparent, as both are to the digest.
func planKey(n Node) string {
	if m, ok := n.(*Materialize); ok {
		return planKey(m.Child)
	}
	v := reflect.ValueOf(n).Elem()
	var b strings.Builder
	b.WriteString(v.Type().Name())
	for i := 0; i < v.NumField(); i++ {
		f, fv := v.Type().Field(i), v.Field(i)
		switch {
		case !f.IsExported() || f.Type == nodeType || f.Type == nodesType || f.Type == relType:
		case fv.Kind() == reflect.Slice && fv.Len() == 0:
			fmt.Fprintf(&b, " %s=[]", f.Name)
		default:
			fmt.Fprintf(&b, " %s=%#v", f.Name, fv.Interface())
		}
	}
	b.WriteString("(")
	for _, c := range n.Children() {
		b.WriteString(planKey(c) + ";")
	}
	return b.String() + ")"
}
