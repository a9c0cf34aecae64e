package engine

import (
	"context"
	"testing"

	"irdb/internal/catalog"
	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/text"
	"irdb/internal/vector"
)

// All node types must provide consistent plumbing: a non-empty Label, a
// 16-byte digest distinct from every other node's and from its children's,
// and Children matching the constructor inputs.
func TestNodePlumbing(t *testing.T) {
	scan := NewScan("t")
	scan2 := NewScan("u")
	pred := expr.Cmp{Op: expr.Eq, L: expr.Column("x"), R: expr.Int(1)}
	vals := NewValues("v1", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Build())

	nodes := []Node{
		scan,
		vals,
		NewMaterialize(scan),
		NewLimit(scan, 3),
		NewSelect(scan, pred),
		NewProject(scan, ProjCol{Name: "x", E: expr.Column("x")}),
		NewHashJoin(scan, scan2, []string{"x"}, []string{"x"}, JoinIndependent),
		NewHashJoin(scan, scan2, []string{"x"}, []string{"x"}, JoinLeft),
		NewAggregate(scan, []string{"x"}, []AggSpec{{Op: CountAll, As: "n"}}, GroupDisjoint),
		NewDistinct(scan, GroupMax),
		NewUnion(scan, scan2),
		NewSubtract(scan, scan2, true),
		NewSort(scan, SortSpec{Col: "x", Desc: true}),
		NewTopN(scan, 5, SortSpec{Col: ""}),
		NewScaleProb(scan, 0.5),
		NewProbFromCol(scan, "s", true, true),
		NewNormalize(scan, []string{"x"}, NormMax),
		NewRowNumber(scan, "id"),
		NewTokenize(scan, "x", "y", text.Default(), false),
	}
	seen := map[string]bool{}
	for _, n := range nodes {
		if n.Label() == "" {
			t.Errorf("%T: empty label", n)
		}
		fp := n.Fingerprint()
		if len(fp) != digestLen {
			t.Errorf("%T: digest has %d bytes", n, len(fp))
		}
		if _, isMat := n.(*Materialize); isMat {
			continue // Materialize takes its child's digest by design
		}
		if seen[fp] {
			t.Errorf("%T: digest %x collides with another node", n, fp)
		}
		seen[fp] = true
		for _, c := range n.Children() {
			if c.Fingerprint() == fp {
				t.Errorf("%T: digest equals its child's", n)
			}
		}
	}
	// Materialize must share its child's digest (cache-table reuse across
	// plans).
	if NewMaterialize(scan).Fingerprint() != scan.Fingerprint() {
		t.Error("Materialize digest differs from child")
	}
}

func TestJoinProbAndGroupProbStrings(t *testing.T) {
	for _, s := range []string{
		JoinIndependent.String(), JoinLeft.String(),
		GroupCertain.String(), GroupDisjoint.String(), GroupIndependent.String(),
		GroupMax.String(), GroupSumRaw.String(),
		NormSum.String(), NormMax.String(),
	} {
		if s == "" || s == "?" {
			t.Errorf("enum string = %q", s)
		}
	}
	for _, op := range []AggOp{CountAll, Count, Sum, Avg, Min, Max, SumProb, MaxProb} {
		if op.String() == "?" {
			t.Errorf("AggOp %d has no name", op)
		}
	}
}

func TestErrorPaths(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.String}).Add("a").Build())
	ctx := NewCtx(cat)

	// Project over a missing column
	if _, err := ctx.Exec(context.Background(), NewProject(NewScan("t"), ProjCol{Name: "y", E: expr.Column("missing")})); err == nil {
		t.Error("Project over missing column should fail")
	}
	// Project with failing expression
	if _, err := ctx.Exec(context.Background(), NewProject(NewScan("t"), ProjCol{Name: "y", E: expr.NewCall("log", expr.Column("x"))})); err == nil {
		t.Error("Project log(string) should fail")
	}
	// Aggregate over missing group column
	if _, err := ctx.Exec(context.Background(), NewAggregate(NewScan("t"), []string{"nope"}, nil, GroupCertain)); err == nil {
		t.Error("Aggregate over missing column should fail")
	}
	// Aggregate sum over string column
	if _, err := ctx.Exec(context.Background(), NewAggregate(NewScan("t"), nil,
		[]AggSpec{{Op: Sum, Col: "x", As: "s"}}, GroupCertain)); err == nil {
		t.Error("Sum over string should fail")
	}
	// Aggregate with neither groups nor aggregates
	if _, err := ctx.Exec(context.Background(), NewAggregate(NewScan("t"), nil, nil, GroupCertain)); err == nil {
		t.Error("degenerate aggregate should fail")
	}
	// ProbFromCol over string column
	if _, err := ctx.Exec(context.Background(), NewProbFromCol(NewScan("t"), "x", false, false)); err == nil {
		t.Error("ProbFromCol over string should fail")
	}
	// ProbFromCol over missing column
	if _, err := ctx.Exec(context.Background(), NewProbFromCol(NewScan("t"), "nope", false, false)); err == nil {
		t.Error("ProbFromCol over missing column should fail")
	}
	// Subtract with right side missing the left's columns
	cat.Put("u", relation.NewBuilder([]string{"y"}, []vector.Kind{vector.String}).Build())
	if _, err := ctx.Exec(context.Background(), NewSubtract(NewScan("t"), NewScan("u"), false)); err == nil {
		t.Error("Subtract with mismatched schema should fail")
	}
	// Exec without catalog
	bare := &Ctx{}
	if _, err := bare.Exec(context.Background(), NewScan("t")); err == nil {
		t.Error("Scan without catalog should fail")
	}
	// Tokenize with missing columns
	if _, err := ctx.Exec(context.Background(), NewTokenize(NewScan("t"), "nope", "x", text.Default(), false)); err == nil {
		t.Error("Tokenize missing id column should fail")
	}
	if _, err := ctx.Exec(context.Background(), NewTokenize(NewScan("t"), "x", "nope", text.Default(), false)); err == nil {
		t.Error("Tokenize missing data column should fail")
	}
	// TopN with bad sort column
	if _, err := ctx.Exec(context.Background(), NewTopN(NewScan("t"), 1, SortSpec{Col: "nope"})); err == nil {
		t.Error("TopN on missing column should fail")
	}
}

func TestAggregateMinMaxAndCountCol(t *testing.T) {
	cat := catalog.New(0)
	cat.Put("t", relation.NewBuilder([]string{"k", "v"}, []vector.Kind{vector.String, vector.Float64}).
		Add("a", 2.5).Add("a", 1.5).Add("b", 9.0).Build())
	ctx := NewCtx(cat)
	r, err := ctx.Exec(context.Background(), NewAggregate(NewScan("t"), []string{"k"}, []AggSpec{
		{Op: Count, Col: "v", As: "n"},
		{Op: Min, Col: "v", As: "lo"},
		{Op: Max, Col: "v", As: "hi"},
		{Op: Sum, Col: "v", As: "s"},
	}, GroupCertain))
	if err != nil {
		t.Fatal(err)
	}
	if r.Col(1).Vec.(*vector.Int64s).Values()[0] != 2 {
		t.Errorf("count = %s", r.Format(-1))
	}
	if r.Col(2).Vec.(*vector.Float64s).Values()[0] != 1.5 || r.Col(3).Vec.(*vector.Float64s).Values()[0] != 2.5 {
		t.Errorf("min/max = %s", r.Format(-1))
	}
	// float sums stay float
	if r.Col(4).Vec.Kind() != vector.Float64 {
		t.Error("float sum kind lost")
	}
}
