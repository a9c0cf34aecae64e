package expr

import (
	"hash/maphash"
	"strings"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// constRefRel builds a relation with one column per kind, values chosen
// to exercise <, =, > against the literals below.
func constRefRel() *relation.Relation {
	return relation.MustFromColumns([]relation.Column{
		{Name: "i", Vec: vector.FromInt64s([]int64{-3, 0, 7, 7, 100})},
		{Name: "f", Vec: vector.FromFloat64s([]float64{-0.5, 0, 7, 7.5, 100})},
		{Name: "s", Vec: vector.FromStrings([]string{"a", "m", "m", "z", ""})},
		{Name: "b", Vec: vector.FromBools([]bool{true, false, true, false, true})},
		{Name: "d", Vec: vector.EncodeStrings(vector.FromStrings([]string{"a", "m", "m", "z", ""}))},
	}, nil)
}

// TestCmpConstMatchesMaterialized: every comparison against a literal
// (the vector.Const scalar fast path) produces exactly the booleans the
// generic loops produce over the materialized constant column.
func TestCmpConstMatchesMaterialized(t *testing.T) {
	r := constRefRel()
	ops := []CmpOp{Eq, Ne, Lt, Le, Gt, Ge}
	cases := []struct {
		name string
		col  Expr
		lit  Lit
	}{
		{"int-int", Column("i"), Int(7)},
		{"int-float", Column("i"), Float(6.5)},
		{"float-int", Column("f"), Int(7)},
		{"float-float", Column("f"), Float(7.0)},
		{"str-str", Column("s"), Str("m")},
		{"dict-str", Column("d"), Str("m")},
		{"dict-absent", Column("d"), Str("not-there")},
	}
	for _, tc := range cases {
		for _, op := range ops {
			// Fast path: literal operand evaluates to a Const.
			fast, err := Cmp{Op: op, L: tc.col, R: tc.lit}.Eval(r)
			if err != nil {
				t.Fatalf("%s %v: %v", tc.name, op, err)
			}
			// Reference: the same comparison with the constant column
			// materialized up front (what Lit.Eval used to produce).
			lv, _ := tc.col.Eval(r)
			mat, _ := tc.lit.Eval(r)
			ref := referenceCmp(t, op, vector.MaterializeConst(lv), vector.MaterializeConst(mat))
			got := fast.(*vector.Bools).Values()
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s %v row %d: fast=%v ref=%v", tc.name, op, i, got[i], ref[i])
				}
			}
			// Flipped orientation (literal on the left).
			flip, err := Cmp{Op: op, L: tc.lit, R: tc.col}.Eval(r)
			if err != nil {
				t.Fatalf("flipped %s %v: %v", tc.name, op, err)
			}
			refFlip := referenceCmp(t, op, vector.MaterializeConst(mat), vector.MaterializeConst(lv))
			gotFlip := flip.(*vector.Bools).Values()
			for i := range refFlip {
				if gotFlip[i] != refFlip[i] {
					t.Fatalf("flipped %s %v row %d: fast=%v ref=%v", tc.name, op, i, gotFlip[i], refFlip[i])
				}
			}
		}
	}
}

// referenceCmp runs the generic comparison loops over two dense vectors
// by wrapping them as columns of a scratch relation.
func referenceCmp(t *testing.T, op CmpOp, l, r vector.Vector) []bool {
	t.Helper()
	scratch := relation.MustFromColumns([]relation.Column{
		{Name: "l", Vec: l}, {Name: "r", Vec: r},
	}, nil)
	v, err := (Cmp{Op: op, L: Column("l"), R: Column("r")}).Eval(scratch)
	if err != nil {
		t.Fatalf("reference cmp: %v", err)
	}
	return v.(*vector.Bools).Values()
}

// TestCmpConstConst: comparisons between two literals fold to a single
// scalar comparison filling every row.
func TestCmpConstConst(t *testing.T) {
	r := constRefRel()
	v, err := Cmp{Op: Lt, L: Int(3), R: Int(4)}.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range v.(*vector.Bools).Values() {
		if !b {
			t.Fatalf("row %d: 3 < 4 = false", i)
		}
	}
	if _, err := (Cmp{Op: Lt, L: BoolLit(true), R: BoolLit(false)}).Eval(r); err == nil {
		t.Fatal("ordering booleans must error")
	}
}

// TestArithConstFolding: arithmetic over literals yields a Const; mixed
// dense/const arithmetic matches the fully materialized computation.
func TestArithConstFolding(t *testing.T) {
	r := constRefRel()
	v, err := Arith{Op: Mul, L: Int(6), R: Int(7)}.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	cv, ok := v.(*vector.Const)
	if !ok || cv.Int64Value() != 42 || cv.Len() != r.NumRows() {
		t.Fatalf("6*7 = %#v", v)
	}
	// 2*3 stays scalar into the enclosing comparison.
	sel, err := Cmp{Op: Ge, L: Column("i"), R: Arith{Op: Mul, L: Int(2), R: Int(3)}}.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, true, true}
	for i, b := range sel.(*vector.Bools).Values() {
		if b != want[i] {
			t.Fatalf("i >= 2*3 row %d = %v", i, b)
		}
	}
	// Const op column.
	sum, err := Arith{Op: Add, L: Float(1.5), R: Column("f")}.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	got := sum.(*vector.Float64s).Values()
	fv := []float64{-0.5, 0, 7, 7.5, 100}
	for i := range got {
		if got[i] != 1.5+fv[i] {
			t.Fatalf("1.5+f row %d = %v", i, got[i])
		}
	}
}

// TestConstHashMatchesMaterialized: a Const column hashes every row to
// exactly the hash of the materialized column, so a Const leaking into a
// hash-keyed operator could never change results.
func TestConstHashMatchesMaterialized(t *testing.T) {
	for _, v := range []vector.Vector{
		vector.ConstInt64(42, 5),
		vector.ConstFloat64(0.5, 5),
		vector.ConstString("x", 5),
		vector.ConstBool(true, 5),
	} {
		seed := maphash.MakeSeed()
		a := make([]uint64, v.Len())
		b := make([]uint64, v.Len())
		v.HashRangeInto(seed, a, 0, len(a))
		v.(*vector.Const).Materialize().HashRangeInto(seed, b, 0, len(b))
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("kind %v row %d: const hash %x != materialized %x", v.Kind(), i, a[i], b[i])
			}
		}
	}
}

// TestParamEvalAndBind: unbound parameters refuse to evaluate, Bind
// substitutes them, and param-free subexpressions are returned untouched.
func TestParamEvalAndBind(t *testing.T) {
	r := constRefRel()
	p := Param{Name: "x"}
	if _, err := p.Eval(r); err == nil || !strings.Contains(err.Error(), "unbound parameter ?x") {
		t.Fatalf("unbound eval err = %v", err)
	}
	if p.String() != "?x" {
		t.Fatalf("String = %q", p.String())
	}

	free := Cmp{Op: Eq, L: Column("s"), R: Str("m")}
	withParam := And{L: free, R: Cmp{Op: Gt, L: Column("i"), R: Param{Name: "min"}}}
	bound, changed, err := Bind(withParam, func(name string) (Lit, bool) {
		if name == "min" {
			return Int(0), true
		}
		return Lit{}, false
	})
	if err != nil || !changed {
		t.Fatalf("Bind: changed=%v err=%v", changed, err)
	}
	// The param-free left side is shared, not copied.
	if bound.(And).L.(Cmp) != free {
		t.Fatal("param-free subexpression was copied by Bind")
	}
	v, err := bound.Eval(r)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, false, true, false, false}
	for i, b := range v.(*vector.Bools).Values() {
		if b != want[i] {
			t.Fatalf("bound eval row %d = %v", i, b)
		}
	}
	// Missing binding errors.
	if _, _, err := Bind(withParam, func(string) (Lit, bool) { return Lit{}, false }); err == nil {
		t.Fatal("Bind with missing binding must error")
	}
	// Params collection.
	names := Params(withParam, nil)
	if len(names) != 1 || names[0] != "min" {
		t.Fatalf("Params = %v", names)
	}
}
