package expr

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func testRel() *relation.Relation {
	return relation.NewBuilder(
		[]string{"term", "tf", "idf"},
		[]vector.Kind{vector.String, vector.Int64, vector.Float64},
	).
		Add("book", 3, 1.5).
		Add("cake", 1, 2.0).
		AddP(0.5, "history", 2, 0.5).
		Build()
}

func evalOK(t *testing.T, e Expr, r *relation.Relation) vector.Vector {
	t.Helper()
	v, err := e.Eval(r)
	if err != nil {
		t.Fatalf("eval %s: %v", e.String(), err)
	}
	return v
}

func TestColumnRefs(t *testing.T) {
	r := testRel()
	v := evalOK(t, Column("term"), r)
	if v.(*vector.Strings).Values()[0] != "book" {
		t.Error("Column eval wrong")
	}
	if _, err := Column("missing").Eval(r); err == nil {
		t.Error("missing column should fail")
	}
	// $n is parse tree only: evaluating one is an error even in range.
	if _, err := ColumnAt(2).Eval(r); err == nil || !strings.Contains(err.Error(), "unresolved $2") {
		t.Errorf("eval $2: err = %v, want an unresolved-position error", err)
	}
	if ColumnAt(2).String() != "$2" {
		t.Errorf("String = %q", ColumnAt(2).String())
	}
}

func TestProbExpr(t *testing.T) {
	r := testRel()
	v := evalOK(t, Prob{}, r).(*vector.Float64s)
	if v.Values()[2] != 0.5 || v.Values()[0] != 1.0 {
		t.Errorf("Prob eval = %v", v.Values())
	}
}

func TestLiterals(t *testing.T) {
	// Literals evaluate to vector.Const — a scalar plus a length — and
	// materialize to the dense column they used to produce directly.
	r := testRel()
	cv := evalOK(t, Int(7), r).(*vector.Const)
	if v := cv.Materialize().(*vector.Int64s); cv.Len() != 3 || v.Values()[1] != 7 {
		t.Error("Int literal wrong")
	}
	if v := evalOK(t, Float(0.5), r).(*vector.Const).Materialize().(*vector.Float64s); v.Values()[0] != 0.5 {
		t.Error("Float literal wrong")
	}
	if v := evalOK(t, Str("x"), r).(*vector.Const).Materialize().(*vector.Strings); v.Values()[2] != "x" {
		t.Error("Str literal wrong")
	}
	if v := evalOK(t, BoolLit(true), r).(*vector.Const).Materialize().(*vector.Bools); !v.Values()[0] {
		t.Error("Bool literal wrong")
	}
	if Str(`a"b`).String() != `"a\"b"` {
		t.Errorf("Str quoting = %s", Str(`a"b`).String())
	}
	if _, err := (Lit{Value: []int{1}}).Eval(r); err == nil {
		t.Error("unsupported literal type should fail")
	}
}

func TestComparisons(t *testing.T) {
	r := testRel()
	cases := []struct {
		e    Expr
		want []bool
	}{
		{Cmp{Op: Eq, L: Column("term"), R: Str("cake")}, []bool{false, true, false}},
		{Cmp{Op: Ne, L: Column("term"), R: Str("cake")}, []bool{true, false, true}},
		{Cmp{Op: Lt, L: Column("term"), R: Str("cake")}, []bool{true, false, false}},
		{Cmp{Op: Gt, L: Column("tf"), R: Int(1)}, []bool{true, false, true}},
		{Cmp{Op: Ge, L: Column("tf"), R: Int(2)}, []bool{true, false, true}},
		{Cmp{Op: Le, L: Column("idf"), R: Float(1.5)}, []bool{true, false, true}},
		// mixed int/float coercion
		{Cmp{Op: Lt, L: Column("tf"), R: Column("idf")}, []bool{false, true, false}},
	}
	for _, c := range cases {
		got := evalOK(t, c.e, r).(*vector.Bools).Values()
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("%s = %v, want %v", c.e.String(), got, c.want)
				break
			}
		}
	}
	if _, err := (Cmp{Op: Lt, L: Column("term"), R: Int(1)}).Eval(r); err == nil {
		t.Error("string vs int comparison should fail")
	}
}

func TestBoolConnectives(t *testing.T) {
	r := testRel()
	tfGt1 := Cmp{Op: Gt, L: Column("tf"), R: Int(1)}
	isBook := Cmp{Op: Eq, L: Column("term"), R: Str("book")}
	and := evalOK(t, And{L: tfGt1, R: isBook}, r).(*vector.Bools).Values()
	if !and[0] || and[1] || and[2] {
		t.Errorf("and = %v", and)
	}
	or := evalOK(t, Or{L: tfGt1, R: isBook}, r).(*vector.Bools).Values()
	if !or[0] || or[1] || !or[2] {
		t.Errorf("or = %v", or)
	}
	not := evalOK(t, Not{E: isBook}, r).(*vector.Bools).Values()
	if not[0] || !not[1] {
		t.Errorf("not = %v", not)
	}
	if _, err := (And{L: Column("tf"), R: isBook}).Eval(r); err == nil {
		t.Error("and over non-boolean should fail")
	}
	if _, err := (Not{E: Column("tf")}).Eval(r); err == nil {
		t.Error("not over non-boolean should fail")
	}
}

func TestArithmetic(t *testing.T) {
	r := testRel()
	sum := evalOK(t, Arith{Op: Add, L: Column("tf"), R: Int(1)}, r).(*vector.Int64s)
	if sum.Values()[0] != 4 {
		t.Errorf("tf+1 = %d", sum.Values()[0])
	}
	prod := evalOK(t, Arith{Op: Mul, L: Column("tf"), R: Column("idf")}, r).(*vector.Float64s)
	if math.Abs(prod.Values()[0]-4.5) > 1e-12 {
		t.Errorf("tf*idf = %g", prod.Values()[0])
	}
	div := evalOK(t, Arith{Op: Div, L: Column("tf"), R: Int(2)}, r).(*vector.Float64s)
	if div.Values()[0] != 1.5 {
		t.Errorf("tf/2 = %g (division must be float)", div.Values()[0])
	}
	diff := evalOK(t, Arith{Op: Sub, L: Column("tf"), R: Column("tf")}, r).(*vector.Int64s)
	if diff.Values()[1] != 0 {
		t.Errorf("tf-tf = %d", diff.Values()[1])
	}
	if _, err := (Arith{Op: Add, L: Column("term"), R: Int(1)}).Eval(r); err == nil {
		t.Error("arith over string should fail")
	}
}

func TestCallBuiltins(t *testing.T) {
	r := relation.NewBuilder([]string{"s", "x"}, []vector.Kind{vector.String, vector.Float64}).
		Add("Book", 4.0).Build()
	if v := evalOK(t, NewCall("lcase", Column("s")), r).(*vector.Strings); v.Values()[0] != "book" {
		t.Errorf("lcase = %q", v.Values()[0])
	}
	if v := evalOK(t, NewCall("ucase", Column("s")), r).(*vector.Strings); v.Values()[0] != "BOOK" {
		t.Errorf("ucase = %q", v.Values()[0])
	}
	if v := evalOK(t, NewCall("length", Column("s")), r).(*vector.Int64s); v.Values()[0] != 4 {
		t.Errorf("length = %d", v.Values()[0])
	}
	if v := evalOK(t, NewCall("log", Column("x")), r).(*vector.Float64s); math.Abs(v.Values()[0]-math.Log(4)) > 1e-12 {
		t.Errorf("log = %g", v.Values()[0])
	}
	if v := evalOK(t, NewCall("sqrt", Column("x")), r).(*vector.Float64s); v.Values()[0] != 2 {
		t.Errorf("sqrt = %g", v.Values()[0])
	}
	if v := evalOK(t, NewCall("greatest", Column("x"), Float(9)), r).(*vector.Float64s); v.Values()[0] != 9 {
		t.Errorf("greatest = %g", v.Values()[0])
	}
	if v := evalOK(t, NewCall("least", Column("x"), Float(9)), r).(*vector.Float64s); v.Values()[0] != 4 {
		t.Errorf("least = %g", v.Values()[0])
	}
	if _, err := NewCall("no-such-fn", Column("s")).Eval(r); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := NewCall("lcase", Column("x")).Eval(r); err == nil {
		t.Error("lcase over float should fail")
	}
	if _, err := NewCall("lcase").Eval(r); err == nil {
		t.Error("lcase with no args should fail")
	}
	if _, err := NewCall("log", Column("s")).Eval(r); err == nil {
		t.Error("log over string should fail")
	}
}

func TestRegisterAndLookupFunc(t *testing.T) {
	RegisterFunc(Func{Name: "TestFn", Eval: func(args []vector.Vector, n int) (vector.Vector, error) {
		return vector.FromInt64s(make([]int64, n)), nil
	}})
	if _, ok := LookupFunc("testfn"); !ok {
		t.Error("lookup is not case-insensitive")
	}
}

func TestCanonicalStrings(t *testing.T) {
	e := And{
		L: Cmp{Op: Eq, L: ColumnAt(2), R: Str("category")},
		R: Cmp{Op: Eq, L: ColumnAt(3), R: Str("toy")},
	}
	want := `(($2 = "category") and ($3 = "toy"))`
	if e.String() != want {
		t.Errorf("String = %s, want %s", e.String(), want)
	}
	c := NewCall("stem", NewCall("lcase", Column("token")), Str("sb-english"))
	if !strings.Contains(c.String(), `stem(lcase(token),"sb-english")`) {
		t.Errorf("call String = %s", c.String())
	}
}

// Property: comparison results agree with Go's comparison on random ints.
func TestCmpProperty(t *testing.T) {
	f := func(a, b int64) bool {
		r := relation.NewBuilder([]string{"a", "b"}, []vector.Kind{vector.Int64, vector.Int64}).
			Add(a, b).Build()
		for _, c := range []struct {
			op   CmpOp
			want bool
		}{
			{Eq, a == b}, {Ne, a != b}, {Lt, a < b}, {Le, a <= b}, {Gt, a > b}, {Ge, a >= b},
		} {
			v, err := (Cmp{Op: c.op, L: Column("a"), R: Column("b")}).Eval(r)
			if err != nil || v.(*vector.Bools).Values()[0] != c.want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
