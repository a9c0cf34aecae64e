// Package expr implements vectorized scalar expressions evaluated against
// whole relations, one column at a time. Expressions appear in selection
// predicates and projection lists of the engine, mirroring the scalar
// expressions of the paper's SQL examples (lcase, stem, log, arithmetic on
// term frequencies, ...).
//
// Every expression has a canonical String form for EXPLAIN output and
// error messages; plan digests hash expressions structurally instead.
package expr

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Expr is a vectorized scalar expression: evaluated against a relation it
// yields one value per row.
type Expr interface {
	// Eval computes the expression over all rows of r.
	Eval(r *relation.Relation) (vector.Vector, error)
	// String returns the canonical, parseable-looking rendering used in
	// EXPLAIN output and error messages.
	String() string
}

// ---------------------------------------------------------------------------
// Column references

// Col references a column by name.
type Col struct{ Name string }

// Column returns a reference to the named column.
func Column(name string) Col { return Col{Name: name} }

// Eval implements Expr.
func (c Col) Eval(r *relation.Relation) (vector.Vector, error) {
	col, err := r.ColByName(c.Name)
	if err != nil {
		return nil, err
	}
	return col.Vec, nil
}

// String implements Expr.
func (c Col) String() string { return c.Name }

// ColIdx is SpinQL's $n (section 2.3 of the paper): the 1-based position
// of a column in the parse tree. It is never evaluated — package pra
// resolves every $n to the Col it names when it lowers a plan onto the
// engine, so the engine addresses columns by name only.
type ColIdx struct{ Idx int }

// ColumnAt returns the parse-tree reference to the 1-based idx-th column.
func ColumnAt(idx int) ColIdx { return ColIdx{Idx: idx} }

// Eval implements Expr: an unresolved position is an error, so a $n can
// never address a column at execution.
func (c ColIdx) Eval(*relation.Relation) (vector.Vector, error) {
	return nil, fmt.Errorf("expr: unresolved $%d: positions resolve to names before execution", c.Idx)
}

// String implements Expr.
func (c ColIdx) String() string { return "$" + strconv.Itoa(c.Idx) }

// Prob references the tuple-probability column as a float expression,
// letting retrieval models read scores computed upstream.
type Prob struct{}

// Eval implements Expr.
func (Prob) Eval(r *relation.Relation) (vector.Vector, error) {
	p := r.Prob()
	out := make([]float64, len(p))
	copy(out, p)
	return vector.FromFloat64s(out), nil
}

// String implements Expr.
func (Prob) String() string { return "PROB()" }

// ---------------------------------------------------------------------------
// Literals

// Lit is a constant. Value must be int64, float64, string or bool.
type Lit struct{ Value any }

// Int returns an integer literal.
func Int(x int64) Lit { return Lit{Value: x} }

// Float returns a float literal.
func Float(x float64) Lit { return Lit{Value: x} }

// Str returns a string literal.
func Str(s string) Lit { return Lit{Value: s} }

// BoolLit returns a boolean literal.
func BoolLit(b bool) Lit { return Lit{Value: b} }

// Eval implements Expr. The result is a vector.Const — a scalar plus a
// length, never a materialized column — so evaluating a literal costs a
// few words however many rows the input has. Consumers inside this
// package read the scalar directly; results escaping the evaluator are
// materialized at the boundary (see Call.Eval and the engine's
// projection operators).
func (l Lit) Eval(r *relation.Relation) (vector.Vector, error) {
	n := r.NumRows()
	switch x := l.Value.(type) {
	case int64:
		return vector.ConstInt64(x, n), nil
	case float64:
		return vector.ConstFloat64(x, n), nil
	case string:
		return vector.ConstString(x, n), nil
	case bool:
		return vector.ConstBool(x, n), nil
	default:
		return nil, fmt.Errorf("expr: unsupported literal type %T", l.Value)
	}
}

// String implements Expr.
func (l Lit) String() string {
	switch x := l.Value.(type) {
	case string:
		return strconv.Quote(x)
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		return strconv.FormatBool(x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// ---------------------------------------------------------------------------
// Comparisons

// CmpOp is a comparison operator.
type CmpOp int

// Comparison operators.
const (
	Eq CmpOp = iota
	Ne
	Lt
	Le
	Gt
	Ge
)

func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Ne:
		return "!="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Cmp compares two expressions, producing booleans. Mixed int/float
// operands are coerced to float; any other kind mismatch is an error.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (c Cmp) Eval(r *relation.Relation) (vector.Vector, error) {
	lv, err := c.L.Eval(r)
	if err != nil {
		return nil, err
	}
	// Equality of a dict-encoded column against a string literal never
	// needs the literal materialized as a constant column: one dictionary
	// lookup, then an integer scan over the codes.
	if c.Op == Eq || c.Op == Ne {
		if ld, ok := lv.(*vector.DictStrings); ok {
			if s, ok := constantString(c.R); ok {
				out := make([]bool, lv.Len())
				cmpCodesToLit(c.Op, ld, s, out)
				return vector.FromBools(out), nil
			}
		}
	}
	rv, err := c.R.Eval(r)
	if err != nil {
		return nil, err
	}
	n := lv.Len()
	out := make([]bool, n)
	// Scalar fast paths: one side is a constant (vector.Const), so the
	// comparison reads the scalar directly instead of materializing a
	// constant column — the numeric analogue of the dict-literal path
	// above. These also keep Const away from the dense-type assertions
	// below.
	if done, err := cmpConst(c.Op, lv, rv, out); done {
		if err != nil {
			return nil, err
		}
		return vector.FromBools(out), nil
	}
	switch {
	case lv.Kind() == vector.String && rv.Kind() == vector.String:
		if err := cmpStrings(c, lv, rv, out); err != nil {
			return nil, err
		}
	case lv.Kind() == vector.Bool && rv.Kind() == vector.Bool:
		lb, rb := lv.(*vector.Bools).Values(), rv.(*vector.Bools).Values()
		for i := 0; i < n; i++ {
			switch c.Op {
			case Eq:
				out[i] = lb[i] == rb[i]
			case Ne:
				out[i] = lb[i] != rb[i]
			default:
				return nil, fmt.Errorf("expr: %v not defined on booleans", c.Op)
			}
		}
	case lv.Kind() == vector.Int64 && rv.Kind() == vector.Int64:
		li, ri := lv.(*vector.Int64s).Values(), rv.(*vector.Int64s).Values()
		for i := 0; i < n; i++ {
			switch {
			case li[i] < ri[i]:
				out[i] = cmpOrdered(c.Op, -1)
			case li[i] > ri[i]:
				out[i] = cmpOrdered(c.Op, 1)
			default:
				out[i] = cmpOrdered(c.Op, 0)
			}
		}
	default:
		lf, err := toFloats(lv)
		if err != nil {
			return nil, fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rv.Kind())
		}
		rf, err := toFloats(rv)
		if err != nil {
			return nil, fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rv.Kind())
		}
		for i := 0; i < n; i++ {
			switch {
			case lf[i] < rf[i]:
				out[i] = cmpOrdered(c.Op, -1)
			case lf[i] > rf[i]:
				out[i] = cmpOrdered(c.Op, 1)
			default:
				out[i] = cmpOrdered(c.Op, 0)
			}
		}
	}
	return vector.FromBools(out), nil
}

// flipCmp mirrors a comparison operator so `const op x` can run as
// `x flip(op) const`.
func flipCmp(op CmpOp) CmpOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Gt:
		return Lt
	case Ge:
		return Le
	}
	return op // Eq, Ne are symmetric
}

// cmpConst handles every comparison in which at least one operand is a
// vector.Const, reading the scalar directly. It reports whether it
// handled the comparison; when it did, out holds the result (unless an
// error is returned). Results are identical to materializing the constant
// column and running the generic loops.
func cmpConst(op CmpOp, lv, rv vector.Vector, out []bool) (bool, error) {
	lc, lok := lv.(*vector.Const)
	rc, rok := rv.(*vector.Const)
	switch {
	case lok && rok:
		// Both constant: one scalar comparison fills every row.
		res, err := cmpConstConst(op, lc, rc)
		if err != nil {
			return true, err
		}
		for i := range out {
			out[i] = res
		}
		return true, nil
	case rok:
		return true, cmpVecConst(op, lv, rc, out)
	case lok:
		return true, cmpVecConst(flipCmp(op), rv, lc, out)
	}
	return false, nil
}

// cmpConstConst compares two scalars under the same coercion rules the
// column loops use (int/int stays integral, mixed numerics widen to
// float).
func cmpConstConst(op CmpOp, l, r *vector.Const) (bool, error) {
	switch {
	case l.Kind() == vector.Int64 && r.Kind() == vector.Int64:
		a, b := l.Int64Value(), r.Int64Value()
		return cmpOrdered(op, compareOrdered(a, b)), nil
	case isNumericKind(l.Kind()) && isNumericKind(r.Kind()):
		return cmpOrdered(op, compareOrdered(l.Float64Value(), r.Float64Value())), nil
	case l.Kind() == vector.String && r.Kind() == vector.String:
		return cmpOrdered(op, strings.Compare(l.StringValue(), r.StringValue())), nil
	case l.Kind() == vector.Bool && r.Kind() == vector.Bool:
		if op != Eq && op != Ne {
			return false, fmt.Errorf("expr: %v not defined on booleans", op)
		}
		return cmpOrdered(op, boolCmp(l.BoolValue(), r.BoolValue())), nil
	}
	return false, fmt.Errorf("expr: cannot compare %v to %v", l.Kind(), r.Kind())
}

// cmpVecConst compares a column against a scalar constant, element-wise.
func cmpVecConst(op CmpOp, lv vector.Vector, rc *vector.Const, out []bool) error {
	switch x := lv.(type) {
	case *vector.Int64s:
		if rc.Kind() == vector.Int64 {
			k := rc.Int64Value()
			for i, v := range x.Values() {
				out[i] = cmpOrdered(op, compareOrdered(v, k))
			}
			return nil
		}
		if !isNumericKind(rc.Kind()) {
			return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
		}
		k := rc.Float64Value()
		for i, v := range x.Values() {
			out[i] = cmpOrdered(op, compareOrdered(float64(v), k))
		}
		return nil
	case *vector.Float64s:
		if !isNumericKind(rc.Kind()) {
			return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
		}
		k := rc.Float64Value()
		for i, v := range x.Values() {
			out[i] = cmpOrdered(op, compareOrdered(v, k))
		}
		return nil
	case *vector.DictStrings:
		if rc.Kind() != vector.String {
			return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
		}
		if op == Eq || op == Ne {
			cmpCodesToLit(op, x, rc.StringValue(), out)
			return nil
		}
		k := rc.StringValue()
		for i := 0; i < x.Len(); i++ {
			out[i] = cmpOrdered(op, strings.Compare(x.StringAt(i), k))
		}
		return nil
	case *vector.Strings:
		if rc.Kind() != vector.String {
			return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
		}
		k := rc.StringValue()
		for i, v := range x.Values() {
			out[i] = cmpOrdered(op, strings.Compare(v, k))
		}
		return nil
	case *vector.Bools:
		if rc.Kind() != vector.Bool {
			return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
		}
		if op != Eq && op != Ne {
			return fmt.Errorf("expr: %v not defined on booleans", op)
		}
		k := rc.BoolValue()
		for i, v := range x.Values() {
			out[i] = cmpOrdered(op, boolCmp(v, k))
		}
		return nil
	}
	return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rc.Kind())
}

func isNumericKind(k vector.Kind) bool { return k == vector.Int64 || k == vector.Float64 }

// compareOrdered returns -1/0/1 like strings.Compare for ordered scalars.
func compareOrdered[T int64 | float64](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// boolCmp returns 0 when equal, non-zero otherwise (ordering of booleans
// is rejected before this is used).
func boolCmp(a, b bool) int {
	if a == b {
		return 0
	}
	return 1
}

// cmpStrings compares two string columns element-wise, fast paths first:
//
//   - both sides dict-encoded over one shared dict: equality compares
//     codes, ordering compares precomputed lexicographic ranks — pure
//     integer loops, the "compare cheap forever" payoff of encoding once.
//   - one side dict-encoded, the other a constant column (a string
//     literal, the shape of every `property = 'type'` selection): the
//     literal is looked up in the dict once and Eq/Ne compare each row's
//     code against that single code (absent literal → constant false/true).
//   - anything else: byte-wise string comparison through the StringColumn
//     read interface, which works for both representations.
func cmpStrings(c Cmp, lv, rv vector.Vector, out []bool) error {
	n := len(out)
	ld, lDict := lv.(*vector.DictStrings)
	rd, rDict := rv.(*vector.DictStrings)
	if lDict && rDict && ld.Dict() == rd.Dict() {
		lc, rc := ld.Codes(), rd.Codes()
		if c.Op == Eq || c.Op == Ne {
			ne := c.Op == Ne
			for i := 0; i < n; i++ {
				out[i] = (lc[i] == rc[i]) != ne
			}
			return nil
		}
		d := ld.Dict()
		for i := 0; i < n; i++ {
			la, ra := d.Rank(lc[i]), d.Rank(rc[i])
			switch {
			case la < ra:
				out[i] = cmpOrdered(c.Op, -1)
			case la > ra:
				out[i] = cmpOrdered(c.Op, 1)
			default:
				out[i] = cmpOrdered(c.Op, 0)
			}
		}
		return nil
	}
	if lp, ok := lv.(*vector.Strings); ok {
		if rp, ok := rv.(*vector.Strings); ok {
			lvs, rvs := lp.Values(), rp.Values()
			for i := 0; i < n; i++ {
				out[i] = cmpOrdered(c.Op, strings.Compare(lvs[i], rvs[i]))
			}
			return nil
		}
	}
	ls, ok1 := vector.AsStringColumn(lv)
	rs, ok2 := vector.AsStringColumn(rv)
	if !ok1 || !ok2 {
		return fmt.Errorf("expr: cannot compare %v to %v", lv.Kind(), rv.Kind())
	}
	for i := 0; i < n; i++ {
		out[i] = cmpOrdered(c.Op, strings.Compare(ls.StringAt(i), rs.StringAt(i)))
	}
	return nil
}

// constantString reports the single string value an expression contributes
// to every row, when it syntactically is a string literal.
func constantString(e Expr) (string, bool) {
	l, ok := e.(Lit)
	if !ok {
		return "", false
	}
	s, ok := l.Value.(string)
	return s, ok
}

// cmpCodesToLit compares every code of a dict-encoded column against one
// literal: a single dictionary lookup, then an integer loop.
func cmpCodesToLit(op CmpOp, d *vector.DictStrings, lit string, out []bool) {
	code, ok := d.Dict().Lookup(lit)
	ne := op == Ne
	if !ok {
		for i := range out {
			out[i] = ne
		}
		return
	}
	for i, c := range d.Codes() {
		out[i] = (c == code) != ne
	}
}

func cmpOrdered(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// String implements Expr.
func (c Cmp) String() string {
	return fmt.Sprintf("(%s %s %s)", c.L.String(), c.Op.String(), c.R.String())
}

// ---------------------------------------------------------------------------
// Boolean connectives

// And is logical conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (a And) Eval(r *relation.Relation) (vector.Vector, error) {
	return evalBoolPair(a.L, a.R, r, func(x, y bool) bool { return x && y })
}

// String implements Expr.
func (a And) String() string { return fmt.Sprintf("(%s and %s)", a.L.String(), a.R.String()) }

// Or is logical disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (o Or) Eval(r *relation.Relation) (vector.Vector, error) {
	return evalBoolPair(o.L, o.R, r, func(x, y bool) bool { return x || y })
}

// String implements Expr.
func (o Or) String() string { return fmt.Sprintf("(%s or %s)", o.L.String(), o.R.String()) }

// Not is logical negation.
type Not struct{ E Expr }

// Eval implements Expr.
func (n Not) Eval(r *relation.Relation) (vector.Vector, error) {
	v, err := n.E.Eval(r)
	if err != nil {
		return nil, err
	}
	bv, ok := vector.MaterializeConst(v).(*vector.Bools)
	if !ok {
		return nil, fmt.Errorf("expr: not applied to %v", v.Kind())
	}
	vals := bv.Values()
	out := make([]bool, len(vals))
	for i, x := range vals {
		out[i] = !x
	}
	return vector.FromBools(out), nil
}

// String implements Expr.
func (n Not) String() string { return fmt.Sprintf("(not %s)", n.E.String()) }

func evalBoolPair(le, re Expr, r *relation.Relation, f func(a, b bool) bool) (vector.Vector, error) {
	lv, err := le.Eval(r)
	if err != nil {
		return nil, err
	}
	rv, err := re.Eval(r)
	if err != nil {
		return nil, err
	}
	lb, ok1 := vector.MaterializeConst(lv).(*vector.Bools)
	rb, ok2 := vector.MaterializeConst(rv).(*vector.Bools)
	if !ok1 || !ok2 {
		return nil, fmt.Errorf("expr: boolean connective over %v and %v", lv.Kind(), rv.Kind())
	}
	ls, rs := lb.Values(), rb.Values()
	out := make([]bool, len(ls))
	for i := range ls {
		out[i] = f(ls[i], rs[i])
	}
	return vector.FromBools(out), nil
}

// ---------------------------------------------------------------------------
// Arithmetic

// ArithOp is an arithmetic operator.
type ArithOp int

// Arithmetic operators. Division always yields float (the SQL examples in
// the paper divide counts to produce scores).
const (
	Add ArithOp = iota
	Sub
	Mul
	Div
)

func (op ArithOp) String() string {
	switch op {
	case Add:
		return "+"
	case Sub:
		return "-"
	case Mul:
		return "*"
	case Div:
		return "/"
	}
	return "?"
}

// Arith combines two numeric expressions.
type Arith struct {
	Op   ArithOp
	L, R Expr
}

// Eval implements Expr.
func (a Arith) Eval(r *relation.Relation) (vector.Vector, error) {
	lv, err := a.L.Eval(r)
	if err != nil {
		return nil, err
	}
	rv, err := a.R.Eval(r)
	if err != nil {
		return nil, err
	}
	// Constant folding: arithmetic over two literals yields another
	// constant (so `2*3` in a predicate stays scalar all the way into the
	// comparison); one constant operand is applied as a scalar below via
	// the generic loops after a cheap materialize of just that operand.
	if lc, ok := lv.(*vector.Const); ok {
		if rc, ok := rv.(*vector.Const); ok {
			return arithConstConst(a.Op, lc, rc)
		}
		lv = lc.Materialize()
	}
	if rc, ok := rv.(*vector.Const); ok {
		rv = rc.Materialize()
	}
	if lv.Kind() == vector.Int64 && rv.Kind() == vector.Int64 && a.Op != Div {
		li, ri := lv.(*vector.Int64s).Values(), rv.(*vector.Int64s).Values()
		out := make([]int64, len(li))
		for i := range li {
			switch a.Op {
			case Add:
				out[i] = li[i] + ri[i]
			case Sub:
				out[i] = li[i] - ri[i]
			case Mul:
				out[i] = li[i] * ri[i]
			}
		}
		return vector.FromInt64s(out), nil
	}
	lf, err := toFloats(lv)
	if err != nil {
		return nil, err
	}
	rf, err := toFloats(rv)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(lf))
	for i := range lf {
		switch a.Op {
		case Add:
			out[i] = lf[i] + rf[i]
		case Sub:
			out[i] = lf[i] - rf[i]
		case Mul:
			out[i] = lf[i] * rf[i]
		case Div:
			out[i] = lf[i] / rf[i]
		}
	}
	return vector.FromFloat64s(out), nil
}

// String implements Expr.
func (a Arith) String() string {
	return fmt.Sprintf("(%s %s %s)", a.L.String(), a.Op.String(), a.R.String())
}

// arithConstConst folds arithmetic over two constants into a new constant
// under the same typing rules as the column loops (int/int stays integral
// except division, everything else widens to float).
func arithConstConst(op ArithOp, l, r *vector.Const) (vector.Vector, error) {
	if !isNumericKind(l.Kind()) || !isNumericKind(r.Kind()) {
		return nil, fmt.Errorf("expr: %v is not numeric", l.Kind())
	}
	n := l.Len()
	if l.Kind() == vector.Int64 && r.Kind() == vector.Int64 && op != Div {
		a, b := l.Int64Value(), r.Int64Value()
		switch op {
		case Add:
			return vector.ConstInt64(a+b, n), nil
		case Sub:
			return vector.ConstInt64(a-b, n), nil
		case Mul:
			return vector.ConstInt64(a*b, n), nil
		}
	}
	a, b := l.Float64Value(), r.Float64Value()
	switch op {
	case Add:
		return vector.ConstFloat64(a+b, n), nil
	case Sub:
		return vector.ConstFloat64(a-b, n), nil
	case Mul:
		return vector.ConstFloat64(a*b, n), nil
	default:
		return vector.ConstFloat64(a/b, n), nil
	}
}

func toFloats(v vector.Vector) ([]float64, error) {
	switch x := v.(type) {
	case *vector.Float64s:
		return x.Values(), nil
	case *vector.Int64s:
		in := x.Values()
		out := make([]float64, len(in))
		for i, n := range in {
			out[i] = float64(n)
		}
		return out, nil
	case *vector.Const:
		if !isNumericKind(x.Kind()) {
			return nil, fmt.Errorf("expr: %v is not numeric", v.Kind())
		}
		return toFloats(x.Materialize())
	default:
		return nil, fmt.Errorf("expr: %v is not numeric", v.Kind())
	}
}

// ---------------------------------------------------------------------------
// Scalar function calls

// Func is a registered vectorized scalar function.
//
// Eval MUST be element-wise: output row i may depend only on row i of the
// arguments (and constants), never on other rows or on n. The engine
// evaluates selection predicates over row-range views of the input on
// concurrent workers; a function that aggregates across rows (a mean, a
// rank) would see per-morsel slices and silently break the engine's
// serial/parallel bit-identical guarantee. Whole-relation computations
// belong in operators (Aggregate, Normalize), not scalar functions.
type Func struct {
	Name string
	// Eval receives the evaluated argument vectors (all of length n) and
	// must return a vector of length n, computed element-wise.
	Eval func(args []vector.Vector, n int) (vector.Vector, error)
}

var funcs = map[string]Func{}

// RegisterFunc installs a scalar function under its (case-insensitive)
// name. Later registrations replace earlier ones, mirroring how the paper
// extends MonetDB with user-defined functions (tokenize, stem).
func RegisterFunc(f Func) {
	funcs[strings.ToLower(f.Name)] = f
}

// LookupFunc finds a registered function by name.
func LookupFunc(name string) (Func, bool) {
	f, ok := funcs[strings.ToLower(name)]
	return f, ok
}

// Call invokes a registered scalar function.
type Call struct {
	Name string
	Args []Expr
}

// NewCall builds a function-call expression.
func NewCall(name string, args ...Expr) Call { return Call{Name: name, Args: args} }

// Eval implements Expr.
func (c Call) Eval(r *relation.Relation) (vector.Vector, error) {
	f, ok := LookupFunc(c.Name)
	if !ok {
		return nil, fmt.Errorf("expr: unknown function %q", c.Name)
	}
	args := make([]vector.Vector, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(r)
		if err != nil {
			return nil, err
		}
		// Registered functions type-switch on the dense vector types;
		// materialize constants at this boundary so they never see a Const.
		args[i] = vector.MaterializeConst(v)
	}
	return f.Eval(args, r.NumRows())
}

// String implements Expr.
func (c Call) String() string {
	parts := make([]string, len(c.Args))
	for i, a := range c.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", strings.ToLower(c.Name), strings.Join(parts, ","))
}

func init() {
	// lcase/ucase go through vector.MapStrings: a dict-encoded input is
	// transformed once per distinct value (and stays encoded), a plain one
	// once per row.
	RegisterFunc(Func{Name: "lcase", Eval: mapStringFunc("lcase", strings.ToLower)})
	RegisterFunc(Func{Name: "ucase", Eval: mapStringFunc("ucase", strings.ToUpper)})
	RegisterFunc(Func{Name: "length", Eval: func(args []vector.Vector, n int) (vector.Vector, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("length: want 1 argument, got %d", len(args))
		}
		if dv, ok := args[0].(*vector.DictStrings); ok {
			out := make([]int64, dv.Len())
			d := dv.Dict()
			if d.DenseIn(dv.Len()) {
				// One length per distinct value, then an int gather per row.
				lens := make([]int64, d.Len())
				for c := range lens {
					lens[c] = int64(len(d.Get(int32(c))))
				}
				for i, c := range dv.Codes() {
					out[i] = lens[c]
				}
			} else {
				// Sparse column over a big shared dict: per-row lookups
				// beat walking the whole vocabulary.
				for i, c := range dv.Codes() {
					out[i] = int64(len(d.Get(c)))
				}
			}
			return vector.FromInt64s(out), nil
		}
		sv, ok := args[0].(*vector.Strings)
		if !ok {
			return nil, fmt.Errorf("length: want string argument, got %v", args[0].Kind())
		}
		in := sv.Values()
		out := make([]int64, len(in))
		for i, s := range in {
			out[i] = int64(len(s))
		}
		return vector.FromInt64s(out), nil
	}})
	for _, uf := range []struct {
		name string
		f    func(float64) float64
	}{
		{"log", math.Log}, // natural log, as in the paper's IDF formula
		{"log2", math.Log2},
		{"log10", math.Log10},
		{"sqrt", math.Sqrt},
		{"abs", math.Abs},
		{"exp", math.Exp},
	} {
		fn := uf.f
		name := uf.name
		RegisterFunc(Func{Name: name, Eval: func(args []vector.Vector, n int) (vector.Vector, error) {
			if len(args) != 1 {
				return nil, fmt.Errorf("%s: want 1 argument, got %d", name, len(args))
			}
			in, err := toFloats(args[0])
			if err != nil {
				return nil, fmt.Errorf("%s: %v", name, err)
			}
			out := make([]float64, len(in))
			for i, x := range in {
				out[i] = fn(x)
			}
			return vector.FromFloat64s(out), nil
		}})
	}
	RegisterFunc(Func{Name: "greatest", Eval: binaryFloat("greatest", math.Max)})
	RegisterFunc(Func{Name: "least", Eval: binaryFloat("least", math.Min)})
}

// mapStringFunc wraps an element-wise string transform as a vectorized
// scalar function preserving the input's representation.
func mapStringFunc(name string, f func(string) string) func(args []vector.Vector, n int) (vector.Vector, error) {
	return func(args []vector.Vector, n int) (vector.Vector, error) {
		if len(args) != 1 {
			return nil, fmt.Errorf("%s: want 1 argument, got %d", name, len(args))
		}
		out, ok := vector.MapStrings(args[0], f)
		if !ok {
			return nil, fmt.Errorf("%s: want string argument, got %v", name, args[0].Kind())
		}
		return out, nil
	}
}

func binaryFloat(name string, f func(a, b float64) float64) func(args []vector.Vector, n int) (vector.Vector, error) {
	return func(args []vector.Vector, n int) (vector.Vector, error) {
		if len(args) != 2 {
			return nil, fmt.Errorf("%s: want 2 arguments, got %d", name, len(args))
		}
		a, err := toFloats(args[0])
		if err != nil {
			return nil, err
		}
		b, err := toFloats(args[1])
		if err != nil {
			return nil, err
		}
		out := make([]float64, len(a))
		for i := range a {
			out[i] = f(a[i], b[i])
		}
		return vector.FromFloat64s(out), nil
	}
}
