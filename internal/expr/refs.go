package expr

import (
	"fmt"

	"irdb/internal/vector"
)

// Static analysis helpers for the plan optimizer: what an expression reads
// from its input relation, structural column renaming, and constant
// boolean folding. All three are conservative — anything they do not
// recognize is reported in a way that blocks rewrites rather than enabling
// them.

// Refs describes everything an expression reads from the relation it is
// evaluated against.
type Refs struct {
	// Cols lists named column references in first-appearance order,
	// without duplicates.
	Cols []string
	// Opaque is true when an expression this analysis does not know
	// appears (an unresolved $n among them): what it reads is unknown, so
	// no rewrite may move or narrow anything around it.
	Opaque bool
	// Prob is true when PROB() appears: the expression depends on tuple
	// probabilities, which operators like joins recombine.
	Prob bool
	// Param is true when a ?name placeholder appears.
	Param bool
}

// RefsOf analyses e.
func RefsOf(e Expr) Refs {
	var r Refs
	collectRefs(e, &r)
	return r
}

func collectRefs(e Expr, r *Refs) {
	switch x := e.(type) {
	case Col:
		for _, c := range r.Cols {
			if c == x.Name {
				return
			}
		}
		r.Cols = append(r.Cols, x.Name)
	case Prob:
		r.Prob = true
	case Param:
		r.Param = true
	case Cmp:
		collectRefs(x.L, r)
		collectRefs(x.R, r)
	case And:
		collectRefs(x.L, r)
		collectRefs(x.R, r)
	case Or:
		collectRefs(x.L, r)
		collectRefs(x.R, r)
	case Not:
		collectRefs(x.E, r)
	case Arith:
		collectRefs(x.L, r)
		collectRefs(x.R, r)
	case Call:
		for _, a := range x.Args {
			collectRefs(a, r)
		}
	case Lit:
		// no references
	default:
		// Unknown expression type: assume the worst on every axis so no
		// rewrite fires around it.
		r.Opaque = true
		r.Prob = true
		r.Param = true
	}
}

// RenameCols returns e with every named column reference renamed through
// m; names absent from m are kept. Probability references are unaffected
// (callers decide separately whether those are legal).
func RenameCols(e Expr, m map[string]string) Expr {
	out, _ := Rewrite(e, func(x Expr) (Expr, error) {
		if c, ok := x.(Col); ok {
			if to, ok := m[c.Name]; ok {
				return Col{Name: to}, nil
			}
		}
		return x, nil
	})
	return out
}

// Rewrite returns e with every leaf — any expression that is not one of
// this package's operators (Cmp, And, Or, Not, Arith, Call) — replaced by
// f's result for it, and the operators above rebuilt. The first error f
// returns is returned.
func Rewrite(e Expr, f func(Expr) (Expr, error)) (Expr, error) {
	var l, r, out Expr
	var err error
	pair := func(le, re Expr) {
		if l, err = Rewrite(le, f); err == nil {
			r, err = Rewrite(re, f)
		}
	}
	switch x := e.(type) {
	case Cmp:
		pair(x.L, x.R)
		out = Cmp{Op: x.Op, L: l, R: r}
	case And:
		pair(x.L, x.R)
		out = And{L: l, R: r}
	case Or:
		pair(x.L, x.R)
		out = Or{L: l, R: r}
	case Arith:
		pair(x.L, x.R)
		out = Arith{Op: x.Op, L: l, R: r}
	case Not:
		l, err = Rewrite(x.E, f)
		out = Not{E: l}
	case Call:
		args := make([]Expr, len(x.Args))
		for i := 0; i < len(args) && err == nil; i++ {
			args[i], err = Rewrite(x.Args[i], f)
		}
		out = Call{Name: x.Name, Args: args}
	default:
		return f(e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ConstBool folds e to a constant boolean when that is statically sound:
// boolean literals, not/and/or over foldable operands, and comparisons of
// two literals. And/or fold only when both sides fold — evaluation is
// strict (no short-circuit), so dropping an unfoldable side could hide a
// type error the unoptimized plan would report.
func ConstBool(e Expr) (val, ok bool) {
	switch x := e.(type) {
	case Lit:
		b, isBool := x.Value.(bool)
		return b, isBool
	case Not:
		v, ok := ConstBool(x.E)
		return !v, ok
	case And:
		l, lok := ConstBool(x.L)
		r, rok := ConstBool(x.R)
		return l && r, lok && rok
	case Or:
		l, lok := ConstBool(x.L)
		r, rok := ConstBool(x.R)
		return l || r, lok && rok
	case Cmp:
		ll, lok := x.L.(Lit)
		rl, rok := x.R.(Lit)
		if !lok || !rok {
			return false, false
		}
		lv, err := litConst(ll)
		if err != nil {
			return false, false
		}
		rv, err := litConst(rl)
		if err != nil {
			return false, false
		}
		v, err := cmpConstConst(x.Op, lv, rv)
		if err != nil {
			return false, false
		}
		return v, true
	}
	return false, false
}

// litConst converts a literal to a length-1 constant vector for folding.
func litConst(l Lit) (*vector.Const, error) {
	switch x := l.Value.(type) {
	case int64:
		return vector.ConstInt64(x, 1), nil
	case float64:
		return vector.ConstFloat64(x, 1), nil
	case string:
		return vector.ConstString(x, 1), nil
	case bool:
		return vector.ConstBool(x, 1), nil
	default:
		return nil, fmt.Errorf("expr: unsupported literal type %T", l.Value)
	}
}
