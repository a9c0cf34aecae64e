package expr

// Query-parameter placeholders. A Param is the ?name of a prepared SpinQL
// statement: it parses and type-checks like any operand, but carries no
// value. Binding replaces Params with Lit values via Bind, producing a new
// expression tree; sub-expressions without parameters are shared, so a
// bound plan's digests stay canonical and the materialization cache
// is shared across bindings wherever a sub-plan does not depend on the
// parameters.

import (
	"fmt"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Param is a named parameter placeholder (?name in SpinQL). Evaluating an
// unbound Param is an error: plans containing parameters must be bound
// (engine.Bind / Stmt.Query) before execution.
type Param struct{ Name string }

// Eval implements Expr.
func (p Param) Eval(r *relation.Relation) (vector.Vector, error) {
	return nil, fmt.Errorf("expr: unbound parameter ?%s (execute through a prepared statement and bind it)", p.Name)
}

// String implements Expr. Plans containing a Param are never cached:
// binding replaces the Param with the literal first, and only the bound
// tree executes.
func (p Param) String() string { return "?" + p.Name }

// Bind returns e with every Param replaced by the literal lookup returns
// for its name. The second result reports whether anything was replaced;
// when false, e itself is returned, so parameter-free expressions are
// shared between the prepared plan and its bound instances. A parameter
// whose name lookup does not know is an error.
func Bind(e Expr, lookup func(name string) (Lit, bool)) (Expr, bool, error) {
	switch x := e.(type) {
	case Param:
		l, ok := lookup(x.Name)
		if !ok {
			return nil, false, fmt.Errorf("expr: no binding for parameter ?%s", x.Name)
		}
		return l, true, nil
	case Cmp:
		l, lc, err := Bind(x.L, lookup)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := Bind(x.R, lookup)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return e, false, nil
		}
		return Cmp{Op: x.Op, L: l, R: r}, true, nil
	case And:
		l, lc, err := Bind(x.L, lookup)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := Bind(x.R, lookup)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return e, false, nil
		}
		return And{L: l, R: r}, true, nil
	case Or:
		l, lc, err := Bind(x.L, lookup)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := Bind(x.R, lookup)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return e, false, nil
		}
		return Or{L: l, R: r}, true, nil
	case Not:
		inner, ch, err := Bind(x.E, lookup)
		if err != nil {
			return nil, false, err
		}
		if !ch {
			return e, false, nil
		}
		return Not{E: inner}, true, nil
	case Arith:
		l, lc, err := Bind(x.L, lookup)
		if err != nil {
			return nil, false, err
		}
		r, rc, err := Bind(x.R, lookup)
		if err != nil {
			return nil, false, err
		}
		if !lc && !rc {
			return e, false, nil
		}
		return Arith{Op: x.Op, L: l, R: r}, true, nil
	case Call:
		args := make([]Expr, len(x.Args))
		changed := false
		for i, a := range x.Args {
			b, ch, err := Bind(a, lookup)
			if err != nil {
				return nil, false, err
			}
			args[i] = b
			changed = changed || ch
		}
		if !changed {
			return e, false, nil
		}
		return Call{Name: x.Name, Args: args}, true, nil
	default:
		return e, false, nil
	}
}

// Params appends the names of every Param in e to names, in first
// appearance order without duplicates, and returns the extended slice.
func Params(e Expr, names []string) []string {
	add := func(n string) []string {
		for _, have := range names {
			if have == n {
				return names
			}
		}
		return append(names, n)
	}
	switch x := e.(type) {
	case Param:
		names = add(x.Name)
	case Cmp:
		names = Params(x.L, names)
		names = Params(x.R, names)
	case And:
		names = Params(x.L, names)
		names = Params(x.R, names)
	case Or:
		names = Params(x.L, names)
		names = Params(x.R, names)
	case Not:
		names = Params(x.E, names)
	case Arith:
		names = Params(x.L, names)
		names = Params(x.R, names)
	case Call:
		for _, a := range x.Args {
			names = Params(a, names)
		}
	}
	return names
}
