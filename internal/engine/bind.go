package engine

import (
	"fmt"
	"slices"

	"irdb/internal/expr"
)

// Plan parameter binding for prepared statements.
//
// A prepared SpinQL statement compiles once into a plan that may contain
// expr.Param placeholders (?name). Bind produces an executable plan from
// it by substituting literals for the placeholders — a rebuild, through
// the node constructors, of only the param-dependent spine of the tree.
// Subtrees without parameters are returned as-is (pointer-shared with the
// prepared plan), so their digests — and therefore their materialization
// cache entries — are shared across every binding, and binding hashes only
// the nodes on a path from a parameter to the root. Binding does no
// parsing, no compilation and no schema checking; it is the "bind literals
// per execution" step, typically thousands of times cheaper than
// re-parsing the statement.

// Params returns the names of every parameter placeholder in the plan, in
// first-appearance order (pre-order over the tree, expressions before
// children).
func Params(n Node) []string {
	return collectParams(n, nil)
}

func collectParams(n Node, names []string) []string {
	for _, e := range nodeExprs(n) {
		names = expr.Params(e, names)
	}
	for _, ch := range n.Children() {
		names = collectParams(ch, names)
	}
	return names
}

// nodeExprs returns the scalar expressions held directly by a node.
func nodeExprs(n Node) []expr.Expr {
	switch x := n.(type) {
	case *Select:
		return []expr.Expr{x.Pred}
	case *Project:
		out := make([]expr.Expr, len(x.Cols))
		for i, pc := range x.Cols {
			out[i] = pc.E
		}
		return out
	case *Extend:
		return []expr.Expr{x.E}
	}
	return nil
}

// Bind returns plan with every expr.Param replaced by its binding.
// Unbound parameters are an error, as is a parameter under an operator
// type Bind does not know how to rebuild (none of the operators SpinQL
// compiles to). A subtree without parameters comes back as the same Node.
func Bind(plan Node, lookup func(name string) (expr.Lit, bool)) (Node, error) {
	kids := plan.Children()
	bound := make([]Node, len(kids))
	for i, c := range kids {
		b, err := Bind(c, lookup)
		if err != nil {
			return nil, err
		}
		bound[i] = b
	}
	switch x := plan.(type) {
	case *Select:
		pred, changed, err := expr.Bind(x.Pred, lookup)
		if err != nil {
			return nil, err
		}
		if changed {
			return NewSelect(bound[0], pred), nil
		}
	case *Project:
		cols := make([]ProjCol, len(x.Cols))
		changed := false
		for i, pc := range x.Cols {
			e, ec, err := expr.Bind(pc.E, lookup)
			if err != nil {
				return nil, err
			}
			cols[i] = ProjCol{Name: pc.Name, E: e}
			changed = changed || ec
		}
		if changed {
			return NewProject(bound[0], cols...), nil
		}
	case *Extend:
		e, changed, err := expr.Bind(x.E, lookup)
		if err != nil {
			return nil, err
		}
		if changed {
			return NewExtend(bound[0], x.Name, e), nil
		}
	}
	if slices.Equal(kids, bound) {
		return plan, nil
	}
	if out := rebuild(plan, bound); out != plan {
		return out, nil
	}
	return nil, fmt.Errorf("engine: cannot bind parameters under operator %T", plan)
}
