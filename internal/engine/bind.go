package engine

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"irdb/internal/expr"
)

// Plan parameter binding for prepared plans.
//
// A prepared plan — a SpinQL statement, a search strategy, a keyword
// search — is compiled and optimized once, with placeholders where the
// per-execution inputs go: expr.Param scalars (?name) in expressions, and
// relation-valued Values leaves (NewValuesParam), such as a search's query
// document. Bind produces an executable plan from it by substituting the
// bindings — a rebuild, through the node constructors, of only the
// param-dependent spine of the tree. Every node knows from its identity
// whether its subtree holds a parameter, so a subtree without one is
// returned as-is (pointer-shared with the prepared plan) without being
// walked: its digest — and therefore its materialization cache entry — is
// shared across every binding, and binding hashes only the nodes on a
// path from a parameter to the root. Binding does no parsing, no
// compilation, no optimization and no schema checking beyond the column
// names of a bound relation.

// Params returns the names of every parameter placeholder in the plan, in
// first-appearance order (pre-order over the tree, expressions before
// children), scalar and relation-valued alike.
func Params(n Node) []string {
	return collectParams(n, nil)
}

func collectParams(n Node, names []string) []string {
	if !identOf(n).params {
		return names
	}
	if v, ok := n.(*Values); ok && !slices.Contains(names, v.Param) {
		names = append(names, v.Param)
	}
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
	}
	return nil
}

// Bind returns plan with every scalar parameter replaced by its literal.
// Unbound parameters are an error, as is a parameter under an operator
// type Bind does not know how to rebuild (none of the operators SpinQL
// compiles to). A subtree without parameters comes back as the same Node.
func Bind(plan Node, lookup func(name string) (expr.Lit, bool)) (Node, error) {
	return Bindings{Scalar: lookup}.Bind(plan)
}

// Bindings supplies the values Bind substitutes. Scalar returns the
// literal bound to ?name in an expression; Relation returns the literal
// Values bound to the relation-valued parameter ?name, which must have
// the parameter's column names. A nil function binds nothing of its kind.
type Bindings struct {
	Scalar   func(name string) (expr.Lit, bool)
	Relation func(name string) (*Values, bool)
}

// Bind returns plan with every parameter replaced by its binding, as the
// package-level Bind does for scalars.
func (b Bindings) Bind(plan Node) (Node, error) {
	if !identOf(plan).params {
		return plan, nil
	}
	if v, ok := plan.(*Values); ok {
		return b.relation(v)
	}
	kids := plan.Children()
	bound := make([]Node, len(kids))
	for i, c := range kids {
		n, err := b.Bind(c)
		if err != nil {
			return nil, err
		}
		bound[i] = n
	}
	switch x := plan.(type) {
	case *Select:
		pred, changed, err := expr.Bind(x.Pred, b.scalar)
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
			e, ec, err := expr.Bind(pc.E, b.scalar)
			if err != nil {
				return nil, err
			}
			cols[i] = ProjCol{Name: pc.Name, E: e}
			changed = changed || ec
		}
		if changed {
			return NewProject(bound[0], cols...), nil
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

func (b Bindings) scalar(name string) (expr.Lit, bool) {
	if b.Scalar == nil {
		return expr.Lit{}, false
	}
	return b.Scalar(name)
}

// relation returns the literal bound to the relation-valued parameter v.
func (b Bindings) relation(v *Values) (Node, error) {
	var lit *Values
	ok := b.Relation != nil
	if ok {
		lit, ok = b.Relation(v.Param)
	}
	if !ok || lit == nil || lit.Rel == nil {
		return nil, fmt.Errorf("engine: no binding for relation parameter ?%s", v.Param)
	}
	if got := lit.Rel.ColumnNames(); !slices.Equal(got, v.Cols) {
		return nil, fmt.Errorf("engine: relation parameter ?%s wants columns %v, bound to %v", v.Param, v.Cols, got)
	}
	return lit, nil
}

// Prepared memoizes what prepare derives from a plan optimized on a Ctx —
// a prepared plan, typically — for the catalog schema epoch it was
// derived at, and derives it afresh once the epoch moves. Appends keep
// the epoch, and the optimizer reads only column names from the catalog,
// so a prepared plan stays valid across live ingest. Concurrent first
// callers prepare once. A Prepared serves one Ctx; the zero value is
// ready to use.
type Prepared[T any] struct {
	mu  sync.Mutex
	cur atomic.Pointer[preparedAt[T]]
}

type preparedAt[T any] struct {
	v     T
	epoch uint64
}

// Get returns the value prepared at ctx's current schema epoch, calling
// prepare when there is none. A failed prepare stores nothing.
func (p *Prepared[T]) Get(ctx *Ctx, prepare func() (T, error)) (T, error) {
	// The epoch is read before preparing: if it moves meanwhile, the value
	// is stored under the older epoch and the next call prepares again.
	epoch := ctx.SchemaEpoch()
	if cur := p.cur.Load(); cur != nil && cur.epoch == epoch {
		return cur.v, nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if cur := p.cur.Load(); cur != nil && cur.epoch == epoch {
		return cur.v, nil
	}
	v, err := prepare()
	if err != nil {
		return v, err
	}
	p.cur.Store(&preparedAt[T]{v: v, epoch: epoch})
	return v, nil
}
