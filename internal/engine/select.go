package engine

import (
	"context"
	"fmt"

	"irdb/internal/expr"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Select filters rows by a boolean predicate, keeping tuple probabilities
// untouched (PRA selection leaves probabilities unchanged; it only removes
// tuples whose condition is false).
type Select struct {
	ident
	Child Node
	Pred  expr.Expr
}

// NewSelect filters child by pred.
func NewSelect(child Node, pred expr.Expr) *Select {
	h := newHasher("select")
	h.expr(pred)
	return &Select{ident: h.finish(child), Child: child, Pred: pred}
}

// Execute implements Node.
//
// The predicate is evaluated chunk-parallel: each worker evaluates the
// expression over a row-range view of the input and collects its matching
// row numbers; per-worker matches are merged in morsel order, so the
// output rows are exactly those of a serial scan. This relies on the
// expr contract that all expressions — including registered scalar
// functions (see expr.Func) — are element-wise.
func (s *Select) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, s.Child)
	if err != nil {
		return nil, err
	}
	// Budget the worst case of the match collection up front: every row
	// matches, so the per-morsel parts plus the merged selection cost up
	// to 16 bytes per input row.
	if err := ctx.charge(c, int64(in.NumRows())*16); err != nil {
		return nil, err
	}
	ranges := ctx.morselRanges(in.NumRows())
	if len(ranges) == 0 {
		// Still evaluate the predicate over the empty input so type
		// errors surface exactly as they would serially.
		ranges = [][2]int{{0, 0}}
	}
	selParts := make([][]int, len(ranges))
	errParts := make([]error, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		view := in
		if len(ranges) > 1 {
			view = in.Slice(lo, hi)
		}
		pv, err := s.Pred.Eval(view)
		if err != nil {
			errParts[m] = err
			return
		}
		bv, ok := vector.MaterializeConst(pv).(*vector.Bools)
		if !ok {
			errParts[m] = fmt.Errorf("predicate %s is %v, want boolean", s.Pred.String(), pv.Kind())
			return
		}
		vals := bv.Values()
		sel := make([]int, 0, len(vals)/4)
		for i, b := range vals {
			if b {
				sel = append(sel, lo+i)
			}
		}
		selParts[m] = sel
	})
	for _, err := range errParts {
		if err != nil {
			return nil, err
		}
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range selParts {
		total += len(p)
	}
	sel := make([]int, 0, total)
	for _, p := range selParts {
		sel = append(sel, p...)
	}
	return in.Gather(sel), nil
}

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Select) Label() string { return "Select " + s.Pred.String() }

// ---------------------------------------------------------------------------
// Project

// ProjCol is one output column of a projection: a name and the expression
// computing it.
type ProjCol struct {
	Name string
	E    expr.Expr
}

// Project computes a new column list. Tuple probabilities pass through
// unchanged; duplicate elimination (the probabilistic PROJECT of PRA) is a
// separate operator, Distinct.
type Project struct {
	ident
	Child Node
	Cols  []ProjCol
}

// NewProject projects child onto the given output columns.
func NewProject(child Node, cols ...ProjCol) *Project {
	h := newHasher("project")
	h.int(len(cols))
	for _, pc := range cols {
		h.str(pc.Name)
		h.expr(pc.E)
	}
	return &Project{ident: h.finish(child), Child: child, Cols: cols}
}

// ByName is a convenience constructor for pass-through projection columns.
func ByName(names ...string) []ProjCol {
	out := make([]ProjCol, len(names))
	for i, n := range names {
		out[i] = ProjCol{Name: n, E: expr.Column(n)}
	}
	return out
}

// Execute implements Node.
func (p *Project) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, p.Child)
	if err != nil {
		return nil, err
	}
	cols := make([]relation.Column, len(p.Cols)) //lint:allow chargedalloc O(#columns) headers, plan-shaped; computed columns are charged by evalColumn
	for i, pc := range p.Cols {
		v, err := ctx.evalColumn(c, pc.E, in)
		if err != nil {
			return nil, err
		}
		cols[i] = relation.Column{Name: pc.Name, Vec: v}
	}
	// Relations are immutable, so the output shares in's probabilities.
	return relation.FromColumns(cols, in.Prob())
}

// evalColumn evaluates e over in as a dense output column, charging what
// it computes before a relation holds it: nothing for a bare column
// reference, which shares in's vector; a literal (a vector.Const) at its
// materialized size, before it is expanded; any other expression at the
// size of its result.
func (ctx *Ctx) evalColumn(c context.Context, e expr.Expr, in *relation.Relation) (vector.Vector, error) {
	v, err := e.Eval(in)
	if err != nil {
		return nil, err
	}
	var n int64
	switch e.(type) {
	case expr.Col:
	default:
		if cv, ok := v.(*vector.Const); ok {
			n = cv.MaterializedBytes()
		} else {
			n = v.EstimatedBytes()
		}
	}
	if err := ctx.charge(c, n); err != nil {
		return nil, err
	}
	return vector.MaterializeConst(v), nil
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Label implements Node.
func (p *Project) Label() string {
	s := "Project "
	for i, pc := range p.Cols {
		if i > 0 {
			s += ", "
		}
		s += pc.Name
	}
	return s
}
