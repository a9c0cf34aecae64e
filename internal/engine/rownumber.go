package engine

import (
	"context"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// RowNumber appends a dense 1-based integer column, the engine's
// equivalent of the paper's "row_number() over() as termID" used to build
// the term dictionary (section 2.1).
type RowNumber struct {
	ident
	Child Node
	Name  string
}

// NewRowNumber appends a 1..n column called name.
func NewRowNumber(child Node, name string) *RowNumber {
	h := newHasher("rownumber")
	h.str(name)
	return &RowNumber{ident: h.finish(child), Child: child, Name: name}
}

// Execute implements Node.
func (r *RowNumber) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, r.Child)
	if err != nil {
		return nil, err
	}
	n := in.NumRows()
	// Budget the id column and the copied probability column (8 bytes
	// each per row) before allocating either.
	if err := ctx.charge(c, int64(n)*16); err != nil {
		return nil, err
	}
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i + 1)
	}
	cols := make([]relation.Column, 0, in.NumCols()+1)
	cols = append(cols, in.Columns()...)
	cols = append(cols, relation.Column{Name: r.Name, Vec: vector.FromInt64s(ids)})
	prob := make([]float64, n)
	copy(prob, in.Prob())
	return relation.FromColumns(cols, prob)
}

// Children implements Node.
func (r *RowNumber) Children() []Node { return []Node{r.Child} }

// Label implements Node.
func (r *RowNumber) Label() string { return "RowNumber " + r.Name }
