package engine

import (
	"context"
	"fmt"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// ScaleProb multiplies every tuple probability by a constant factor in
// [0,1] — the WEIGHT operator of SpinQL, used by the linear-combination
// mixing of strategies (section 3, step 4: "mixed via linear combination,
// with the given weights").
type ScaleProb struct {
	ident
	Child  Node
	Factor float64
}

// NewScaleProb scales child's probabilities by factor.
func NewScaleProb(child Node, factor float64) *ScaleProb {
	h := newHasher("weight")
	h.float(factor)
	return &ScaleProb{ident: h.finish(child), Child: child, Factor: factor}
}

// Execute implements Node.
func (s *ScaleProb) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	if s.Factor < 0 {
		return nil, fmt.Errorf("negative probability weight %g", s.Factor)
	}
	in, err := ctx.Exec(c, s.Child)
	if err != nil {
		return nil, err
	}
	// Copy probabilities (the input's rows are shared, its probability
	// column is not modified) and rescale chunk-parallel: every slot is
	// written by exactly one worker.
	src := in.Prob()
	// Budget the rescaled probability column before allocating it.
	if err := ctx.charge(c, int64(len(src))*8); err != nil {
		return nil, err
	}
	p := make([]float64, len(src))
	ctx.parallelRanges(c, len(p), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			p[i] = src[i] * s.Factor
		}
	})
	cols := make([]relation.Column, in.NumCols())
	copy(cols, in.Columns())
	return relation.FromColumns(cols, p)
}

// Children implements Node.
func (s *ScaleProb) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *ScaleProb) Label() string { return fmt.Sprintf("Weight %g", s.Factor) }

// ---------------------------------------------------------------------------
// ProbFromCol

// ProbFromCol replaces tuple probabilities with the values of a float
// column, optionally clamping to [0,1] and dropping the source column.
// Retrieval models use it to turn a computed score column into the ranked
// (probabilistic) result relation.
type ProbFromCol struct {
	ident
	Child Node
	Col   string
	Clamp bool
	Drop  bool
}

// NewProbFromCol moves column col into the tuple probability.
func NewProbFromCol(child Node, col string, clamp, drop bool) *ProbFromCol {
	h := newHasher("probfromcol")
	h.str(col)
	h.bool(clamp)
	h.bool(drop)
	return &ProbFromCol{ident: h.finish(child), Child: child, Col: col, Clamp: clamp, Drop: drop}
}

// Execute implements Node.
func (n *ProbFromCol) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, n.Child)
	if err != nil {
		return nil, err
	}
	col, err := in.ColByName(n.Col)
	if err != nil {
		return nil, err
	}
	// Budget the decoded source values plus the new probability column
	// (8 bytes each per row) before either allocates.
	if err := ctx.charge(c, int64(in.NumRows())*16); err != nil {
		return nil, err
	}
	var vals []float64
	switch v := col.Vec.(type) {
	case *vector.Float64s:
		vals = v.Values()
	case *vector.Int64s:
		iv := v.Values()
		vals = make([]float64, len(iv))
		for i, x := range iv {
			vals[i] = float64(x)
		}
	default:
		return nil, fmt.Errorf("probability source column %q is %v, want numeric", n.Col, col.Vec.Kind())
	}
	prob := make([]float64, len(vals))
	ctx.parallelRanges(c, len(vals), func(lo, hi int) {
		copy(prob[lo:hi], vals[lo:hi])
		if n.Clamp {
			for i := lo; i < hi; i++ {
				if prob[i] < 0 {
					prob[i] = 0
				} else if prob[i] > 1 {
					prob[i] = 1
				}
			}
		}
	})
	cols := make([]relation.Column, 0, in.NumCols())
	for _, c := range in.Columns() {
		if n.Drop && c.Name == n.Col {
			continue
		}
		cols = append(cols, c)
	}
	return relation.FromColumns(cols, prob)
}

// Children implements Node.
func (n *ProbFromCol) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *ProbFromCol) Label() string { return "ProbFromCol " + n.Col }
