package engine

import (
	"context"
	"fmt"

	"irdb/internal/relation"
)

// NormMode selects how Normalize computes its per-group denominator.
type NormMode int

const (
	// NormSum divides each probability by the group's probability sum —
	// the relational Bayes of Roelleke et al. (paper reference [12]),
	// turning scores into a probability distribution per evidence key.
	NormSum NormMode = iota
	// NormMax divides by the group maximum, mapping the best tuple per
	// group to probability 1. Useful for turning unbounded retrieval
	// scores into [0,1] before mixing strategies.
	NormMax
)

func (m NormMode) String() string {
	if m == NormMax {
		return "max"
	}
	return "sum"
}

// Normalize implements the relational Bayes operator: tuple probabilities
// are divided by an aggregate over their evidence-key group. With an empty
// key list the whole relation forms one group. Groups whose denominator is
// zero keep probability zero.
type Normalize struct {
	ident
	Child Node
	Keys  []string // evidence-key columns; empty = global
	Mode  NormMode
}

// NewNormalize normalizes child's probabilities within the groups of the
// named evidence-key columns.
func NewNormalize(child Node, keys []string, mode NormMode) *Normalize {
	h := newHasher("normalize")
	h.int(int(mode))
	h.strs(keys)
	return &Normalize{ident: h.finish(child), Child: child, Keys: keys, Mode: mode}
}

// Execute implements Node.
func (n *Normalize) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	in, err := ctx.Exec(c, n.Child)
	if err != nil {
		return nil, err
	}
	keyIdx, err := colPositions(in, n.Keys)
	if err != nil {
		return nil, err
	}
	// The keyless global case is simply nGroups = 1.
	groupOf := []int(nil)
	nGroups := 1
	if len(keyIdx) > 0 {
		var firstRow []int
		groupOf, firstRow, err = groupRows(c, ctx, in, keyIdx)
		if err != nil {
			return nil, err
		}
		nGroups = len(firstRow)
	}
	return normalizeGroups(c, ctx, in, groupOf, nGroups, n.Mode)
}

// normalizeGroups divides each row's probability by its group's
// denominator; a nil groupOf puts every row in group 0. The denominators
// fold chunk-parallel through foldGroups: per-chunk partial sums (or
// maxima) merged in fixed chunk order, so the float results are
// bit-identical at every parallelism.
func normalizeGroups(c context.Context, ctx *Ctx, in *relation.Relation, groupOf []int, nGroups int, mode NormMode) (*relation.Relation, error) {
	prob := in.Prob()
	// Budget the fold's per-chunk denominator partials and the rebuilt
	// probability column before either allocates.
	chunks := int64(len(aggRanges(in.NumRows(), nGroups)))
	if err := ctx.charge(c, (chunks*int64(nGroups)+int64(in.NumRows()))*8); err != nil {
		return nil, err
	}
	aggs, err := foldGroups(c, ctx, in.NumRows(), nGroups,
		func() []float64 { return make([]float64, nGroups) },
		func(acc []float64, lo, hi int) {
			for i := lo; i < hi; i++ {
				g := 0
				if groupOf != nil {
					g = groupOf[i]
				}
				if mode == NormSum {
					acc[g] += prob[i]
				} else if prob[i] > acc[g] {
					acc[g] = prob[i]
				}
			}
		},
		func(dst, src []float64) {
			if mode == NormSum {
				addFloats(dst, src)
			} else {
				maxFloats(dst, src)
			}
		})
	if err != nil {
		return nil, err
	}
	// Recombine probabilities chunk-parallel; column vectors are shared
	// with the input (treated as immutable), only the probability column
	// is rebuilt.
	p := make([]float64, in.NumRows())
	ctx.parallelRanges(c, len(p), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			g := 0
			if groupOf != nil {
				g = groupOf[i]
			}
			if d := aggs[g]; d > 0 {
				p[i] = prob[i] / d
			}
		}
	})
	cols := make([]relation.Column, in.NumCols())
	copy(cols, in.Columns())
	return relation.FromColumns(cols, p)
}

// Children implements Node.
func (n *Normalize) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *Normalize) Label() string { return fmt.Sprintf("Normalize[%s] #%v", n.Mode, n.Keys) }
