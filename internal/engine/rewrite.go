package engine

import "slices"

// Plan passes (Optimize, Bind) never copy or modify a node. They derive
// every new node through its constructor, so each identity is computed
// from the node's own parameters and children (identity.go).

// rewriteChildren applies f to every direct child of n and rebuilds n
// over the results when any child changed. Unchanged nodes are returned
// as-is, so rewrite passes share the untouched spine of a plan with its
// original — the same sharing contract Bind uses, which keeps the digests
// (and cache entries) of unmodified sub-plans stable.
func rewriteChildren(n Node, f func(Node) Node) Node {
	old := n.Children()
	var kids []Node
	for i, c := range old {
		if nc := f(c); nc != c {
			if kids == nil {
				kids = slices.Clone(old)
			}
			kids[i] = nc
		}
	}
	if kids == nil {
		return n
	}
	return rebuild(n, kids)
}

// withChild returns n when c is its current only child old, and n rebuilt
// over c otherwise.
func withChild(n, old, c Node) Node {
	if c == old {
		return n
	}
	return rebuild(n, []Node{c})
}

// withChildren returns n when kids are its current children, and n
// rebuilt over kids otherwise.
func withChildren(n Node, kids ...Node) Node {
	if slices.Equal(n.Children(), kids) {
		return n
	}
	return rebuild(n, kids)
}

// rebuild constructs a node with n's operator and parameters over kids.
// Leaves and unknown node types are returned unchanged: a pass can never
// corrupt an operator it does not understand.
func rebuild(n Node, kids []Node) Node {
	switch x := n.(type) {
	case *Materialize:
		return NewMaterialize(kids[0])
	case *Limit:
		return NewLimit(kids[0], x.N)
	case *Select:
		return NewSelect(kids[0], x.Pred)
	case *Project:
		return NewProject(kids[0], x.Cols...)
	case *HashJoin:
		return newHashJoin(kids[0], kids[1], x.LKeys, x.RKeys, x.PMode, x.Out)
	case *Union:
		return NewUnion(kids[0], kids[1])
	case *Subtract:
		return NewSubtract(kids[0], kids[1], x.Boolean)
	case *Aggregate:
		return NewAggregate(kids[0], x.GroupBy, x.Aggs, x.PMode)
	case *Distinct:
		return NewDistinct(kids[0], x.PMode)
	case *Sort:
		return NewSort(kids[0], x.Keys...)
	case *TopN:
		return NewTopN(kids[0], x.N, x.Keys...)
	case *Normalize:
		return NewNormalize(kids[0], x.Keys, x.Mode)
	case *ScaleProb:
		return NewScaleProb(kids[0], x.Factor)
	case *ProbFromCol:
		return NewProbFromCol(kids[0], x.Col, x.Clamp, x.Drop)
	case *RowNumber:
		return NewRowNumber(kids[0], x.Name)
	case *Tokenize:
		return NewTokenize(kids[0], x.IDCol, x.DataCol, x.Tok, x.WithCompounds)
	}
	return n
}
