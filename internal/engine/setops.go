package engine

import (
	"context"
	"fmt"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Union concatenates two schema-compatible inputs (bag semantics, no
// dedup). Column names are taken from the left input. Both branches are
// evaluated concurrently when worker slots are free.
type Union struct {
	ident
	L, R Node
}

// NewUnion concatenates l and r.
func NewUnion(l, r Node) *Union {
	h := newHasher("union")
	return &Union{ident: h.finish(l, r), L: l, R: r}
}

// Execute implements Node.
func (u *Union) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	left, right, err := ctx.execPair(c, u.L, u.R)
	if err != nil {
		return nil, err
	}
	return concatAll(c, ctx, []*relation.Relation{left, right})
}

// concatAll appends the rows of every input in order. Every output column
// is allocated once at full size; each (input, column) pair is one task
// that writes the input's column at its precomputed row offset, so workers
// fill disjoint output ranges in place and the result is identical to a
// serial append.
func concatAll(c context.Context, ctx *Ctx, ins []*relation.Relation) (*relation.Relation, error) {
	first := ins[0]
	total := 0
	offs := make([]int, len(ins)) //lint:allow chargedalloc O(#union inputs) plan-shaped offsets, not data
	for k, in := range ins {
		if in.NumCols() != first.NumCols() {
			return nil, fmt.Errorf("union arity mismatch: %d vs %d columns", first.NumCols(), in.NumCols())
		}
		for i := 0; i < first.NumCols(); i++ {
			if in.Col(i).Vec.Kind() != first.Col(i).Vec.Kind() {
				return nil, fmt.Errorf("union column %d kind mismatch: %v vs %v",
					i, first.Col(i).Vec.Kind(), in.Col(i).Vec.Kind())
			}
		}
		offs[k] = total
		total += in.NumRows()
	}
	// Budget the concatenated output before the prefix-sum allocation:
	// every column is allocated once at full size below.
	if err := ctx.chargeRel(c, first, total); err != nil {
		return nil, err
	}
	nCols := first.NumCols()
	cols := make([]relation.Column, nCols)
	for ci := 0; ci < nCols; ci++ {
		fc := first.Col(ci)
		// One output column funnels every input's column: when the inputs
		// disagree on string representation (plain vs dict-encoded, or
		// dict-encoded over different dicts), the output falls back to a
		// plain string column and dict inputs decode as they copy. Only
		// when every input shares one frozen dict does the output stay
		// encoded (codes are then memcpy'd).
		out := fc.Vec.NewSized(total)
		for _, in := range ins[1:] {
			if !copyCompatible(fc.Vec, in.Col(ci).Vec) {
				out = vector.NewSizedOfKind(fc.Vec.Kind(), total)
				break
			}
		}
		cols[ci] = relation.Column{Name: fc.Name, Vec: out}
	}
	prob := make([]float64, total)
	// Fetch every input's probability column before fanning out: Prob()
	// initializes lazily, and the same relation may appear as several
	// inputs, so the concurrent tasks must only read.
	probs := make([][]float64, len(ins))
	for k, in := range ins {
		probs[k] = in.Prob()
	}
	// One task per (input, column) pair plus one per input for the
	// probability column; tasks write disjoint ranges of the pre-sized
	// output columns.
	ctx.runRanges(c, taskRanges(len(ins)*(nCols+1)), func(_, lo, _ int) {
		k, ci := lo/(nCols+1), lo%(nCols+1)
		in := ins[k]
		if ci == nCols {
			copy(prob[offs[k]:], probs[k])
			return
		}
		in.Col(ci).Vec.CopyRangeAt(cols[ci].Vec, 0, in.NumRows(), offs[k])
	})
	return relation.FromColumns(cols, prob)
}

// copyCompatible reports whether b can CopyRangeAt into an output column
// allocated from a (same physical representation; for dict-encoded string
// columns, the same frozen dict).
func copyCompatible(a, b vector.Vector) bool {
	if _, ok := a.(*vector.DictStrings); ok {
		return vector.SameDict(a, b)
	}
	_, bDict := b.(*vector.DictStrings)
	return !bDict
}

// taskRanges splits nTasks coarse-grained tasks one per morsel.
func taskRanges(nTasks int) [][2]int {
	out := make([][2]int, nTasks)
	for i := range out {
		out[i] = [2]int{i, i + 1}
	}
	return out
}

// Children implements Node.
func (u *Union) Children() []Node { return []Node{u.L, u.R} }

// Label implements Node.
func (u *Union) Label() string { return "Union" }

// ---------------------------------------------------------------------------
// Subtract

// Subtract computes probabilistic difference: rows of the left input,
// discounted by matching rows of the right input (matching on all visible
// columns of the left input against the same-named columns of the right).
//
// Probabilistic (independent) semantics per PRA: p = pL · (1 − pR) for
// matches, pL for non-matches. With Boolean = true it behaves like SQL
// EXCEPT: matching rows are removed regardless of probability.
type Subtract struct {
	ident
	L, R    Node
	Boolean bool
}

// NewSubtract returns probabilistic difference of l and r.
func NewSubtract(l, r Node, boolean bool) *Subtract {
	h := newHasher("subtract")
	h.bool(boolean)
	return &Subtract{ident: h.finish(l, r), L: l, R: r, Boolean: boolean}
}

// Execute implements Node.
func (s *Subtract) Execute(c context.Context, ctx *Ctx) (*relation.Relation, error) {
	left, right, err := ctx.execPair(c, s.L, s.R)
	if err != nil {
		return nil, err
	}
	names := left.ColumnNames()
	lIdx, err := colPositions(left, names)
	if err != nil {
		return nil, err
	}
	rIdx, err := colPositions(right, names)
	if err != nil {
		return nil, fmt.Errorf("subtract right side: %w", err)
	}
	// Align the left (probe) columns with the right side's key domains —
	// dict-encoded columns index and hash codes, so mixed representations
	// must be decoded or re-encoded before keys compare (see dictkeys.go).
	rKeyVecs := colVecs(right, rIdx)
	lKeyVecs, err := alignProbeVecs(c, ctx, colVecs(left, lIdx), rKeyVecs)
	if err != nil {
		return nil, err
	}
	idx, err := newJoinIndex(c, ctx, rKeyVecs, right.NumRows())
	if err != nil {
		return nil, err
	}
	return antiProbe(c, ctx, left, right, lKeyVecs, rKeyVecs, idx, s.Boolean)
}

// antiProbe keeps the left rows, discounted by their first match in the
// index over the right side's key vectors (removed when boolean).
func antiProbe(c context.Context, ctx *Ctx, left, right *relation.Relation, lKeyVecs, rKeyVecs []vector.Vector, idx *joinIndex, boolean bool) (*relation.Relation, error) {
	// firstMatch sets match[i-lo] to the first right row matching left
	// row i, or -1, for the left rows [lo, hi).
	var firstMatch func(lo, hi int, match []int32)
	if d := idx.dense; d != nil {
		codes, ints, perr := denseProbeKey(c, ctx, lKeyVecs[0])
		if perr != nil {
			return nil, perr
		}
		firstMatch = func(lo, hi int, match []int32) {
			if codes != nil {
				firstDense(c, d, codes, lo, hi, match)
			} else {
				firstDense(c, d, ints, lo, hi, match)
			}
		}
	} else {
		lHash, herr := hashVecsParallel(c, ctx, lKeyVecs, left.NumRows(), idx.seed)
		if herr != nil {
			return nil, herr
		}
		firstMatch = func(lo, hi int, match []int32) {
			for i := lo; i < hi; i++ {
				if i&0x1fff == 0x1fff && c.Err() != nil {
					return
				}
				match[i-lo] = -1
				for _, ri := range idx.buckets.lookup(lHash[i]) {
					if vecsEqual(lKeyVecs, i, rKeyVecs, int(ri)) {
						match[i-lo] = ri
						break
					}
				}
			}
		}
	}
	lp, rp := left.Prob(), right.Prob()

	// Anti-probe in parallel morsels, merged in morsel order (same output
	// order as the serial loop). Every morsel's match list and survivor
	// lists start at one slot per probe row and are retained until the
	// merge; budget that floor (4-byte match, 8-byte row id and 8-byte
	// probability per row) up front.
	if err := ctx.charge(c, int64(left.NumRows())*20); err != nil {
		return nil, err
	}
	ranges := ctx.morselRanges(left.NumRows())
	selParts := make([][]int, len(ranges))
	probParts := make([][]float64, len(ranges))
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		match := make([]int32, hi-lo)
		firstMatch(lo, hi, match)
		if c.Err() != nil {
			return // partial parts are discarded by the check below
		}
		sel := make([]int, 0, hi-lo)
		prob := make([]float64, 0, hi-lo)
		for i := lo; i < hi; i++ {
			switch ri := match[i-lo]; {
			case ri < 0:
				sel = append(sel, i)
				prob = append(prob, lp[i])
			case boolean:
				// removed
			default:
				p := lp[i] * (1 - rp[ri])
				if p > 0 {
					sel = append(sel, i)
					prob = append(prob, p)
				}
			}
		}
		selParts[m], probParts[m] = sel, prob
	})
	if err := c.Err(); err != nil {
		return nil, err
	}
	total := 0
	for _, p := range selParts {
		total += len(p)
	}
	sel := make([]int, 0, total)
	prob := make([]float64, 0, total)
	for m := range selParts {
		sel = append(sel, selParts[m]...)
		prob = append(prob, probParts[m]...)
	}
	out, err := gatherParallel(c, ctx, left, sel)
	if err != nil {
		return nil, err
	}
	out.SetProb(prob)
	return out, nil
}

// Children implements Node.
func (s *Subtract) Children() []Node { return []Node{s.L, s.R} }

// Label implements Node.
func (s *Subtract) Label() string { return "Subtract" }
