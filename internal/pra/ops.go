package pra

import (
	"fmt"
	"slices"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
)

// ---------------------------------------------------------------------------
// Join

// JoinCond is one positional equality condition between the left and
// right inputs: left column $L equals right column $R (both 1-based,
// each relative to its own input, as in SpinQL's JOIN [$1=$1]). Compile
// resolves both to names.
type JoinCond struct{ L, R int }

// Join is the probabilistic equi-join. Under Independent, matching tuple
// probabilities multiply ("t1.p * t2.p" in the paper's translation);
// Max keeps the left probability treating the right side as a filter.
// Output schema is the concatenation of both inputs' columns, named by
// relation.UniqueNames as the engine names them.
type Join struct {
	L, R       Node
	Conds      []JoinCond
	Assumption Assumption
}

// NewJoin joins l and r under the given assumption.
func NewJoin(l, r Node, assumption Assumption, conds ...JoinCond) *Join {
	return &Join{L: l, R: r, Conds: conds, Assumption: assumption}
}

// Schema implements Node.
func (j *Join) Schema() []string {
	return relation.UniqueNames(slices.Concat(j.L.Schema(), j.R.Schema()))
}

// Compile implements Node.
func (j *Join) Compile() (engine.Node, error) {
	if len(j.Conds) == 0 {
		return nil, fmt.Errorf("pra: JOIN needs at least one condition")
	}
	lc, err := j.L.Compile()
	if err != nil {
		return nil, err
	}
	rc, err := j.R.Compile()
	if err != nil {
		return nil, err
	}
	ls, rs := j.L.Schema(), j.R.Schema()
	lkeys := make([]string, len(j.Conds))
	rkeys := make([]string, len(j.Conds))
	for i, c := range j.Conds {
		if lkeys[i], err = colName(ls, c.L); err != nil {
			return nil, fmt.Errorf("pra: JOIN left %w", err)
		}
		if rkeys[i], err = colName(rs, c.R); err != nil {
			return nil, fmt.Errorf("pra: JOIN right %w", err)
		}
	}
	mode := engine.JoinIndependent
	if j.Assumption == Max {
		mode = engine.JoinLeft
	}
	return engine.NewHashJoin(lc, rc, lkeys, rkeys, mode), nil
}

// String implements Node.
func (j *Join) String() string {
	conds := make([]string, len(j.Conds))
	for i, c := range j.Conds {
		conds[i] = fmt.Sprintf("$%d=$%d", c.L, c.R)
	}
	op := "JOIN"
	if j.Assumption != None {
		op += " " + j.Assumption.String()
	}
	return fmt.Sprintf("%s [%s] (%s, %s)", op, strings.Join(conds, ","), j.L.String(), j.R.String())
}

// ---------------------------------------------------------------------------
// Unite

// Unite is the probabilistic union: inputs must be schema-compatible;
// duplicate tuples across inputs are merged under the assumption
// (independent → noisy-or, disjoint → clamped sum, max → max). It
// compiles to a bag Union of both inputs under a Distinct that merges the
// duplicates; the bag assumption None keeps the Union alone.
type Unite struct {
	L, R       Node
	Assumption Assumption
}

// NewUnite unions l and r under the assumption.
func NewUnite(l, r Node, assumption Assumption) *Unite {
	return &Unite{L: l, R: r, Assumption: assumption}
}

// Schema implements Node.
func (u *Unite) Schema() []string { return u.L.Schema() }

// Compile implements Node.
func (u *Unite) Compile() (engine.Node, error) {
	if len(u.L.Schema()) != len(u.R.Schema()) {
		return nil, fmt.Errorf("pra: UNITE arity mismatch: %d vs %d columns",
			len(u.L.Schema()), len(u.R.Schema()))
	}
	lc, err := u.L.Compile()
	if err != nil {
		return nil, err
	}
	rc, err := u.R.Compile()
	if err != nil {
		return nil, err
	}
	bag := engine.NewUnion(lc, rc)
	if u.Assumption == None {
		return bag, nil
	}
	return engine.NewDistinct(bag, u.Assumption.groupProb()), nil
}

// String implements Node.
func (u *Unite) String() string {
	op := "UNITE"
	if u.Assumption != None {
		op += " " + u.Assumption.String()
	}
	return fmt.Sprintf("%s [] (%s, %s)", op, u.L.String(), u.R.String())
}

// ---------------------------------------------------------------------------
// Subtract

// Subtract is the probabilistic difference: left tuples discounted by
// matching right tuples, p = pL · (1 − pR).
type Subtract struct {
	L, R Node
}

// NewSubtract subtracts r from l.
func NewSubtract(l, r Node) *Subtract { return &Subtract{L: l, R: r} }

// Schema implements Node.
func (s *Subtract) Schema() []string { return s.L.Schema() }

// Compile implements Node.
func (s *Subtract) Compile() (engine.Node, error) {
	if len(s.L.Schema()) != len(s.R.Schema()) {
		return nil, fmt.Errorf("pra: SUBTRACT arity mismatch: %d vs %d columns",
			len(s.L.Schema()), len(s.R.Schema()))
	}
	lc, err := s.L.Compile()
	if err != nil {
		return nil, err
	}
	rc, err := s.R.Compile()
	if err != nil {
		return nil, err
	}
	// The engine matches on column names of the left input; align the
	// right input's names positionally first: its i-th column takes the
	// left's i-th name.
	names, rnames := s.L.Schema(), s.R.Schema()
	cols := make([]engine.ProjCol, len(names))
	for i, name := range names {
		cols[i] = engine.ProjCol{Name: name, E: expr.Column(rnames[i])}
	}
	return engine.NewSubtract(lc, engine.NewProject(rc, cols...), false), nil
}

// String implements Node.
func (s *Subtract) String() string {
	return fmt.Sprintf("SUBTRACT [] (%s, %s)", s.L.String(), s.R.String())
}

// ---------------------------------------------------------------------------
// Weight

// Weight scales every tuple probability by a constant in [0,1] — the
// weighting used by the linear mix of Figure 3 ("mixed via linear
// combination, with the given weights").
type Weight struct {
	Child  Node
	Factor float64
}

// NewWeight scales child's probabilities by factor.
func NewWeight(child Node, factor float64) *Weight {
	return &Weight{Child: child, Factor: factor}
}

// Schema implements Node.
func (w *Weight) Schema() []string { return w.Child.Schema() }

// Compile implements Node.
func (w *Weight) Compile() (engine.Node, error) {
	if w.Factor < 0 || w.Factor > 1 {
		return nil, fmt.Errorf("pra: WEIGHT factor %g outside [0,1]", w.Factor)
	}
	c, err := w.Child.Compile()
	if err != nil {
		return nil, err
	}
	return engine.NewScaleProb(c, w.Factor), nil
}

// String implements Node.
func (w *Weight) String() string {
	return fmt.Sprintf("WEIGHT [%g] (%s)", w.Factor, w.Child.String())
}

// ---------------------------------------------------------------------------
// Bayes

// Bayes is the relational Bayes of Roelleke et al. (reference [12]): it
// normalizes tuple probabilities by an aggregate over the evidence-key
// columns, turning arbitrary positive scores into probabilities. With an
// empty key the whole relation is the evidence.
type Bayes struct {
	Child Node
	Keys  []int // 1-based evidence-key positions; empty = global
	Norm  Assumption
}

// NewBayes normalizes child within evidence-key groups. norm must be
// Disjoint (sum normalization — the classical relational Bayes) or Max
// (max normalization).
func NewBayes(child Node, norm Assumption, keys ...int) *Bayes {
	return &Bayes{Child: child, Keys: keys, Norm: norm}
}

// Schema implements Node.
func (b *Bayes) Schema() []string { return b.Child.Schema() }

// Compile implements Node.
func (b *Bayes) Compile() (engine.Node, error) {
	c, err := b.Child.Compile()
	if err != nil {
		return nil, err
	}
	in := b.Child.Schema()
	keys := make([]string, len(b.Keys))
	for i, k := range b.Keys {
		if keys[i], err = colName(in, k); err != nil {
			return nil, fmt.Errorf("pra: BAYES %w", err)
		}
	}
	var mode engine.NormMode
	switch b.Norm {
	case Disjoint:
		mode = engine.NormSum
	case Max:
		mode = engine.NormMax
	default:
		return nil, fmt.Errorf("pra: BAYES assumption must be DISJOINT or MAX, got %s", b.Norm)
	}
	return engine.NewNormalize(c, keys, mode), nil
}

// String implements Node.
func (b *Bayes) String() string {
	refs := make([]string, len(b.Keys))
	for i, k := range b.Keys {
		refs[i] = fmt.Sprintf("$%d", k)
	}
	return fmt.Sprintf("BAYES %s [%s] (%s)", b.Norm, strings.Join(refs, ","), b.Child.String())
}
