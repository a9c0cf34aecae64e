// Package pra implements the Probabilistic Relational Algebra of section
// 2.3 — the algebra of Fuhr and Rölleke (paper reference [8]) extended
// with the relational Bayes of Roelleke et al. (reference [12]) — as a
// typed plan layer compiling onto the relational engine.
//
// PRA plans are positional: columns are addressed $1..$n as in SpinQL.
// Every node knows its output schema statically, and Compile resolves
// each $n to the name its input's schema gives that position, so the
// engine plan addresses columns by name only and arity errors surface
// when the plan is compiled rather than mid-query. Names follow the
// relation rule (relation.UniqueNames): a join or projection that would
// repeat a name numbers the later column name_2, name_3, …, exactly as the
// engine names its output; a name the program gives twice (MAP, GROUP,
// TOKENIZE) is refused at Compile. Each relational operator "defines how
// to compute probability columns"; the assumptions (independent,
// disjoint, ...) select the combination rule.
package pra

import (
	"fmt"
	"slices"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/relation"
)

// Assumption qualifies how an operator combines the probabilities of the
// tuples it merges.
type Assumption int

const (
	// None performs no merging: bag semantics (the plain PROJECT of the
	// paper's SpinQL example, which translates to SQL without DISTINCT).
	None Assumption = iota
	// Independent treats merged tuples as independent events
	// (noisy-or for projection/union, product for join).
	Independent
	// Disjoint treats merged tuples as mutually exclusive events
	// (probability sum, clamped at 1).
	Disjoint
	// Max keeps the strongest supporting event.
	Max
	// SumRaw accumulates probabilities without clamping; not a
	// probability in general, used to sum retrieval-score contributions.
	SumRaw
)

func (a Assumption) String() string {
	switch a {
	case None:
		return ""
	case Independent:
		return "INDEPENDENT"
	case Disjoint:
		return "DISJOINT"
	case Max:
		return "MAX"
	case SumRaw:
		return "SUM"
	}
	return "?"
}

func (a Assumption) groupProb() engine.GroupProb {
	switch a {
	case Disjoint:
		return engine.GroupDisjoint
	case Max:
		return engine.GroupMax
	case SumRaw:
		return engine.GroupSumRaw
	default:
		return engine.GroupIndependent
	}
}

// Node is a PRA plan node.
type Node interface {
	// Schema returns the output column names, in order.
	Schema() []string
	// Compile lowers the node onto the engine.
	Compile() (engine.Node, error)
	// String renders the plan in SpinQL-like concrete syntax.
	String() string
}

// ---------------------------------------------------------------------------
// Base

// Base wraps an engine plan (usually a table scan) as a PRA leaf with a
// declared schema: Cols are the names of the columns Plan produces, in
// order, and $n resolves against them.
type Base struct {
	Name string
	Plan engine.Node
	Cols []string
}

// NewBase declares a PRA leaf over an engine plan.
func NewBase(name string, plan engine.Node, cols ...string) *Base {
	return &Base{Name: name, Plan: plan, Cols: cols}
}

// Schema implements Node.
func (b *Base) Schema() []string { return b.Cols }

// Compile implements Node.
func (b *Base) Compile() (engine.Node, error) {
	if b.Plan == nil {
		return nil, fmt.Errorf("pra: base %q has no plan", b.Name)
	}
	return b.Plan, nil
}

// String implements Node.
func (b *Base) String() string { return b.Name }

// ---------------------------------------------------------------------------
// Select

// Select filters tuples by a condition over positional columns;
// probabilities pass through unchanged.
type Select struct {
	Child Node
	Cond  expr.Expr
}

// NewSelect filters child by cond (built from expr.ColumnAt references).
func NewSelect(child Node, cond expr.Expr) *Select { return &Select{Child: child, Cond: cond} }

// Schema implements Node.
func (s *Select) Schema() []string { return s.Child.Schema() }

// Compile implements Node.
func (s *Select) Compile() (engine.Node, error) {
	child, err := s.Child.Compile()
	if err != nil {
		return nil, err
	}
	cond, err := resolve(s.Cond, s.Child.Schema())
	if err != nil {
		return nil, fmt.Errorf("pra: SELECT %s: %w", s.Cond.String(), err)
	}
	return engine.NewSelect(child, cond), nil
}

// String implements Node.
func (s *Select) String() string {
	return fmt.Sprintf("SELECT [%s] (%s)", s.Cond.String(), s.Child.String())
}

// colName returns the name of the 1-based n-th column of schema: the one
// place a SpinQL position becomes a column name.
func colName(schema []string, n int) (string, error) {
	if n < 1 || n > len(schema) {
		return "", fmt.Errorf("$%d out of range (input has %d columns)", n, len(schema))
	}
	return schema[n-1], nil
}

// resolve returns e with every $n replaced by the column it names in
// schema.
func resolve(e expr.Expr, schema []string) (expr.Expr, error) {
	return expr.Rewrite(e, func(x expr.Expr) (expr.Expr, error) {
		c, ok := x.(expr.ColIdx)
		if !ok {
			return x, nil
		}
		name, err := colName(schema, c.Idx)
		return expr.Column(name), err
	})
}

// checkNames refuses a schema that gives one name to two columns, naming
// the column; op names the operator whose program text gave the names.
func checkNames(op string, names []string) error {
	for i, n := range names {
		if slices.Contains(names[:i], n) {
			return fmt.Errorf("pra: %s names column %q twice", op, n)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Project

// Project keeps the given 1-based column positions. With Assumption None
// it is a bag projection (no duplicate elimination), matching the paper's
// SpinQL-to-SQL example; any other assumption deduplicates and combines
// the probabilities of collapsed tuples under that assumption.
type Project struct {
	Child      Node
	Cols       []int
	Assumption Assumption
}

// NewProject projects child onto 1-based positions cols.
func NewProject(child Node, assumption Assumption, cols ...int) *Project {
	return &Project{Child: child, Cols: cols, Assumption: assumption}
}

// Schema implements Node: the kept columns' names, made unique by
// relation.UniqueNames.
func (p *Project) Schema() []string {
	in := p.Child.Schema()
	out := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		if c >= 1 && c <= len(in) {
			out[i] = in[c-1]
		} else {
			out[i] = fmt.Sprintf("$%d", c)
		}
	}
	return relation.UniqueNames(out)
}

// Compile implements Node.
func (p *Project) Compile() (engine.Node, error) {
	child, err := p.Child.Compile()
	if err != nil {
		return nil, err
	}
	in, names := p.Child.Schema(), p.Schema()
	cols := make([]engine.ProjCol, len(p.Cols))
	for i, c := range p.Cols {
		name, err := colName(in, c)
		if err != nil {
			return nil, fmt.Errorf("pra: PROJECT %w", err)
		}
		cols[i] = engine.ProjCol{Name: names[i], E: expr.Column(name)}
	}
	proj := engine.NewProject(child, cols...)
	if p.Assumption == None {
		return proj, nil
	}
	return engine.NewDistinct(proj, p.Assumption.groupProb()), nil
}

// String implements Node.
func (p *Project) String() string {
	refs := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		refs[i] = fmt.Sprintf("$%d", c)
	}
	op := "PROJECT"
	if p.Assumption != None {
		op += " " + p.Assumption.String()
	}
	return fmt.Sprintf("%s [%s] (%s)", op, strings.Join(refs, ","), p.Child.String())
}
