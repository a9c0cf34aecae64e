package pra

import (
	"fmt"
	"strings"

	"irdb/internal/engine"
	"irdb/internal/expr"
	"irdb/internal/text"
)

// The operators in this file extend the core PRA of Fuhr/Rölleke with the
// computation forms the paper's retrieval models need: computed
// projections (MAP), grouping with aggregates (GROUP) and the tokenizer
// table function (TOKENIZE). Together they make BM25 expressible entirely
// in SpinQL, as the paper states ("Block Rank by Text BM25 contains the
// BM25 implementation … expressed in SpinQL rather than SQL").

// ---------------------------------------------------------------------------
// Map

// MapCol is one computed output column.
type MapCol struct {
	As string
	E  expr.Expr // positional ($n) references into the child
}

// Map projects computed expressions, keeping tuple probabilities.
type Map struct {
	Child Node
	Cols  []MapCol
}

// NewMap builds a computed projection.
func NewMap(child Node, cols ...MapCol) *Map { return &Map{Child: child, Cols: cols} }

// Schema implements Node.
func (m *Map) Schema() []string {
	out := make([]string, len(m.Cols))
	for i, c := range m.Cols {
		out[i] = c.As
	}
	return out
}

// Compile implements Node.
func (m *Map) Compile() (engine.Node, error) {
	if len(m.Cols) == 0 {
		return nil, fmt.Errorf("pra: MAP with no columns")
	}
	child, err := m.Child.Compile()
	if err != nil {
		return nil, err
	}
	if err := checkNames("MAP", m.Schema()); err != nil {
		return nil, err
	}
	in := m.Child.Schema()
	cols := make([]engine.ProjCol, len(m.Cols))
	for i, c := range m.Cols {
		e, err := resolve(c.E, in)
		if err != nil {
			return nil, fmt.Errorf("pra: MAP %s: %w", c.As, err)
		}
		cols[i] = engine.ProjCol{Name: c.As, E: e}
	}
	return engine.NewProject(child, cols...), nil
}

// String implements Node.
func (m *Map) String() string {
	parts := make([]string, len(m.Cols))
	for i, c := range m.Cols {
		parts[i] = fmt.Sprintf("%s as %s", c.E.String(), c.As)
	}
	return fmt.Sprintf("MAP [%s] (%s)", strings.Join(parts, ", "), m.Child.String())
}

// ---------------------------------------------------------------------------
// Group

// AggKind names an aggregate function usable in GROUP.
type AggKind string

// Aggregates supported by GROUP.
const (
	AggCount   AggKind = "count"
	AggSum     AggKind = "sum"
	AggAvg     AggKind = "avg"
	AggMin     AggKind = "min"
	AggMax     AggKind = "max"
	AggSumProb AggKind = "sump" // sum of tuple probabilities as a value
	AggMaxProb AggKind = "maxp"
)

// GroupAgg is one aggregate output of a GROUP.
type GroupAgg struct {
	Kind AggKind
	Col  int // 1-based argument column; 0 for count()/sump()/maxp()
	As   string
}

// Group aggregates its input by the (1-based) key columns. The assumption
// selects the output tuple probability: None → certain (SQL semantics),
// otherwise the probabilistic projection semantics (disjoint sums member
// probabilities, independent noisy-ors them, …).
type Group struct {
	Child      Node
	Keys       []int
	Aggs       []GroupAgg
	Assumption Assumption
}

// NewGroup builds a grouping node.
func NewGroup(child Node, assumption Assumption, keys []int, aggs ...GroupAgg) *Group {
	return &Group{Child: child, Keys: keys, Aggs: aggs, Assumption: assumption}
}

// Schema implements Node.
func (g *Group) Schema() []string {
	in := g.Child.Schema()
	out := make([]string, 0, len(g.Keys)+len(g.Aggs))
	for _, k := range g.Keys {
		if k >= 1 && k <= len(in) {
			out = append(out, in[k-1])
		} else {
			out = append(out, fmt.Sprintf("$%d", k))
		}
	}
	for _, a := range g.Aggs {
		out = append(out, a.As)
	}
	return out
}

// Compile implements Node.
func (g *Group) Compile() (engine.Node, error) {
	child, err := g.Child.Compile()
	if err != nil {
		return nil, err
	}
	in := g.Child.Schema()
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		if keys[i], err = colName(in, k); err != nil {
			return nil, fmt.Errorf("pra: GROUP key %w", err)
		}
	}
	if err := checkNames("GROUP", g.Schema()); err != nil {
		return nil, err
	}
	aggs := make([]engine.AggSpec, len(g.Aggs))
	for i, a := range g.Aggs {
		spec := engine.AggSpec{As: a.As}
		switch a.Kind {
		case AggCount:
			spec.Op = engine.CountAll
		case AggSumProb:
			spec.Op = engine.SumProb
		case AggMaxProb:
			spec.Op = engine.MaxProb
		case AggSum, AggAvg, AggMin, AggMax:
			if spec.Col, err = colName(in, a.Col); err != nil {
				return nil, fmt.Errorf("pra: GROUP %s: %w", a.Kind, err)
			}
			switch a.Kind {
			case AggSum:
				spec.Op = engine.Sum
			case AggAvg:
				spec.Op = engine.Avg
			case AggMin:
				spec.Op = engine.Min
			case AggMax:
				spec.Op = engine.Max
			}
		default:
			return nil, fmt.Errorf("pra: unknown aggregate %q", a.Kind)
		}
		aggs[i] = spec
	}
	pmode := engine.GroupCertain
	if g.Assumption != None {
		pmode = g.Assumption.groupProb()
	}
	return engine.NewAggregate(child, keys, aggs, pmode), nil
}

// String implements Node.
func (g *Group) String() string {
	keyRefs := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keyRefs[i] = fmt.Sprintf("$%d", k)
	}
	aggParts := make([]string, len(g.Aggs))
	for i, a := range g.Aggs {
		arg := ""
		if a.Col > 0 {
			arg = fmt.Sprintf("$%d", a.Col)
		}
		aggParts[i] = fmt.Sprintf("%s(%s) as %s", a.Kind, arg, a.As)
	}
	op := "GROUP"
	if g.Assumption != None {
		op += " " + g.Assumption.String()
	}
	return fmt.Sprintf("%s [%s ; %s] (%s)", op,
		strings.Join(keyRefs, ","), strings.Join(aggParts, ", "), g.Child.String())
}

// ---------------------------------------------------------------------------
// TokenizeOp

// TokenizeOp is the tokenizer table function of section 2.1 as a PRA
// operator: input columns $ID (document key) and $Data (text) produce one
// row per token: (id, token, pos).
type TokenizeOp struct {
	Child   Node
	IDCol   int // 1-based
	DataCol int // 1-based
	Tok     text.Tokenizer
}

// NewTokenize builds the tokenizer operator.
func NewTokenize(child Node, idCol, dataCol int, tok text.Tokenizer) *TokenizeOp {
	return &TokenizeOp{Child: child, IDCol: idCol, DataCol: dataCol, Tok: tok}
}

// Schema implements Node.
func (t *TokenizeOp) Schema() []string {
	in := t.Child.Schema()
	id := fmt.Sprintf("$%d", t.IDCol)
	if t.IDCol >= 1 && t.IDCol <= len(in) {
		id = in[t.IDCol-1]
	}
	return []string{id, "token", "pos"}
}

// Compile implements Node.
func (t *TokenizeOp) Compile() (engine.Node, error) {
	child, err := t.Child.Compile()
	if err != nil {
		return nil, err
	}
	in := t.Child.Schema()
	id, err := colName(in, t.IDCol)
	if err != nil {
		return nil, fmt.Errorf("pra: TOKENIZE id %w", err)
	}
	data, err := colName(in, t.DataCol)
	if err != nil {
		return nil, fmt.Errorf("pra: TOKENIZE data %w", err)
	}
	if err := checkNames("TOKENIZE", t.Schema()); err != nil {
		return nil, err
	}
	return engine.NewTokenize(child, id, data, t.Tok, false), nil
}

// String implements Node.
func (t *TokenizeOp) String() string {
	return fmt.Sprintf("TOKENIZE [$%d,$%d] (%s)", t.IDCol, t.DataCol, t.Child.String())
}
