// Package strategy implements the abstraction layer of section 2.4: search
// strategies are directed acyclic graphs of building blocks, "a convenient
// way to express complex search scenarios declaratively without
// programming efforts". Each block compiles to a relational plan; the
// per-block plans are "combined automatically under the hood".
//
// A strategy is serializable to JSON (the moral equivalent of the paper's
// visual design environment saving a strategy) and compiles into a single
// engine plan, always the same way: with each ranking block's query leaf a
// relation-valued parameter. Prepare optimizes that plan once for every
// query, and a search binds the query into it; Compile binds one query
// string into it directly. A Registry holds installed strategies with
// their prepared plans.
package strategy

import (
	"encoding/json"
	"fmt"
	"sort"

	"irdb/internal/engine"
	"irdb/internal/text"
)

// Block is one building block of a strategy.
type Block struct {
	// ID names the block within the strategy.
	ID string `json:"id"`
	// Type selects the block behaviour (see blocks.go for the registry).
	Type string `json:"type"`
	// Params configures the block; keys depend on Type.
	Params map[string]any `json:"params,omitempty"`
	// Inputs lists the IDs of the blocks feeding this one, in order.
	Inputs []string `json:"inputs,omitempty"`
}

// Strategy is a named DAG of blocks. Output names the block whose result
// is the strategy's result.
type Strategy struct {
	Name   string  `json:"name"`
	Blocks []Block `json:"blocks"`
	Output string  `json:"output"`
}

// Compiler binds the collection-independent strategy to a concrete query
// — the runtime input of Figure 2, where the query-terms list enters the
// Rank block from the right.
type Compiler struct {
	// Query is the user's keyword query (the website search-bar input of
	// section 3).
	Query string
	// Synonyms feeds "expand": true ranking blocks (query expansion with
	// synonyms, production strategy of section 3).
	Synonyms text.SynonymDict
}

// lowering is one compilation of a strategy: the compiler's inputs and,
// by block ID, how each rank-text block turns a raw query into the query
// leaf bound to its parameter.
type lowering struct {
	Compiler
	leaves map[string]func(query string) *engine.Values
}

// Validate checks structural soundness: unique block IDs, defined inputs,
// a defined output, known types, correct arity, and acyclicity.
func (s *Strategy) Validate() error {
	if len(s.Blocks) == 0 {
		return fmt.Errorf("strategy %q: no blocks", s.Name)
	}
	byID := map[string]*Block{}
	for i := range s.Blocks {
		b := &s.Blocks[i]
		if b.ID == "" {
			return fmt.Errorf("strategy %q: block %d has empty id", s.Name, i)
		}
		if _, dup := byID[b.ID]; dup {
			return fmt.Errorf("strategy %q: duplicate block id %q", s.Name, b.ID)
		}
		byID[b.ID] = b
	}
	if s.Output == "" {
		return fmt.Errorf("strategy %q: no output block", s.Name)
	}
	if _, ok := byID[s.Output]; !ok {
		return fmt.Errorf("strategy %q: output block %q not defined", s.Name, s.Output)
	}
	for _, b := range s.Blocks {
		spec, ok := blockTypes[b.Type]
		if !ok {
			return fmt.Errorf("strategy %q: block %q has unknown type %q (known: %v)",
				s.Name, b.ID, b.Type, BlockTypeNames())
		}
		if spec.minInputs == spec.maxInputs && len(b.Inputs) != spec.minInputs {
			return fmt.Errorf("strategy %q: block %q (%s) wants %d input(s), has %d",
				s.Name, b.ID, b.Type, spec.minInputs, len(b.Inputs))
		}
		if len(b.Inputs) < spec.minInputs || (spec.maxInputs >= 0 && len(b.Inputs) > spec.maxInputs) {
			return fmt.Errorf("strategy %q: block %q (%s) wants between %d and %d inputs, has %d",
				s.Name, b.ID, b.Type, spec.minInputs, spec.maxInputs, len(b.Inputs))
		}
		for _, in := range b.Inputs {
			if _, ok := byID[in]; !ok {
				return fmt.Errorf("strategy %q: block %q references undefined input %q", s.Name, b.ID, in)
			}
		}
	}
	// Cycle check via DFS from every node (the graph is small).
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(id string) error
	visit = func(id string) error {
		switch color[id] {
		case grey:
			return fmt.Errorf("strategy %q: cycle through block %q", s.Name, id)
		case black:
			return nil
		}
		color[id] = grey
		for _, in := range byID[id].Inputs {
			if err := visit(in); err != nil {
				return err
			}
		}
		color[id] = black
		return nil
	}
	ids := make([]string, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if err := visit(id); err != nil {
			return err
		}
	}
	return nil
}

// Compile lowers the strategy into one engine plan producing a ranked
// (subject) relation with scores as tuple probabilities, for c's query:
// the plan Prepare optimizes, bound to c.Query. c is not modified.
func (s *Strategy) Compile(c *Compiler) (engine.Node, error) {
	cc := valueOf(c)
	p, err := s.lower(cc)
	if err != nil {
		return nil, err
	}
	return p.Bind(cc.Query)
}

// Prepared is a strategy compiled once for every query: the query leaf of
// each rank-text block is a relation-valued parameter, and Bind
// substitutes the leaves of one query. Prepare's plan is also optimized.
type Prepared struct {
	plan   engine.Node
	leaves map[string]func(query string) *engine.Values
}

// Prepare compiles the strategy under c's analyzer parameters and
// synonyms (c.Query is not read) and optimizes the plan on eng. c is not
// modified.
func (s *Strategy) Prepare(eng *engine.Ctx, c *Compiler) (*Prepared, error) {
	p, err := s.lower(valueOf(c))
	if err != nil {
		return nil, err
	}
	p.plan = eng.Optimize(p.plan)
	return p, nil
}

// lower compiles the strategy under c with the query leaf of each
// rank-text block the relation-valued parameter named by the block's ID.
// c.Query is not read.
func (s *Strategy) lower(c Compiler) (*Prepared, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	l := &lowering{Compiler: c, leaves: map[string]func(string) *engine.Values{}}
	byID := map[string]Block{}
	for _, b := range s.Blocks {
		byID[b.ID] = b
	}
	compiled := map[string]engine.Node{}
	var build func(id string) (engine.Node, error)
	build = func(id string) (engine.Node, error) {
		if n, ok := compiled[id]; ok {
			return n, nil
		}
		b := byID[id]
		inputs := make([]engine.Node, len(b.Inputs))
		for i, in := range b.Inputs {
			n, err := build(in)
			if err != nil {
				return nil, err
			}
			inputs[i] = n
		}
		n, err := blockTypes[b.Type].compile(l, b, inputs)
		if err != nil {
			return nil, fmt.Errorf("strategy %q: block %q: %w", s.Name, b.ID, err)
		}
		compiled[id] = n
		return n, nil
	}
	plan, err := build(s.Output)
	if err != nil {
		return nil, err
	}
	return &Prepared{plan: plan, leaves: l.leaves}, nil
}

// Bind returns the prepared plan for query, at the cost of building its
// query leaves: for a plan from Prepare, the plan Optimize makes of
// Compile for that query.
func (p *Prepared) Bind(query string) (engine.Node, error) {
	return engine.Bindings{Relation: func(name string) (*engine.Values, bool) {
		leaf, ok := p.leaves[name]
		if !ok {
			return nil, false
		}
		return leaf(query), true
	}}.Bind(p.plan)
}

// valueOf returns a copy of c, the zero Compiler when c is nil.
func valueOf(c *Compiler) Compiler {
	if c == nil {
		return Compiler{}
	}
	return *c
}

// NumBlocks reports the number of blocks, the complexity measure of the
// "understandable at a glance" claim of section 3.
func (s *Strategy) NumBlocks() int { return len(s.Blocks) }

// MarshalJSON/Unmarshal round-trip through the plain struct shape; these
// helpers load and save strategy files.

// FromJSON decodes and validates a strategy.
func FromJSON(data []byte) (*Strategy, error) {
	var s Strategy
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("strategy: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}
