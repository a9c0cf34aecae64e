package irdb

import (
	"context"
	"fmt"
	"slices"

	"irdb/internal/engine"
	"irdb/internal/expr"
)

// Stmt is a prepared SpinQL statement: parsed and compiled exactly once,
// executed many times. Statements may contain ?name parameter
// placeholders; Query binds them to literals per execution with a cheap
// structural substitution — no parsing, no compilation, no schema
// checking happens after Prepare.
//
// Sub-plans that do not depend on any parameter are shared by pointer
// between the prepared plan and every bound instance, so their
// fingerprints are the same under every binding. That does not make them
// cached: the materialization cache holds only Materialize sub-plans
// (and join indexes over them), and the SpinQL compiler places none, so
// every execution of a statement runs all of its operators again,
// parameter-free ones included.
//
// A Stmt is immutable and safe for concurrent use.
type Stmt struct {
	db     *DB
	src    string
	plan   engine.Node
	params []string
}

// Prepare parses and compiles a SpinQL program once, returning a
// statement executable with per-call parameter bindings. The program's
// last statement is the result, as with Query.
func (db *DB) Prepare(src string) (*Stmt, error) {
	if err := db.check(); err != nil {
		return nil, err
	}
	naive, plan, err := db.compile(src)
	if err != nil {
		return nil, err
	}
	// Parameter names report in the naive plan's (source) order; the
	// optimizer may move parameterized predicates around.
	return &Stmt{db: db, src: src, plan: plan, params: engine.Params(naive)}, nil
}

// Source returns the statement's SpinQL text.
func (s *Stmt) Source() string { return s.src }

// Params returns the names of the statement's ?name placeholders, in
// first-appearance order.
func (s *Stmt) Params() []string {
	out := make([]string, len(s.params))
	copy(out, s.params)
	return out
}

// Param is one named binding for a ?name placeholder. Value must be a
// string, bool, int, int64 or float64.
type Param struct {
	Name  string
	Value any
}

// P builds a parameter binding: P("cat", "toy") binds ?cat.
func P(name string, value any) Param { return Param{Name: name, Value: value} }

// Query executes the prepared statement with the given parameter
// bindings. Every placeholder must be bound, every binding must name a
// placeholder, and ctx's deadline and cancellation abort the plan
// mid-execution. Re-execution performs zero parse or compile work.
func (s *Stmt) Query(ctx context.Context, params ...Param) (*Result, error) {
	qctx, release, err := s.db.enter(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	plan, err := s.bind(params)
	if err != nil {
		return nil, err
	}
	s.db.queries.Add(1)
	rel, err := s.db.eng.Exec(qctx, plan)
	if err != nil {
		return nil, err
	}
	return &Result{rel: rel}, nil
}

// bind substitutes parameter bindings into the prepared plan,
// validating that every binding names a placeholder and none is bound
// twice. With no placeholders and no bindings it returns the shared
// prepared plan unchanged.
func (s *Stmt) bind(params []Param) (engine.Node, error) {
	plan := s.plan
	if len(s.params) == 0 && len(params) == 0 {
		return plan, nil
	}
	lits := make(map[string]expr.Lit, len(params))
	for _, p := range params {
		lit, err := litValue(p.Value)
		if err != nil {
			return nil, fmt.Errorf("irdb: parameter ?%s: %w", p.Name, err)
		}
		if _, dup := lits[p.Name]; dup {
			return nil, fmt.Errorf("irdb: parameter ?%s bound twice", p.Name)
		}
		lits[p.Name] = lit
	}
	for name := range lits {
		if !slices.Contains(s.params, name) {
			return nil, fmt.Errorf("irdb: no parameter ?%s in statement (has %v)", name, s.params)
		}
	}
	bound, err := engine.Bind(plan, func(name string) (expr.Lit, bool) {
		l, ok := lits[name]
		return l, ok
	})
	if err != nil {
		return nil, fmt.Errorf("irdb: %w", err)
	}
	return bound, nil
}

// litValue converts a Go value to the expression literal it binds as.
func litValue(v any) (expr.Lit, error) {
	switch x := v.(type) {
	case string:
		return expr.Str(x), nil
	case bool:
		return expr.BoolLit(x), nil
	case int:
		return expr.Int(int64(x)), nil
	case int64:
		return expr.Int(x), nil
	case float64:
		return expr.Float(x), nil
	default:
		return expr.Lit{}, fmt.Errorf("unsupported value type %T", v)
	}
}
