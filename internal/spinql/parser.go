package spinql

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"irdb/internal/expr"
	"irdb/internal/pra"
	"irdb/internal/text"
)

// Env supplies the base relations a program may reference, and accumulates
// the relations defined by its statements.
type Env struct {
	bases map[string]pra.Node
}

// NewEnv returns an environment with the given base relations.
func NewEnv() *Env { return &Env{bases: map[string]pra.Node{}} }

// Define registers a named relation (base table or previous result).
func (e *Env) Define(name string, n pra.Node) { e.bases[strings.ToLower(name)] = n }

// Lookup resolves a name.
func (e *Env) Lookup(name string) (pra.Node, bool) {
	n, ok := e.bases[strings.ToLower(name)]
	return n, ok
}

// Names returns the defined names, sorted.
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.bases))
	for n := range e.bases {
		out = append(out, n)
	}
	slices.Sort(out)
	return out
}

// Stmt is one parsed statement.
type Stmt struct {
	// Name is the assigned relation name; empty for a bare expression.
	Name string
	Plan pra.Node
}

// Program is a parsed SpinQL program.
type Program struct {
	Stmts []Stmt
}

// Result returns the plan of the last statement — the program's value.
func (p *Program) Result() pra.Node {
	if len(p.Stmts) == 0 {
		return nil
	}
	return p.Stmts[len(p.Stmts)-1].Plan
}

// Parse parses a SpinQL program against the environment. Named statements
// are added to env as they are parsed, so later statements can reference
// earlier ones, including those of an earlier Parse against the same env.
func Parse(src string, env *Env) (*Program, error) {
	tokens, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{tokens: tokens, env: env}
	prog := &Program{}
	for !p.at(tokEOF) {
		stmt, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		prog.Stmts = append(prog.Stmts, stmt)
		if stmt.Name != "" {
			env.Define(stmt.Name, stmt.Plan)
		}
	}
	if len(prog.Stmts) == 0 {
		return nil, fmt.Errorf("spinql: empty program")
	}
	return prog, nil
}

type parser struct {
	tokens []token
	pos    int
	env    *Env
}

func (p *parser) cur() token          { return p.tokens[p.pos] }
func (p *parser) at(k tokenKind) bool { return p.cur().kind == k }

func (p *parser) atSymbol(s string) bool {
	return p.cur().kind == tokSymbol && p.cur().text == s
}

func (p *parser) advance() token {
	t := p.cur()
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) expectSymbol(s string) error {
	if !p.atSymbol(s) {
		return p.errf("expected %q, got %q", s, p.cur().text)
	}
	p.advance()
	return nil
}

func (p *parser) errf(format string, args ...any) error {
	return fmt.Errorf("spinql: line %d: %s", p.cur().line, fmt.Sprintf(format, args...))
}

// parseStmt parses `name = expr ;` or `expr ;`.
func (p *parser) parseStmt() (Stmt, error) {
	var stmt Stmt
	// Lookahead: IDENT '=' that is not an operator keyword means
	// assignment.
	if p.at(tokIdent) && !isOpKeyword(p.cur().text) &&
		p.pos+1 < len(p.tokens) && p.tokens[p.pos+1].kind == tokSymbol && p.tokens[p.pos+1].text == "=" {
		stmt.Name = p.advance().text
		p.advance() // '='
	}
	plan, err := p.parseExpr()
	if err != nil {
		return stmt, err
	}
	stmt.Plan = plan
	if err := p.expectSymbol(";"); err != nil {
		return stmt, err
	}
	return stmt, nil
}

func isOpKeyword(s string) bool {
	switch strings.ToUpper(s) {
	case "SELECT", "PROJECT", "JOIN", "UNITE", "SUBTRACT", "WEIGHT", "BAYES",
		"MAP", "GROUP", "TOKENIZE":
		return true
	}
	return false
}

func isAssumption(s string) (pra.Assumption, bool) {
	switch strings.ToUpper(s) {
	case "INDEPENDENT":
		return pra.Independent, true
	case "DISJOINT":
		return pra.Disjoint, true
	case "MAX":
		return pra.Max, true
	case "SUM":
		return pra.SumRaw, true
	}
	return pra.None, false
}

// parseExpr parses an operator application or a relation reference.
func (p *parser) parseExpr() (pra.Node, error) {
	if !p.at(tokIdent) {
		return nil, p.errf("expected relation name or operator, got %q", p.cur().text)
	}
	name := p.cur().text
	if !isOpKeyword(name) {
		p.advance()
		n, ok := p.env.Lookup(name)
		if !ok {
			return nil, p.errf("unknown relation %q (defined: %s)", name, strings.Join(p.env.Names(), ", "))
		}
		return n, nil
	}
	op := strings.ToUpper(p.advance().text)

	assumption := pra.None
	if p.at(tokIdent) {
		if a, ok := isAssumption(p.cur().text); ok {
			assumption = a
			p.advance()
		} else {
			return nil, p.errf("unknown assumption %q", p.cur().text)
		}
	}

	if err := p.expectSymbol("["); err != nil {
		return nil, err
	}
	switch op {
	case "SELECT":
		cond, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		if assumption != pra.None {
			return nil, p.errf("SELECT takes no assumption")
		}
		return pra.NewSelect(args[0], cond), nil

	case "PROJECT":
		cols, err := p.parseColRefList()
		if err != nil {
			return nil, err
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		return pra.NewProject(args[0], assumption, cols...), nil

	case "JOIN":
		conds, err := p.parseJoinConds()
		if err != nil {
			return nil, err
		}
		args, err := p.parseOperands(2)
		if err != nil {
			return nil, err
		}
		switch assumption {
		case pra.None:
			assumption = pra.Independent
		case pra.Disjoint, pra.SumRaw:
			return nil, p.errf("JOIN takes INDEPENDENT or MAX, not %s", assumption)
		}
		return pra.NewJoin(args[0], args[1], assumption, conds...), nil

	case "UNITE":
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		args, err := p.parseOperandsAfterBracket(2)
		if err != nil {
			return nil, err
		}
		if assumption == pra.None {
			assumption = pra.Independent
		}
		return pra.NewUnite(args[0], args[1], assumption), nil

	case "SUBTRACT":
		if err := p.expectSymbol("]"); err != nil {
			return nil, err
		}
		args, err := p.parseOperandsAfterBracket(2)
		if err != nil {
			return nil, err
		}
		if assumption != pra.None {
			return nil, p.errf("SUBTRACT takes no assumption")
		}
		return pra.NewSubtract(args[0], args[1]), nil

	case "WEIGHT":
		if !p.at(tokNumber) {
			return nil, p.errf("WEIGHT wants a numeric factor, got %q", p.cur().text)
		}
		f, err := strconv.ParseFloat(p.advance().text, 64)
		if err != nil {
			return nil, p.errf("bad weight: %v", err)
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		if assumption != pra.None {
			return nil, p.errf("WEIGHT takes no assumption")
		}
		return pra.NewWeight(args[0], f), nil

	case "MAP":
		cols, err := p.parseMapCols()
		if err != nil {
			return nil, err
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		if assumption != pra.None {
			return nil, p.errf("MAP takes no assumption")
		}
		return pra.NewMap(args[0], cols...), nil

	case "GROUP":
		keys, aggs, err := p.parseGroupSpec()
		if err != nil {
			return nil, err
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		return pra.NewGroup(args[0], assumption, keys, aggs...), nil

	case "TOKENIZE":
		if !p.at(tokColRef) {
			return nil, p.errf("TOKENIZE wants [$id,$data], got %q", p.cur().text)
		}
		id, err := strconv.Atoi(p.advance().text[1:])
		if err != nil {
			return nil, p.errf("bad column reference")
		}
		if err := p.expectSymbol(","); err != nil {
			return nil, err
		}
		if !p.at(tokColRef) {
			return nil, p.errf("TOKENIZE wants [$id,$data], got %q", p.cur().text)
		}
		data, err := strconv.Atoi(p.advance().text[1:])
		if err != nil {
			return nil, p.errf("bad column reference")
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		if assumption != pra.None {
			return nil, p.errf("TOKENIZE takes no assumption")
		}
		return pra.NewTokenize(args[0], id, data, text.Default()), nil

	case "BAYES":
		var cols []int
		if p.at(tokColRef) {
			var err error
			cols, err = p.parseColRefList()
			if err != nil {
				return nil, err
			}
		} else if err := p.expectSymbol("]"); err != nil {
			return nil, err
		} else {
			args, err := p.parseOperandsAfterBracket(1)
			if err != nil {
				return nil, err
			}
			if assumption == pra.None {
				assumption = pra.Disjoint
			}
			return pra.NewBayes(args[0], assumption), nil
		}
		args, err := p.parseOperands(1)
		if err != nil {
			return nil, err
		}
		if assumption == pra.None {
			assumption = pra.Disjoint
		}
		return pra.NewBayes(args[0], assumption, cols...), nil
	}
	return nil, p.errf("unhandled operator %q", op)
}

// parseOperands consumes "] ( expr {, expr} )" expecting exactly n plans.
func (p *parser) parseOperands(n int) ([]pra.Node, error) {
	if err := p.expectSymbol("]"); err != nil {
		return nil, err
	}
	return p.parseOperandsAfterBracket(n)
}

func (p *parser) parseOperandsAfterBracket(n int) ([]pra.Node, error) {
	if err := p.expectSymbol("("); err != nil {
		return nil, err
	}
	var out []pra.Node
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		out = append(out, e)
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectSymbol(")"); err != nil {
		return nil, err
	}
	if len(out) != n {
		return nil, p.errf("operator wants %d operand(s), got %d", n, len(out))
	}
	return out, nil
}

// parseColRefList parses "$a,$b,..." up to (not including) ']'.
func (p *parser) parseColRefList() ([]int, error) {
	var out []int
	for {
		if !p.at(tokColRef) {
			return nil, p.errf("expected $n column reference, got %q", p.cur().text)
		}
		n, err := strconv.Atoi(p.advance().text[1:])
		if err != nil || n < 1 {
			return nil, p.errf("bad column reference")
		}
		out = append(out, n)
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		return out, nil
	}
}

// parseJoinConds parses "$l=$r {, $l=$r}".
func (p *parser) parseJoinConds() ([]pra.JoinCond, error) {
	var out []pra.JoinCond
	for {
		if !p.at(tokColRef) {
			return nil, p.errf("expected $n in join condition, got %q", p.cur().text)
		}
		l, err := strconv.Atoi(p.advance().text[1:])
		if err != nil {
			return nil, p.errf("bad join column")
		}
		if err := p.expectSymbol("="); err != nil {
			return nil, err
		}
		if !p.at(tokColRef) {
			return nil, p.errf("expected $n after '=' in join condition, got %q", p.cur().text)
		}
		r, err := strconv.Atoi(p.advance().text[1:])
		if err != nil {
			return nil, p.errf("bad join column")
		}
		out = append(out, pra.JoinCond{L: l, R: r})
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		return out, nil
	}
}

// Condition grammar: or-expressions of and-expressions of comparisons,
// with not and parentheses.
func (p *parser) parseCondition() (expr.Expr, error) {
	left, err := p.parseAndCond()
	if err != nil {
		return nil, err
	}
	for p.at(tokIdent) && strings.EqualFold(p.cur().text, "or") {
		p.advance()
		right, err := p.parseAndCond()
		if err != nil {
			return nil, err
		}
		left = expr.Or{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAndCond() (expr.Expr, error) {
	left, err := p.parseNotCond()
	if err != nil {
		return nil, err
	}
	for p.at(tokIdent) && strings.EqualFold(p.cur().text, "and") {
		p.advance()
		right, err := p.parseNotCond()
		if err != nil {
			return nil, err
		}
		left = expr.And{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNotCond() (expr.Expr, error) {
	if p.at(tokIdent) && strings.EqualFold(p.cur().text, "not") {
		p.advance()
		inner, err := p.parseNotCond()
		if err != nil {
			return nil, err
		}
		return expr.Not{E: inner}, nil
	}
	if p.atSymbol("(") {
		p.advance()
		inner, err := p.parseCondition()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (expr.Expr, error) {
	left, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	if !p.at(tokSymbol) {
		return nil, p.errf("expected comparison operator, got %q", p.cur().text)
	}
	var op expr.CmpOp
	switch p.cur().text {
	case "=":
		op = expr.Eq
	case "!=":
		op = expr.Ne
	case "<":
		op = expr.Lt
	case "<=":
		op = expr.Le
	case ">":
		op = expr.Gt
	case ">=":
		op = expr.Ge
	default:
		return nil, p.errf("unknown comparison operator %q", p.cur().text)
	}
	p.advance()
	right, err := p.parseOperand()
	if err != nil {
		return nil, err
	}
	return expr.Cmp{Op: op, L: left, R: right}, nil
}

// parseMapCols parses "expr as name {, expr as name}" up to ']'.
func (p *parser) parseMapCols() ([]pra.MapCol, error) {
	var out []pra.MapCol
	for {
		e, err := p.parseValueExpr()
		if err != nil {
			return nil, err
		}
		if !p.at(tokIdent) || !strings.EqualFold(p.cur().text, "as") {
			return nil, p.errf("expected 'as' after MAP expression, got %q", p.cur().text)
		}
		p.advance()
		if !p.at(tokIdent) {
			return nil, p.errf("expected output column name, got %q", p.cur().text)
		}
		out = append(out, pra.MapCol{As: p.advance().text, E: e})
		if p.atSymbol(",") {
			p.advance()
			continue
		}
		return out, nil
	}
}

// parseGroupSpec parses "[keys ; aggs]" where keys is a possibly empty
// $n list and aggs is a possibly empty "kind($n?) as name" list.
func (p *parser) parseGroupSpec() (keys []int, aggs []pra.GroupAgg, err error) {
	for p.at(tokColRef) {
		n, err := strconv.Atoi(p.advance().text[1:])
		if err != nil || n < 1 {
			return nil, nil, p.errf("bad group key reference")
		}
		keys = append(keys, n)
		if p.atSymbol(",") {
			p.advance()
		}
	}
	if err := p.expectSymbol(";"); err != nil {
		return nil, nil, err
	}
	for p.at(tokIdent) {
		kind := pra.AggKind(strings.ToLower(p.advance().text))
		if err := p.expectSymbol("("); err != nil {
			return nil, nil, err
		}
		col := 0
		if p.at(tokColRef) {
			n, err := strconv.Atoi(p.advance().text[1:])
			if err != nil || n < 1 {
				return nil, nil, p.errf("bad aggregate argument")
			}
			col = n
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, nil, err
		}
		if !p.at(tokIdent) || !strings.EqualFold(p.cur().text, "as") {
			return nil, nil, p.errf("expected 'as' after aggregate, got %q", p.cur().text)
		}
		p.advance()
		if !p.at(tokIdent) {
			return nil, nil, p.errf("expected aggregate output name, got %q", p.cur().text)
		}
		aggs = append(aggs, pra.GroupAgg{Kind: kind, Col: col, As: p.advance().text})
		if p.atSymbol(",") {
			p.advance()
		}
	}
	return keys, aggs, nil
}

// Value-expression grammar for MAP: +,- over *,/ over primaries; primaries
// are $n, literals, and registered function calls like
// stem(lcase($2),"sb-english").
func (p *parser) parseValueExpr() (expr.Expr, error) {
	left, err := p.parseMulExpr()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("+") || p.atSymbol("-") {
		op := expr.Add
		if p.cur().text == "-" {
			op = expr.Sub
		}
		p.advance()
		right, err := p.parseMulExpr()
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseMulExpr() (expr.Expr, error) {
	left, err := p.parseValuePrimary()
	if err != nil {
		return nil, err
	}
	for p.atSymbol("*") || p.atSymbol("/") {
		op := expr.Mul
		if p.cur().text == "/" {
			op = expr.Div
		}
		p.advance()
		right, err := p.parseValuePrimary()
		if err != nil {
			return nil, err
		}
		left = expr.Arith{Op: op, L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseValuePrimary() (expr.Expr, error) {
	switch {
	case p.atSymbol("("):
		p.advance()
		inner, err := p.parseValueExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return inner, nil
	case p.at(tokIdent):
		name := p.advance().text
		if _, ok := expr.LookupFunc(name); !ok {
			return nil, p.errf("unknown function %q", name)
		}
		if err := p.expectSymbol("("); err != nil {
			return nil, err
		}
		var args []expr.Expr
		if !p.atSymbol(")") {
			for {
				a, err := p.parseValueExpr()
				if err != nil {
					return nil, err
				}
				args = append(args, a)
				if p.atSymbol(",") {
					p.advance()
					continue
				}
				break
			}
		}
		if err := p.expectSymbol(")"); err != nil {
			return nil, err
		}
		return expr.NewCall(name, args...), nil
	default:
		return p.parseOperand()
	}
}

func (p *parser) parseOperand() (expr.Expr, error) {
	switch {
	case p.at(tokColRef):
		n, err := strconv.Atoi(p.advance().text[1:])
		if err != nil || n < 1 {
			return nil, p.errf("bad column reference")
		}
		return expr.ColumnAt(n), nil
	case p.at(tokParam):
		return expr.Param{Name: p.advance().text}, nil
	case p.at(tokString):
		return expr.Str(p.advance().text), nil
	case p.at(tokNumber):
		text := p.advance().text
		if strings.Contains(text, ".") {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return nil, p.errf("bad number %q", text)
			}
			return expr.Float(f), nil
		}
		i, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return nil, p.errf("bad number %q", text)
		}
		return expr.Int(i), nil
	default:
		return nil, p.errf("expected $n, ?param, string or number, got %q", p.cur().text)
	}
}
