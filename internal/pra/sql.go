package pra

import (
	"fmt"
	"strings"

	"irdb/internal/expr"
)

// ToSQL renders a PRA plan as the SQL a probabilistic relational database
// would run — the translation step the paper illustrates for SpinQL:
// "these [probability computations] are only made explicit upon
// translation into SQL" (section 2.3).
//
// Plans made of SELECT / JOIN / plain PROJECT / WEIGHT over base tables
// flatten into a single SELECT with a FROM list and a conjunctive WHERE,
// matching the paper's example translation. Deduplicating projections,
// unions, subtraction and Bayes emit nested sub-selects.
func ToSQL(n Node) (string, error) {
	q, err := (&emitter{}).emit(n)
	if err != nil {
		return "", err
	}
	return q.sql(), nil
}

// query is a single flattened SELECT block.
type query struct {
	from     []string // "triples t1"
	where    []string
	probExpr string // "t1.p * t2.p"
	// cols maps output position (0-based) to the SQL expression
	// addressing that column, and names holds output column names.
	cols  []string
	names []string
}

func (q *query) sql() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	sel := make([]string, 0, len(q.cols)+1)
	for i := range q.cols {
		if q.cols[i] == q.names[i] {
			sel = append(sel, q.cols[i])
		} else {
			sel = append(sel, fmt.Sprintf("%s as %s", q.cols[i], q.names[i]))
		}
	}
	sel = append(sel, fmt.Sprintf("%s as p", q.probExpr))
	b.WriteString(strings.Join(sel, ", "))
	b.WriteString("\nFROM ")
	b.WriteString(strings.Join(q.from, ", "))
	if len(q.where) > 0 {
		b.WriteString("\nWHERE ")
		b.WriteString(strings.Join(q.where, "\n  AND "))
	}
	return b.String()
}

// emitter renders one plan. It numbers table and subquery aliases per
// call, so equal plans render to equal SQL and concurrent calls share no
// state.
type emitter struct {
	aliases int
}

func (e *emitter) emit(n Node) (*query, error) {
	switch x := n.(type) {
	case *Base:
		e.aliases++
		alias := fmt.Sprintf("t%d", e.aliases)
		q := &query{from: []string{x.Name + " " + alias}, probExpr: alias + ".p"}
		for _, c := range x.Cols {
			q.cols = append(q.cols, alias+"."+c)
			q.names = append(q.names, c)
		}
		return q, nil

	case *Select:
		q, err := e.emit(x.Child)
		if err != nil {
			return nil, err
		}
		cond, err := sqlExpr(x.Cond, q.cols)
		if err != nil {
			return nil, err
		}
		q.where = append(q.where, cond)
		return q, nil

	case *Join:
		lq, err := e.emit(x.L)
		if err != nil {
			return nil, err
		}
		rq, err := e.emit(x.R)
		if err != nil {
			return nil, err
		}
		out := &query{
			from:  append(append([]string{}, lq.from...), rq.from...),
			where: append(append([]string{}, lq.where...), rq.where...),
		}
		for _, c := range x.Conds {
			if c.L < 1 || c.L > len(lq.cols) || c.R < 1 || c.R > len(rq.cols) {
				return nil, fmt.Errorf("pra: JOIN condition $%d=$%d out of range", c.L, c.R)
			}
			out.where = append(out.where, fmt.Sprintf("%s = %s", lq.cols[c.L-1], rq.cols[c.R-1]))
		}
		out.cols = append(append([]string{}, lq.cols...), rq.cols...)
		out.names = x.Schema()
		if x.Assumption == Max {
			out.probExpr = lq.probExpr
		} else {
			out.probExpr = lq.probExpr + " * " + rq.probExpr
		}
		return out, nil

	case *Project:
		q, err := e.emit(x.Child)
		if err != nil {
			return nil, err
		}
		out := &query{from: q.from, where: q.where, probExpr: q.probExpr, names: x.Schema()}
		for _, c := range x.Cols {
			if c < 1 || c > len(q.cols) {
				return nil, fmt.Errorf("pra: PROJECT $%d out of range", c)
			}
			out.cols = append(out.cols, q.cols[c-1])
		}
		if x.Assumption == None {
			return out, nil
		}
		// Deduplicating projection: wrap in GROUP BY with the probability
		// aggregate of the assumption.
		inner := out.sql()
		agg := probAggSQL(x.Assumption)
		sub := &query{
			from:     []string{"(\n" + indent(inner) + "\n) sub"},
			probExpr: agg,
		}
		var groupCols []string
		for _, name := range out.names {
			sub.cols = append(sub.cols, name)
			sub.names = append(sub.names, name)
			groupCols = append(groupCols, name)
		}
		sub.where = nil
		q2 := sub.sql() + "\nGROUP BY " + strings.Join(groupCols, ", ")
		return e.opaque(q2, out.names), nil

	case *Weight:
		q, err := e.emit(x.Child)
		if err != nil {
			return nil, err
		}
		q.probExpr = fmt.Sprintf("%g * %s", x.Factor, parenthesize(q.probExpr))
		return q, nil

	case *Unite:
		lq, err := e.emit(x.L)
		if err != nil {
			return nil, err
		}
		rq, err := e.emit(x.R)
		if err != nil {
			return nil, err
		}
		rqAligned := *rq
		rqAligned.names = lq.names
		union := "(\n" + indent(lq.sql()) + "\nUNION ALL\n" + indent(rqAligned.sql()) + "\n) u"
		if x.Assumption == None {
			return e.opaque("SELECT * FROM "+union, lq.names), nil
		}
		sel := append(append([]string{}, lq.names...), probAggSQL(x.Assumption)+" as p")
		q2 := "SELECT " + strings.Join(sel, ", ") + "\nFROM " + union +
			"\nGROUP BY " + strings.Join(lq.names, ", ")
		return e.opaque(q2, lq.names), nil

	case *Subtract:
		lq, err := e.emit(x.L)
		if err != nil {
			return nil, err
		}
		rq, err := e.emit(x.R)
		if err != nil {
			return nil, err
		}
		rqAligned := *rq
		rqAligned.names = lq.names
		var conds []string
		for _, name := range lq.names {
			conds = append(conds, fmt.Sprintf("l.%s = r.%s", name, name))
		}
		q2 := fmt.Sprintf("SELECT %s, l.p * (1 - coalesce(r.p, 0)) as p\nFROM (\n%s\n) l LEFT JOIN (\n%s\n) r ON %s",
			prefixAll("l.", lq.names), indent(lq.sql()), indent(rqAligned.sql()), strings.Join(conds, " AND "))
		return e.opaque(q2, lq.names), nil

	case *Bayes:
		q, err := e.emit(x.Child)
		if err != nil {
			return nil, err
		}
		inner := q.sql()
		part := ""
		if len(x.Keys) > 0 {
			var keys []string
			for _, k := range x.Keys {
				if k < 1 || k > len(q.names) {
					return nil, fmt.Errorf("pra: BAYES $%d out of range", k)
				}
				keys = append(keys, q.names[k-1])
			}
			part = " PARTITION BY " + strings.Join(keys, ", ")
		}
		aggFn := "sum"
		if x.Norm == Max {
			aggFn = "max"
		}
		q2 := fmt.Sprintf("SELECT %s, p / %s(p) OVER (%s) as p\nFROM (\n%s\n) sub",
			strings.Join(q.names, ", "), aggFn, strings.TrimSpace(part), indent(inner))
		return e.opaque(q2, q.names), nil

	default:
		return nil, fmt.Errorf("pra: no SQL translation for %T", n)
	}
}

// opaque wraps fully rendered SQL so parents treat it as a subquery.
func (e *emitter) opaque(sql string, names []string) *query {
	e.aliases++
	alias := fmt.Sprintf("q%d", e.aliases)
	q := &query{
		from:     []string{"(\n" + indent(sql) + "\n) " + alias},
		probExpr: alias + ".p",
	}
	for _, n := range names {
		q.cols = append(q.cols, alias+"."+n)
		q.names = append(q.names, n)
	}
	return q
}

func probAggSQL(a Assumption) string {
	switch a {
	case Independent:
		return "1 - exp(sum(ln(1 - p)))"
	case Disjoint:
		return "least(1, sum(p))"
	case Max:
		return "max(p)"
	case SumRaw:
		return "sum(p)"
	}
	return "max(p)"
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "  " + lines[i]
	}
	return strings.Join(lines, "\n")
}

func prefixAll(prefix string, names []string) string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = prefix + n
	}
	return strings.Join(out, ", ")
}

func parenthesize(s string) string {
	if strings.ContainsAny(s, " +-*/") {
		return "(" + s + ")"
	}
	return s
}

// sqlExpr renders a positional condition with $n replaced by the SQL
// column expressions of the current block.
func sqlExpr(e expr.Expr, cols []string) (string, error) {
	switch x := e.(type) {
	case expr.ColIdx:
		if x.Idx < 1 || x.Idx > len(cols) {
			return "", fmt.Errorf("pra: $%d out of range in condition", x.Idx)
		}
		return cols[x.Idx-1], nil
	case expr.Col:
		return x.Name, nil
	case expr.Lit:
		if s, ok := x.Value.(string); ok {
			return "'" + strings.ReplaceAll(s, "'", "''") + "'", nil
		}
		return x.String(), nil
	case expr.Cmp:
		l, err := sqlExpr(x.L, cols)
		if err != nil {
			return "", err
		}
		r, err := sqlExpr(x.R, cols)
		if err != nil {
			return "", err
		}
		op := x.Op.String()
		if op == "!=" {
			op = "<>"
		}
		return fmt.Sprintf("%s %s %s", l, op, r), nil
	case expr.And:
		l, err := sqlExpr(x.L, cols)
		if err != nil {
			return "", err
		}
		r, err := sqlExpr(x.R, cols)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s AND %s", l, r), nil
	case expr.Or:
		l, err := sqlExpr(x.L, cols)
		if err != nil {
			return "", err
		}
		r, err := sqlExpr(x.R, cols)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s OR %s)", l, r), nil
	case expr.Not:
		c, err := sqlExpr(x.E, cols)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("NOT (%s)", c), nil
	case expr.Param:
		// Parameter placeholders render as the SQL named-parameter form.
		return ":" + x.Name, nil
	case expr.Arith:
		l, err := sqlExpr(x.L, cols)
		if err != nil {
			return "", err
		}
		r, err := sqlExpr(x.R, cols)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("(%s %s %s)", l, x.Op.String(), r), nil
	default:
		return "", fmt.Errorf("pra: no SQL rendering for expression %T", e)
	}
}
