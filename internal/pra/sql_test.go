package pra

import (
	"strings"
	"testing"

	"irdb/internal/engine"
	"irdb/internal/expr"
)

func sqlBase() *Base {
	return NewBase("triples", engine.NewScan("triples"), "subject", "property", "object")
}

func mustSQL(t *testing.T, n Node) string {
	t.Helper()
	sql, err := ToSQL(n)
	if err != nil {
		t.Fatalf("ToSQL(%s): %v", n.String(), err)
	}
	return sql
}

func TestSQLProjectWithAssumption(t *testing.T) {
	base := sqlBase()
	sql := mustSQL(t, NewProject(base, Independent, 1))
	for _, want := range []string{"GROUP BY subject", "1 - exp(sum(ln(1 - p)))"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q:\n%s", want, sql)
		}
	}
	sqlD := mustSQL(t, NewProject(base, Disjoint, 1))
	if !strings.Contains(sqlD, "least(1, sum(p))") {
		t.Errorf("disjoint aggregate missing:\n%s", sqlD)
	}
	sqlM := mustSQL(t, NewProject(base, Max, 1))
	if !strings.Contains(sqlM, "max(p)") {
		t.Errorf("max aggregate missing:\n%s", sqlM)
	}
	sqlS := mustSQL(t, NewProject(base, SumRaw, 1))
	if !strings.Contains(sqlS, "sum(p)") {
		t.Errorf("sum aggregate missing:\n%s", sqlS)
	}
}

func TestSQLUnite(t *testing.T) {
	base := sqlBase()
	a := NewProject(base, None, 1)
	sql := mustSQL(t, NewUnite(a, a, Independent))
	for _, want := range []string{"UNION ALL", "GROUP BY subject"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q:\n%s", want, sql)
		}
	}
	// bag union (no assumption)
	sqlBag := mustSQL(t, NewUnite(a, a, None))
	if !strings.Contains(sqlBag, "UNION ALL") || strings.Contains(sqlBag, "GROUP BY") {
		t.Errorf("bag union wrong:\n%s", sqlBag)
	}
}

func TestSQLSubtract(t *testing.T) {
	base := sqlBase()
	a := NewProject(base, None, 1)
	sql := mustSQL(t, NewSubtract(a, a))
	for _, want := range []string{"LEFT JOIN", "l.p * (1 - coalesce(r.p, 0))", "l.subject = r.subject"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q:\n%s", want, sql)
		}
	}
}

func TestSQLBayes(t *testing.T) {
	base := sqlBase()
	sql := mustSQL(t, NewBayes(base, Disjoint, 2))
	for _, want := range []string{"OVER (PARTITION BY property)", "p / sum(p)"} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q:\n%s", want, sql)
		}
	}
	// global max normalization
	sqlG := mustSQL(t, NewBayes(base, Max))
	if !strings.Contains(sqlG, "p / max(p) OVER ()") {
		t.Errorf("global bayes wrong:\n%s", sqlG)
	}
	if _, err := ToSQL(NewBayes(base, Disjoint, 9)); err == nil {
		t.Error("BAYES $9 should fail in SQL emitter")
	}
}

func TestSQLWeightAndConditions(t *testing.T) {
	base := sqlBase()
	weighted := NewWeight(NewSelect(base, expr.Or{
		L: expr.Cmp{Op: expr.Ne, L: expr.ColumnAt(2), R: expr.Str("a'b")},
		R: expr.Not{E: expr.Cmp{Op: expr.Lt, L: expr.ColumnAt(3), R: expr.Str("x")}},
	}), 0.5)
	sql := mustSQL(t, weighted)
	for _, want := range []string{"0.5 * t1.p", "<> 'a''b'", "NOT (", " OR "} {
		if !strings.Contains(sql, want) {
			t.Errorf("missing %q:\n%s", want, sql)
		}
	}
}

func TestSQLErrors(t *testing.T) {
	base := sqlBase()
	if _, err := ToSQL(NewProject(base, None, 9)); err == nil {
		t.Error("PROJECT $9 should fail in SQL emitter")
	}
	if _, err := ToSQL(NewJoin(base, base, Independent, JoinCond{9, 1})); err == nil {
		t.Error("JOIN $9 should fail in SQL emitter")
	}
	if _, err := ToSQL(NewSelect(base, expr.Cmp{Op: expr.Eq, L: expr.ColumnAt(9), R: expr.Str("x")})); err == nil {
		t.Error("condition $9 should fail in SQL emitter")
	}
	// compute operators have no SQL translation (the paper renders only
	// the core algebra); they must report that cleanly.
	if _, err := ToSQL(NewMap(base, MapCol{As: "x", E: expr.ColumnAt(1)})); err == nil {
		t.Error("MAP should report missing SQL translation")
	}
}

func TestSQLJoinMaxKeepsLeftProbability(t *testing.T) {
	base := sqlBase()
	sql := mustSQL(t, NewJoin(base, base, Max, JoinCond{1, 1}))
	if !strings.Contains(sql, "t1.p as p") {
		t.Errorf("JOIN MAX must keep left probability:\n%s", sql)
	}
	if strings.Contains(sql, "t1.p * t2.p") {
		t.Errorf("JOIN MAX must not multiply probabilities:\n%s", sql)
	}
}
