package spinql

import (
	"context"
	"errors"
	"strings"
	"testing"

	"irdb/internal/engine"
	"irdb/internal/memory"
)

// FuzzParse drives the SpinQL lexer and parser with arbitrary inputs. The
// invariants are crash-freedom, a basic parse/render round-trip — any
// program that parses must render to text that parses again — and sound
// column naming: a program that parses and compiles runs, naive and
// optimized, over a tiny store under a small query budget; a run that
// succeeds returns exactly the columns its schema names, and no run fails
// on a column the engine cannot find or a name it holds twice. A budget
// denial is no finding.
func FuzzParse(f *testing.F) {
	seeds := []string{
		// Queries from spinql_test.go, covering every statement form.
		`SELECT [$2="price" and $3 >= 10] (triples_int);`,
		`toys = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="toy"] (triples));`,
		`books = PROJECT INDEPENDENT [$1] (SELECT [$2="category" and $3="book"] (triples));`,
		`SELECT [$2="price" and $3 != 25] (triples_int);`,
		`SELECT [$2="price" and $3 < 25] (triples_int);`,
		`SELECT [$2="price" and ($3 = 25 or $3 = 5)] (triples_int);`,
		`SELECT [not $2="price"] (triples_int);`,
		`SELECT [$2 <> "price"] (triples_int);`,
		`SELECT [$2="x"] (nope);`,
		`SELECT [$2="x"] (triples)`,
		`WEIGHT ["high"] (triples);`,
		`SELECT [$2="x"] (triples, triples);`,
		`SELECT [$2="unterminated] (triples);`,
		`select [$2="category" AND $3="toy"] (TRIPLES);`,
		`PROJECT INDEPENDENT [$1] (SELECT [$2="category"] (triples));`,
		`SUBTRACT [] (PROJECT INDEPENDENT [$1] (triples), PROJECT INDEPENDENT [$1] (SELECT [$2="price"] (triples)));`,
		`SELECT [$2="category" or not $3="toy"] (triples);`,
		`a = SELECT [$2="category"] (triples); b = WEIGHT [0.5] (a); UNITE INDEPENDENT (a, b);`,
		`JOIN INDEPENDENT [$1=$1] (triples, triples_int);`,
		// Degenerate shapes the lexer must survive.
		"", ";", "=", "(", ")", "[", "]", "$", "$0", "$999999999999999999999",
		"\"", "'", "“smart quotes”", "\x00", "\xff\xfe", "SELECT", "select [",
		strings.Repeat("(", 500), strings.Repeat("a=", 200) + "b",
		"-- comment only\n", "0.0.0.0", "1e309", ".5;",
		// Joins whose inputs already carry suffixed names.
		chainDefs + `GROUP [$8 ; count() as n] (y);`,
		chainDefs + `SUBTRACT [] (y, y);`,
		chainDefs + `PROJECT [$1,$1,$4] (x);`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		env := TriplesEnv()
		prog, err := Parse(src, env)
		if err != nil || prog == nil {
			return
		}
		result := prog.Result()
		if result == nil {
			return
		}
		// Round-trip: the canonical rendering of a valid program must
		// itself parse (against a fresh environment, since parsing may
		// have defined assignment names).
		rendered := result.String() + ";"
		if _, err := Parse(rendered, NewEnvFrom(env)); err != nil {
			t.Fatalf("round-trip failed:\n src: %q\nrendered: %q\n err: %v", src, rendered, err)
		}
		plan, err := result.Compile()
		if err != nil {
			return
		}
		ctx := storeCtx()
		for _, p := range []engine.Node{plan, ctx.Optimize(plan)} {
			res := memory.NewPool(0).Reserve(1 << 20)
			rel, err := ctx.Exec(memory.WithReservation(context.Background(), res), p)
			res.Release()
			switch {
			case errors.Is(err, memory.ErrBudgetExceeded):
			case err != nil:
				if msg := err.Error(); strings.Contains(msg, "no column") || strings.Contains(msg, "duplicate column name") {
					t.Fatalf("column naming failed:\n src: %q\n err: %v\n%s", src, err, engine.Explain(p))
				}
			case strings.Join(rel.ColumnNames(), ",") != strings.Join(result.Schema(), ","):
				t.Fatalf("columns %v, schema %v:\n src: %q\n%s", rel.ColumnNames(), result.Schema(), src, engine.Explain(p))
			}
		}
	})
}
