package main

import (
	"slices"
	"strings"
	"testing"

	"irdb"
)

// TestREPLKeepsNames checks that a name assigned by one REPL input can be
// used by a later one, and that an input that failed defines nothing.
func TestREPLKeepsNames(t *testing.T) {
	db, err := irdb.Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	tsv := "p1\tcategory\ttoy\np2\tcategory\tbook\np3\tcategory\ttoy\n"
	if _, err := db.LoadTriplesTSV(strings.NewReader(tsv)); err != nil {
		t.Fatal(err)
	}
	var out, errs strings.Builder
	c := cli{db: db, topK: 10, out: &out, errs: &errs}
	input := strings.Join([]string{
		`toys = SELECT [$2="category" and $3="toy"] (triples);`,
		`bad = PROJECT [$1] (missing);`,
		`PROJECT [$1] (toys);`,
		`PROJECT [$1] (bad);`,
	}, "\n") + "\n"
	var ran []bool
	repl(strings.NewReader(input), func(src string) bool {
		ok := c.run(src)
		ran = append(ran, ok)
		return ok
	})
	if want := []bool{true, false, true, false}; !slices.Equal(ran, want) {
		t.Fatalf("inputs ran %v, want %v; stderr:\n%s", ran, want, errs.String())
	}
	if got := out.String(); !strings.Contains(got, "p1") || !strings.Contains(got, "p3") || strings.Contains(got, "p2") {
		t.Errorf("output lacks the toys p1 and p3 or has the book p2:\n%s", got)
	}
	if got := errs.String(); strings.Count(got, "irdb: ") != 2 {
		t.Errorf("want two errors, got:\n%s", got)
	}
}
