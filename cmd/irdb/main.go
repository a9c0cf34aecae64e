// Command irdb loads a triples TSV file and evaluates SpinQL programs
// against it — a command-line stand-in for the paper's query interface.
// It runs on the irdb facade, so a statement plans and executes exactly
// as DB.Query does.
//
// Usage:
//
//	irdb -data graph.tsv -q 'SELECT [$2="category" and $3="toy"] (triples);'
//	irdb -data graph.tsv -f program.spinql
//	irdb -data graph.tsv               # REPL on stdin, one statement per ';'
//	irdb -data graph.tsv -q '...' -explain   # show the compiled and the optimized plan
//	irdb -data graph.tsv -q '...' -sql       # show the SQL translation
//
// A strategy file can be executed instead of SpinQL; it prints the
// ranked hits, one "rank id score" line each:
//
//	irdb -data auction.tsv -strategy strat.json -query "wooden train"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"irdb"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "triples TSV file (required)")
		queryStr  = flag.String("q", "", "SpinQL program to evaluate")
		filePath  = flag.String("f", "", "file containing a SpinQL program")
		explain   = flag.Bool("explain", false, "print the compiled and the optimized engine plan instead of executing")
		sql       = flag.Bool("sql", false, "print the SQL translation instead of executing")
		stratPath = flag.String("strategy", "", "strategy JSON file to execute instead of SpinQL")
		keyword   = flag.String("query", "", "keyword query for -strategy execution")
		topK      = flag.Int("k", 20, "result cutoff")
		timing    = flag.Bool("t", false, "print wall-clock time per statement")
	)
	flag.Parse()

	if *dataPath == "" {
		fmt.Fprintln(os.Stderr, "irdb: -data is required")
		flag.Usage()
		os.Exit(2)
	}
	db, err := irdb.Open()
	if err != nil {
		fail(err)
	}
	defer db.Close()
	f, err := os.Open(*dataPath)
	if err != nil {
		fail(err)
	}
	n, err := db.LoadTriplesTSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "irdb: loaded %d triples\n", n)

	if *stratPath != "" {
		runStrategy(db, *stratPath, *keyword, *topK, *timing)
		return
	}

	c := cli{db: db, explain: *explain, sql: *sql, timing: *timing, topK: *topK, out: os.Stdout, errs: os.Stderr}
	switch {
	case *queryStr != "":
		c.run(*queryStr)
	case *filePath != "":
		src, err := os.ReadFile(*filePath)
		if err != nil {
			fail(err)
		}
		c.run(string(src))
	default:
		fmt.Fprintln(os.Stderr, "irdb: reading SpinQL from stdin (end statements with ';')")
		repl(os.Stdin, c.run)
	}
}

// cli runs SpinQL source on a DB under the command's output flags.
type cli struct {
	db                   *irdb.DB
	explain, sql, timing bool
	topK                 int
	out, errs            io.Writer
}

// run executes src, or explains it or translates it to SQL, printing the
// output to c.out and any error to c.errs. It reports whether src ran.
func (c cli) run(src string) bool {
	if strings.TrimSpace(src) == "" {
		return false
	}
	var err error
	switch {
	case c.explain:
		var out string
		if out, err = c.db.Explain(src); err == nil {
			fmt.Fprint(c.out, out)
		}
	case c.sql:
		var out string
		if out, err = c.db.ToSQL(src); err == nil {
			fmt.Fprintln(c.out, out)
		}
	default:
		start := time.Now()
		var res *irdb.Result
		if res, err = c.db.Query(context.Background(), src); err == nil {
			fmt.Fprint(c.out, res.Format(c.topK))
			if c.timing {
				fmt.Fprintf(c.errs, "time: %s\n", time.Since(start).Round(time.Microsecond))
			}
		}
	}
	if err != nil {
		fmt.Fprintf(c.errs, "irdb: %v\n", err)
		return false
	}
	return true
}

// repl reads statements from r and hands each input that ends a line with
// ';' to run, preceded by the source of every earlier input that ran. The
// facade parses each call on its own, so resending that prefix is what
// lets a later input use a name an earlier one assigned; Query, Explain
// and ToSQL act on the last statement only.
func repl(r io.Reader, run func(src string) bool) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	var defs, buf strings.Builder
	for sc.Scan() {
		line := sc.Text()
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.Contains(line, ";") {
			if run(defs.String() + buf.String()) {
				defs.WriteString(buf.String())
			}
			buf.Reset()
		}
	}
}

func runStrategy(db *irdb.DB, path, query string, topK int, timing bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	name, err := db.InstallStrategy(data)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	hits, err := db.Search(context.Background(), name, query, topK)
	if err != nil {
		fail(err)
	}
	for i, h := range hits {
		fmt.Printf("%d\t%s\t%.6f\n", i+1, h.ID, h.Score)
	}
	if timing {
		fmt.Fprintf(os.Stderr, "time: %s\n", time.Since(start).Round(time.Microsecond))
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "irdb: %v\n", err)
	os.Exit(1)
}
