// Command irdb loads a triples TSV file and evaluates SpinQL programs
// against it — a command-line stand-in for the paper's query interface.
//
// Usage:
//
//	irdb -data graph.tsv -q 'SELECT [$2="category" and $3="toy"] (triples);'
//	irdb -data graph.tsv -f program.spinql
//	irdb -data graph.tsv               # REPL on stdin, one statement per ';'
//	irdb -data graph.tsv -q '...' -explain   # show the engine plan
//	irdb -data graph.tsv -q '...' -sql       # show the SQL translation
//
// A strategy file can be executed instead of SpinQL:
//
//	irdb -data auction.tsv -strategy strat.json -query "wooden train"
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"irdb/internal/catalog"
	"irdb/internal/engine"
	"irdb/internal/spinql"
	"irdb/internal/strategy"
	"irdb/internal/triple"
)

func main() {
	var (
		dataPath  = flag.String("data", "", "triples TSV file (required)")
		queryStr  = flag.String("q", "", "SpinQL program to evaluate")
		filePath  = flag.String("f", "", "file containing a SpinQL program")
		explain   = flag.Bool("explain", false, "print the compiled engine plan instead of executing")
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
	f, err := os.Open(*dataPath)
	if err != nil {
		fail(err)
	}
	triples, err := triple.ReadTSV(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	cat := catalog.New(0)
	store := triple.NewStore(cat)
	store.Load(triples)
	ctx := engine.NewCtx(cat)
	str, ints, flts, err := store.Counts()
	if err != nil {
		fail(err)
	}
	fmt.Fprintf(os.Stderr, "irdb: loaded %d triples (%d string, %d int, %d float)\n",
		str+ints+flts, str, ints, flts)

	if *stratPath != "" {
		runStrategy(ctx, *stratPath, *keyword, *topK, *timing)
		return
	}

	env := spinql.TriplesEnv()
	run := func(src string) {
		src = strings.TrimSpace(src)
		if src == "" {
			return
		}
		switch {
		case *explain:
			out, err := spinql.Explain(src, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irdb: %v\n", err)
				return
			}
			fmt.Print(out)
		case *sql:
			out, err := spinql.ToSQL(src, env)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irdb: %v\n", err)
				return
			}
			fmt.Println(out)
		default:
			start := time.Now()
			rel, err := spinql.Eval(context.Background(), src, env, ctx)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irdb: %v\n", err)
				return
			}
			fmt.Print(rel.Format(*topK))
			if *timing {
				fmt.Fprintf(os.Stderr, "time: %s\n", time.Since(start).Round(time.Microsecond))
			}
		}
	}

	switch {
	case *queryStr != "":
		run(*queryStr)
	case *filePath != "":
		src, err := os.ReadFile(*filePath)
		if err != nil {
			fail(err)
		}
		run(string(src))
	default:
		fmt.Fprintln(os.Stderr, "irdb: reading SpinQL from stdin (end statements with ';')")
		sc := bufio.NewScanner(os.Stdin)
		sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
		var buf strings.Builder
		for sc.Scan() {
			line := sc.Text()
			buf.WriteString(line)
			buf.WriteByte('\n')
			if strings.Contains(line, ";") {
				run(buf.String())
				buf.Reset()
			}
		}
	}
}

func runStrategy(ctx *engine.Ctx, path, query string, topK int, timing bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	s, err := strategy.FromJSON(data)
	if err != nil {
		fail(err)
	}
	reg := strategy.NewRegistry(ctx, nil)
	if err := reg.Install(s); err != nil {
		fail(err)
	}
	entry, err := reg.Lookup(s.Name)
	if err != nil {
		fail(err)
	}
	start := time.Now()
	rel, err := entry.Search(context.Background(), query, topK)
	if err != nil {
		fail(err)
	}
	fmt.Print(rel.Format(topK))
	if timing {
		fmt.Fprintf(os.Stderr, "time: %s (%d blocks)\n",
			time.Since(start).Round(time.Microsecond), s.NumBlocks())
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "irdb: %v\n", err)
	os.Exit(1)
}
