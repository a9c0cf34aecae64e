package spinql

import (
	"irdb/internal/engine"
	"irdb/internal/pra"
	"irdb/internal/triple"

	// SpinQL programs call the stem() UDF (section 2.1); importing the
	// stemmer package registers it with the expression engine.
	_ "irdb/internal/stem"
)

// TriplesEnv returns an environment exposing the triple store's
// object-type partitions under the names the paper uses:
//
//	triples      — string-valued triples (subject, property, object)
//	triples_int  — integer-valued triples
//	triples_flt  — float-valued triples
func TriplesEnv() *Env {
	env := NewEnv()
	cols := []string{triple.ColSubject, triple.ColProperty, triple.ColObject}
	env.Define("triples", pra.NewBase("triples", triple.ScanAll(), cols...))
	env.Define("triples_int", pra.NewBase("triples_int", engine.NewScan(triple.TableInt), cols...))
	env.Define("triples_flt", pra.NewBase("triples_flt", engine.NewScan(triple.TableFlt), cols...))
	return env
}

// ToSQL parses src and renders the SQL translation of its result — the
// SpinQL-to-SQL step shown in section 2.3 of the paper.
func ToSQL(src string, env *Env) (string, error) {
	prog, err := Parse(src, env)
	if err != nil {
		return "", err
	}
	return pra.ToSQL(prog.Result())
}
