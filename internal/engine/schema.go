package engine

import "irdb/internal/catalog"

// Static schema resolution for the optimizer (optimize.go). The engine has
// no compile-time type system — operators discover their input schemas at
// execution — so the optimizer derives output column names per operator
// shape, resolving Scan leaves through the catalog. Resolution is
// best-effort: any node whose schema cannot be derived (an unknown
// operator type, a missing table, an arity mismatch) reports !ok and every
// rewrite that would have needed it is skipped. Derived schemas describe
// column NAMES only; representation (plain vs dict-encoded) and kinds stay
// a runtime property.
//
// Prepared plans are optimized once; the derived schemas assume base-table
// column names are stable across data reloads, which the public loaders
// (LoadTriples, LoadDocs) guarantee. Replacing a table with differently
// named columns invalidates prepared statements in the unoptimized engine
// too (by-name lookups fail at run time), so optimization does not widen
// that contract. Prepared rests on the same contract, and the catalog
// enforces it there: every change that may rename a column ticks
// catalog.Catalog.SchemaEpoch, and Prepared prepares again when the
// epoch moves.

// staticSchema returns the output column names of the subtree rooted at n,
// or !ok when they cannot be derived.
func staticSchema(cat *catalog.Catalog, n Node) ([]string, bool) {
	switch x := n.(type) {
	case *Scan:
		if cat == nil {
			return nil, false
		}
		rel, err := cat.Table(x.Table)
		if err != nil {
			return nil, false
		}
		return rel.ColumnNames(), true
	case *Values:
		if x.Rel == nil {
			return x.Cols, x.Param != ""
		}
		return x.Rel.ColumnNames(), true
	case *Materialize:
		return staticSchema(cat, x.Child)
	case *Select:
		return staticSchema(cat, x.Child)
	case *Limit:
		return staticSchema(cat, x.Child)
	case *Sort:
		return staticSchema(cat, x.Child)
	case *TopN:
		return staticSchema(cat, x.Child)
	case *Distinct:
		return staticSchema(cat, x.Child)
	case *Normalize:
		return staticSchema(cat, x.Child)
	case *ScaleProb:
		return staticSchema(cat, x.Child)
	case *Project:
		out := make([]string, len(x.Cols)) //lint:allow chargedalloc O(#columns) schema inference, plan-shaped
		for i, pc := range x.Cols {
			out[i] = pc.Name
		}
		return out, true
	case *RowNumber:
		child, ok := staticSchema(cat, x.Child)
		if !ok {
			return nil, false
		}
		return append(append([]string(nil), child...), x.Name), true
	case *ProbFromCol:
		child, ok := staticSchema(cat, x.Child)
		if !ok {
			return nil, false
		}
		if !x.Drop {
			return child, true
		}
		out := make([]string, 0, len(child)) //lint:allow chargedalloc O(#columns) schema inference, plan-shaped
		dropped := false
		for _, c := range child {
			if !dropped && c == x.Col {
				dropped = true
				continue
			}
			out = append(out, c)
		}
		return out, true
	case *Tokenize:
		return []string{x.IDCol, "token", "pos"}, true
	case *HashJoin:
		var l, r []string
		if x.Out == nil {
			var lok, rok bool
			l, lok = staticSchema(cat, x.L)
			r, rok = staticSchema(cat, x.R)
			if !lok || !rok {
				return nil, false
			}
		}
		var names []string
		for _, oc := range x.outCols(l, r) {
			names = append(names, oc.Name)
		}
		return names, true
	case *Union:
		return staticSchema(cat, x.L)
	case *Subtract:
		return staticSchema(cat, x.L)
	case *Aggregate:
		out := make([]string, 0, len(x.GroupBy)+len(x.Aggs)) //lint:allow chargedalloc O(#columns) schema inference, plan-shaped
		out = append(out, x.GroupBy...)
		for _, a := range x.Aggs {
			out = append(out, a.As)
		}
		return out, true
	}
	return nil, false
}

// uniqueNames reports whether a schema has no duplicate column names —
// rewrites that look columns up by name require it.
func uniqueNames(schema []string) bool {
	seen := make(map[string]bool, len(schema))
	for _, n := range schema {
		if seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}
