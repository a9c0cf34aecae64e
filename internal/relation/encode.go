package relation

import (
	"fmt"

	"irdb/internal/vector"
)

// Dictionary encoding for loaders: string columns are interned once at
// ingest into a frozen dictionary, and every later hash, comparison, sort,
// grouping and join on them operates on fixed-width int32 codes.
//
// Columns encoded together share ONE dictionary, which is what makes
// cross-column comparisons (the triple store joins subjects against
// objects when traversing edges backward) pure integer operations.

// EncodeStringsShared dictionary-encodes the named string columns of every
// given relation into a single shared frozen dictionary. Each relation is
// returned as a new relation sharing all untouched columns and the
// probability column with the original. Columns that are already
// dict-encoded or not string-typed are an error — encoding is a load-time
// decision, not something to apply twice.
func EncodeStringsShared(rels []*Relation, colNames [][]string) ([]*Relation, error) {
	if len(rels) != len(colNames) {
		return nil, fmt.Errorf("relation: EncodeStringsShared with %d relations and %d column lists", len(rels), len(colNames))
	}
	total := 0
	for _, r := range rels {
		total += r.NumRows()
	}
	dict := vector.NewDict(total / 4)
	// First pass: intern every value, recording per-column code slices.
	codeCols := make([][][]int32, len(rels))
	for k, r := range rels {
		codeCols[k] = make([][]int32, len(colNames[k]))
		for ci, name := range colNames[k] {
			col, err := r.ColByName(name)
			if err != nil {
				return nil, err
			}
			sv, ok := col.Vec.(*vector.Strings)
			if !ok {
				return nil, fmt.Errorf("relation: column %q is %T, want a plain string column", name, col.Vec)
			}
			codes := make([]int32, sv.Len())
			for i, s := range sv.Values() {
				codes[i] = int32(dict.Put(s))
			}
			codeCols[k][ci] = codes
		}
	}
	// Second pass: freeze once and rebind every encoded column to the
	// shared frozen dict.
	frozen := dict.Freeze()
	out := make([]*Relation, len(rels))
	for k, r := range rels {
		cols := make([]Column, len(r.cols))
		copy(cols, r.cols)
		for ci, name := range colNames[k] {
			idx := r.ColIndex(name)
			cols[idx] = Column{Name: name, Vec: vector.FromCodes(frozen, codeCols[k][ci])}
		}
		out[k] = &Relation{cols: cols, prob: r.prob}
	}
	return out, nil
}

// EncodeStringCols dictionary-encodes the named string columns of one
// relation into one shared frozen dictionary.
func EncodeStringCols(r *Relation, names ...string) (*Relation, error) {
	out, err := EncodeStringsShared([]*Relation{r}, [][]string{names})
	if err != nil {
		return nil, err
	}
	return out[0], nil
}
