package engine

import (
	"context"
	"hash/maphash"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Key-representation alignment for the hash-based binary operators.
//
// Dict-encoded string columns hash their int32 codes, not the string
// payload, so their hashes live in a per-dictionary domain. Whenever two
// relations are hashed with one seed and cross-compared (hash join,
// Subtract's anti-join), the probe side must present each key column in
// the build side's domain:
//
//   - build column dict-encoded, probe sharing the same dict: free — the
//     codes already agree (the common case: both sides loaded, or derived
//     by the same materialized plan).
//   - build column dict-encoded, probe in any other representation: the
//     probe column is re-encoded through the build dict (one map lookup
//     per row; unknown strings get the invalid code -1, which matches no
//     build row). The cached build-side index stays valid for every later
//     probe, whatever its representation.
//   - build column a plain string column, probe dict-encoded: the probe
//     column is decoded once.
//
// Equality during the probe then goes through vector.EqualAt on the
// aligned vectors, which compares codes when the dicts agree and strings
// otherwise — so results never depend on dict sharing, only speed does.

// colVecs extracts the vectors at the given column positions.
func colVecs(r *relation.Relation, idx []int) []vector.Vector {
	out := make([]vector.Vector, len(idx)) //lint:allow chargedalloc O(#key columns) headers; vectors are shared, not copied
	for k, ci := range idx {
		out[k] = r.Col(ci).Vec
	}
	return out
}

// alignProbeVecs returns the probe-side key vectors adapted to the build
// side's hash domains, per the rules above. Non-string columns and
// already-aligned columns are returned as-is. Re-encodings are not
// memoized: the probes that need one are typically built per query (the
// tokenized query terms, say), so a memo keyed on the probe vector does
// not hit.
func alignProbeVecs(probe, build []vector.Vector) []vector.Vector {
	out := make([]vector.Vector, len(probe)) //lint:allow chargedalloc O(#key columns) headers; vectors are shared or re-encoded, not copied here
	for k, pv := range probe {
		out[k] = pv
		if bd, ok := build[k].(*vector.DictStrings); ok {
			if pd, ok := pv.(*vector.DictStrings); ok && pd.Dict() == bd.Dict() {
				continue // already in the build side's code space
			}
			if sc, ok := pv.(vector.StringColumn); ok {
				out[k] = vector.EncodeLookup(bd.Dict(), sc)
			}
			continue
		}
		if pd, ok := pv.(*vector.DictStrings); ok {
			out[k] = pd.Decode()
		}
	}
	return out
}

// vecsEqual reports whether row i of the left key vectors equals row j of
// the right key vectors, pairwise.
func vecsEqual(l []vector.Vector, i int, r []vector.Vector, j int) bool {
	for k := range l {
		if !l[k].EqualAt(i, r[k], j) {
			return false
		}
	}
	return true
}

// hashVecsParallel hashes n rows of the given key vectors into one sum per
// row, split over morsels like hashRowsParallel. The hash array (8 bytes
// per row) is charged against the query's memory budget before it is
// allocated.
func hashVecsParallel(c context.Context, ctx *Ctx, vecs []vector.Vector, n int, seed maphash.Seed) ([]uint64, error) {
	if err := ctx.charge(c, int64(n)*8); err != nil {
		return nil, err
	}
	sums := make([]uint64, n)
	ctx.parallelRanges(c, n, func(lo, hi int) {
		for _, v := range vecs {
			v.HashRangeInto(seed, sums, lo, hi)
		}
	})
	return sums, nil
}
