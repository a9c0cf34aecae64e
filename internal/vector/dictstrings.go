package vector

import (
	"hash/maphash"
)

// DictStrings is a dictionary-encoded string column: a dense []int32 code
// vector backed by a shared, immutable FrozenDict. Logically it is a
// STRING column (Kind reports String); physically every per-row operation
// touches fixed-width codes, which is what makes hash, compare, sort,
// group and join on string keys run at integer-column speed.
//
// Two DictStrings sharing the same *FrozenDict compare and equality-check
// on codes (ranks for ordering); against any other string representation
// they fall back to comparing the underlying strings, so correctness never
// depends on dict sharing — only speed does.
//
// HashRangeInto hashes the codes, NOT the underlying strings. Hashes
// of a DictStrings are therefore only comparable with hashes of vectors
// sharing the same dict; the engine aligns representations (decoding or
// re-encoding one side) before it cross-compares hashes of two relations.
type DictStrings struct {
	codes []int32
	dict  *FrozenDict
}

// NewDictStrings returns an empty dict-encoded column over the given
// frozen dictionary with the given capacity hint.
func NewDictStrings(dict *FrozenDict, capacity int) *DictStrings {
	return &DictStrings{codes: make([]int32, 0, capacity), dict: dict}
}

// FromCodes wraps the given code slice (not copied) over the frozen dict.
func FromCodes(dict *FrozenDict, codes []int32) *DictStrings {
	return &DictStrings{codes: codes, dict: dict}
}

// EncodeStrings dictionary-encodes a plain string column: every distinct
// value is interned once, the dictionary is frozen, and the result carries
// one int32 code per row.
func EncodeStrings(v *Strings) *DictStrings {
	d := NewDict(v.Len() / 4)
	codes := make([]int32, v.Len())
	for i, s := range v.Values() {
		codes[i] = int32(d.Put(s))
	}
	return FromCodes(d.Freeze(), codes)
}

// Dict returns the shared frozen dictionary.
func (v *DictStrings) Dict() *FrozenDict { return v.dict }

// Codes exposes the backing code slice for hot loops. Callers must not
// resize.
func (v *DictStrings) Codes() []int32 { return v.codes }

// Kind implements Vector. DictStrings is an encoding of the logical
// STRING type, not a distinct type: schema checks (join key kinds, union
// compatibility) treat it as any other string column.
func (v *DictStrings) Kind() Kind { return String }

// Len implements Vector.
func (v *DictStrings) Len() int { return len(v.codes) }

// At returns the decoded string at row i.
func (v *DictStrings) At(i int) string { return v.dict.strs[v.codes[i]] }

// StringAt implements StringColumn.
func (v *DictStrings) StringAt(i int) string { return v.dict.strs[v.codes[i]] }

// Gather implements Vector: codes are copied, the dict is shared.
func (v *DictStrings) Gather(sel []int) Vector {
	out := make([]int32, len(sel))
	for i, s := range sel {
		out[i] = v.codes[s]
	}
	return &DictStrings{codes: out, dict: v.dict}
}

// AppendFrom implements Vector. Appending from a column sharing this
// vector's dict copies the code; appending from any other string column
// requires the value to already be interned (the dict is frozen) and
// panics otherwise — the engine decodes mixed-representation columns
// before funnelling them into one output column.
func (v *DictStrings) AppendFrom(src Vector, i int) {
	if s, ok := src.(*DictStrings); ok && s.dict == v.dict {
		v.codes = append(v.codes, s.codes[i])
		return
	}
	s := src.(StringColumn).StringAt(i)
	code, ok := v.dict.Lookup(s)
	if !ok {
		panic("vector: AppendFrom of string not interned in the frozen dict")
	}
	v.codes = append(v.codes, code)
}

// HashRangeInto implements Vector: each code is hashed as one word
// (hashWord), never the string payload, so hashing cost is independent of
// string length. See the type comment for the cross-representation caveat.
func (v *DictStrings) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	k := wordKey(seed)
	for i := lo; i < hi; i++ {
		sums[i] = mix(sums[i], hashWord(uint64(uint32(v.codes[i])), k))
	}
}

// Slice implements Vector.
func (v *DictStrings) Slice(lo, hi int) Vector {
	return &DictStrings{codes: v.codes[lo:hi:hi], dict: v.dict}
}

// EqualAt implements Vector. Same-dict comparisons are integer compares;
// any other string representation is compared by value.
func (v *DictStrings) EqualAt(i int, other Vector, j int) bool {
	if o, ok := other.(*DictStrings); ok {
		if o.dict == v.dict {
			return v.codes[i] == o.codes[j]
		}
		return v.At(i) == o.At(j)
	}
	return v.At(i) == other.(StringColumn).StringAt(j)
}

// LessAt implements Vector. Same-dict comparisons order by the frozen
// dict's precomputed lexicographic ranks (two loads and an int compare);
// cross-representation comparisons fall back to the strings.
func (v *DictStrings) LessAt(i int, other Vector, j int) bool {
	if o, ok := other.(*DictStrings); ok {
		if o.dict == v.dict {
			return v.dict.rank[v.codes[i]] < o.dict.rank[o.codes[j]]
		}
		return v.At(i) < o.At(j)
	}
	return v.At(i) < other.(StringColumn).StringAt(j)
}

// Format implements Vector.
func (v *DictStrings) Format(i int) string { return v.At(i) }

// New implements Vector: an empty column over the same dict.
func (v *DictStrings) New(capacity int) Vector { return NewDictStrings(v.dict, capacity) }

// NewSized implements Vector: n rows of code 0 over the same dict. As with
// every NewSized vector, the result must not be read before all rows have
// been written.
func (v *DictStrings) NewSized(n int) Vector {
	return &DictStrings{codes: make([]int32, n), dict: v.dict}
}

// GatherRangeInto implements Vector. The destination is either a column
// over the same dict (codes are copied) or a plain Strings column (values
// are decoded in place) — the two shapes the engine's materialization
// produces.
func (v *DictStrings) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	switch d := dst.(type) {
	case *DictStrings:
		if d.dict != v.dict {
			panic("vector: GatherRangeInto across different dicts")
		}
		out := d.codes
		for i := lo; i < hi; i++ {
			out[off+i] = v.codes[sel[i]]
		}
	case *Strings:
		out := d.vals
		for i := lo; i < hi; i++ {
			out[off+i] = v.dict.strs[v.codes[sel[i]]]
		}
	default:
		panic("vector: GatherRangeInto into incompatible destination")
	}
}

// CopyRangeAt implements Vector, with the same destination shapes as
// GatherRangeInto.
func (v *DictStrings) CopyRangeAt(dst Vector, lo, hi, off int) {
	switch d := dst.(type) {
	case *DictStrings:
		if d.dict != v.dict {
			panic("vector: CopyRangeAt across different dicts")
		}
		copy(d.codes[off:], v.codes[lo:hi])
	case *Strings:
		out := d.vals
		for i := lo; i < hi; i++ {
			out[off+i-lo] = v.dict.strs[v.codes[i]]
		}
	default:
		panic("vector: CopyRangeAt into incompatible destination")
	}
}

// EstimatedBytes implements Vector: the code payload plus the shared
// dictionary. A relation holding several columns over one dict counts the
// dict once (relation.EstimatedBytes deduplicates by dict identity).
func (v *DictStrings) EstimatedBytes() int64 {
	return int64(len(v.codes))*4 + v.dict.EstimatedBytes()
}

// Decode materializes the column as a plain Strings vector.
func (v *DictStrings) Decode() *Strings {
	out := make([]string, len(v.codes))
	for i, c := range v.codes {
		out[i] = v.dict.strs[c]
	}
	return FromStrings(out)
}

// ---------------------------------------------------------------------------
// Cross-representation helpers

// StringColumn is the read interface shared by the two string
// representations (Strings, DictStrings). Code that only needs to read
// string values accepts this instead of asserting a concrete type.
type StringColumn interface {
	Vector
	StringAt(i int) string
}

// AsStringColumn returns v as a StringColumn when it is a string column of
// any representation (plain, dict-encoded, or constant). The Kind check
// matters for Const, which carries the read interface for all kinds.
func AsStringColumn(v Vector) (StringColumn, bool) {
	if v.Kind() != String {
		return nil, false
	}
	sc, ok := v.(StringColumn)
	return sc, ok
}

// SameDict reports whether a and b are both dict-encoded over the same
// frozen dictionary, i.e. their codes live in one comparable domain.
func SameDict(a, b Vector) bool {
	da, ok := a.(*DictStrings)
	if !ok {
		return false
	}
	db, ok := b.(*DictStrings)
	return ok && da.dict == db.dict
}

// MapStrings applies the element-wise function f to a string column. For a
// dict-encoded input, f runs once per distinct value and the results are
// re-interned into a fresh frozen dict (f may collapse distinct inputs, so
// codes are remapped to keep the dictionary injective); the output stays
// dict-encoded. A plain Strings input stays plain. This is what makes
// lcase/stem over a tokenized corpus cost O(vocabulary), not O(tokens).
func MapStrings(v Vector, f func(string) string) (Vector, bool) {
	switch x := v.(type) {
	case *Strings:
		in := x.Values()
		out := make([]string, len(in))
		for i, s := range in {
			out[i] = f(s)
		}
		return FromStrings(out), true
	case *DictStrings:
		n := len(x.codes)
		dl := x.dict.Len()
		codes := make([]int32, n)
		if x.dict.DenseIn(n) {
			// Dense column: map the whole dict, one f per distinct value.
			d := NewDict(dl)
			remap := make([]int32, dl)
			for c, s := range x.dict.strs {
				remap[c] = int32(d.Put(f(s)))
			}
			for i, c := range x.codes {
				codes[i] = remap[c]
			}
			return FromCodes(d.Freeze(), codes), true
		}
		// Sparse column over a much bigger shared dict (e.g. one column of
		// a store-wide dict): touch only the codes actually present, so
		// cost is O(rows + used values), never O(store vocabulary).
		// remap stores newCode+1 so the zero value means "unseen".
		d := NewDict(n / 4)
		remap := make([]int32, dl)
		for i, c := range x.codes {
			nc := remap[c]
			if nc == 0 {
				nc = int32(d.Put(f(x.dict.strs[c]))) + 1
				remap[c] = nc
			}
			codes[i] = nc - 1
		}
		return FromCodes(d.Freeze(), codes), true
	default:
		return nil, false
	}
}

// EncodeLookup re-encodes a string column into an existing frozen dict for
// probe-side hashing and equality: values not interned in dict get code
// -1, which hashes like any other code and equals no valid code. The
// result is NOT a readable column — decoding a -1 code panics — it exists
// only so a probe side can share the hash domain of a cached, dict-encoded
// build side.
func EncodeLookup(dict *FrozenDict, src StringColumn) *DictStrings {
	if d, ok := src.(*DictStrings); ok && d.dict == dict {
		return d
	}
	codes := make([]int32, src.Len())
	for i := range codes {
		code, ok := dict.Lookup(src.StringAt(i))
		if !ok {
			code = -1
		}
		codes[i] = code
	}
	return FromCodes(dict, codes)
}
