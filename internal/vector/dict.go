package vector

import (
	"fmt"
	"math"
	"sort"
)

// Dict is an order-preserving string dictionary, used for dictionary
// encoding of high-cardinality string columns such as the term dictionary
// of section 2.1 ("termdict") and the subject/object columns of the triple
// store. IDs are dense, start at 0, and are stable for the lifetime of the
// dictionary.
//
// Dict is not safe for concurrent mutation; wrap it or confine it to one
// goroutine while loading.
type Dict struct {
	ids  map[string]int64
	strs []string
}

// NewDict returns an empty dictionary with the given capacity hint.
func NewDict(capacity int) *Dict {
	return &Dict{
		ids:  make(map[string]int64, capacity),
		strs: make([]string, 0, capacity),
	}
}

// Put interns s and returns its ID, allocating a fresh ID on first sight.
func (d *Dict) Put(s string) int64 {
	if id, ok := d.ids[s]; ok {
		return id
	}
	id := int64(len(d.strs))
	d.ids[s] = id
	d.strs = append(d.strs, s)
	return id
}

// Lookup returns the ID of s, or (-1, false) when s has never been interned.
func (d *Dict) Lookup(s string) (int64, bool) {
	id, ok := d.ids[s]
	if !ok {
		return -1, false
	}
	return id, true
}

// Len reports the number of distinct strings interned.
func (d *Dict) Len() int { return len(d.strs) }

// Freeze returns an immutable, read-only view of the dictionary's current
// contents. The view owns its own lookup structures, so the original Dict
// may keep interning afterwards without affecting (or racing with) the
// frozen view; codes assigned before the freeze keep their meaning.
//
// FrozenDict is what DictStrings columns share: it is safe for concurrent
// Lookup/Get/Rank from any number of goroutines, which Dict itself is not.
func (d *Dict) Freeze() *FrozenDict {
	if len(d.strs) > math.MaxInt32 {
		panic(fmt.Sprintf("vector: dictionary with %d entries exceeds int32 code space", len(d.strs)))
	}
	strs := make([]string, len(d.strs))
	copy(strs, d.strs)
	ids := make(map[string]int32, len(strs))
	for i, s := range strs {
		ids[s] = int32(i)
	}
	// rank[code] is the code's position in lexicographic string order, so
	// two codes of the same dictionary compare with two array loads and an
	// integer compare instead of a byte-wise string compare.
	order := make([]int32, len(strs))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool { return strs[order[a]] < strs[order[b]] })
	rank := make([]int32, len(strs))
	for r, code := range order {
		rank[code] = int32(r)
	}
	var bytes int64
	for _, s := range strs {
		bytes += int64(len(s))
	}
	return &FrozenDict{ids: ids, strs: strs, rank: rank, payload: bytes}
}

// FrozenDict is an immutable string dictionary shared by DictStrings
// columns. All methods are safe for concurrent use; there is no way to
// mutate a FrozenDict after Freeze returns it.
//
// The dictionary is injective — every code maps to a distinct string —
// which is what lets equality on codes stand in for equality on strings.
type FrozenDict struct {
	ids     map[string]int32
	strs    []string
	rank    []int32
	payload int64 // total string payload bytes
}

// Lookup returns the code of s, or (-1, false) when s is not interned.
func (d *FrozenDict) Lookup(s string) (int32, bool) {
	code, ok := d.ids[s]
	if !ok {
		return -1, false
	}
	return code, true
}

// Get returns the string for a code previously assigned by the source Dict.
func (d *FrozenDict) Get(code int32) string { return d.strs[code] }

// Rank returns the code's position in lexicographic order over all
// interned strings: Rank(a) < Rank(b) iff Get(a) < Get(b).
func (d *FrozenDict) Rank(code int32) int32 { return d.rank[code] }

// Len reports the number of distinct strings interned.
func (d *FrozenDict) Len() int { return len(d.strs) }

// DenseIn reports whether the dictionary is dense relative to a column of
// nRows codes: the dense-vs-sparse policy of per-value string functions
// in expressions (MapStrings' whole-dict transforms behind lcase, ucase
// and stem, and the length memo). Dense consumers may do O(Len) work;
// sparse ones (a small column over a big store-wide dict) should touch
// only the codes present. Joins and groupings do not use it: they size
// their direct-addressed arrays against the hashed structures they
// replace (see the engine's dense.go).
func (d *FrozenDict) DenseIn(nRows int) bool { return len(d.strs) <= 2*nRows+16 }

// Strings returns a copy of all interned strings in code order.
func (d *FrozenDict) Strings() []string {
	out := make([]string, len(d.strs))
	copy(out, d.strs)
	return out
}

// EstimatedBytes reports the approximate heap footprint of the frozen
// dictionary: string payloads, headers, the rank table and the lookup map
// (estimated at ~48 bytes of bucket overhead per entry).
func (d *FrozenDict) EstimatedBytes() int64 {
	n := int64(len(d.strs))
	return d.payload + n*16 + n*4 + n*48
}
