// Package vector provides the typed columnar vectors that underpin the
// column-at-a-time execution engine. A vector is a dense, append-only
// sequence of values of a single physical type, mirroring the BATs of a
// column store such as MonetDB (the substrate used by the paper).
//
// Vectors are deliberately simple: no null bitmap (the IR workloads in the
// paper never produce SQL NULLs; absence is represented by absence of the
// row) and no compression besides dictionary encoding for strings: Dict
// interns strings at load time and DictStrings is the resulting
// fixed-width (int32 code) string column the engine operates on.
package vector

import (
	"fmt"
	"hash/maphash"
	"math"
	"strconv"
)

// Kind enumerates the physical types a vector can hold.
type Kind int

// The supported physical types. These are the same object-type partitions
// the paper's triple store uses ("partitioning by the physical data type of
// objects", section 2.2).
const (
	Int64 Kind = iota
	Float64
	String
	Bool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case Int64:
		return "BIGINT"
	case Float64:
		return "DOUBLE"
	case String:
		return "STRING"
	case Bool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Vector is a dense column of values of one Kind.
//
// The interface is small on purpose: operators in the engine switch on the
// concrete type for hot loops and fall back to the interface for generic
// plumbing (gather, hashing, ordering, formatting).
type Vector interface {
	// Kind reports the physical type of the vector.
	Kind() Kind
	// Len reports the number of values.
	Len() int
	// Gather returns a new vector holding the values at the given row
	// indexes, in order. Indexes may repeat.
	Gather(sel []int) Vector
	// AppendFrom appends the value at row i of src (which must have the
	// same Kind) to this vector.
	AppendFrom(src Vector, i int)
	// HashRangeInto mixes the value at each row in [lo, hi) into the
	// corresponding slot of sums using the supplied seed, writing only
	// sums[lo:hi], so the engine can hash row morsels on separate workers
	// and still get the sums of one whole-column pass.
	HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int)
	// Slice returns a view of rows [lo, hi) sharing this vector's storage.
	// The view must be treated as read-only.
	Slice(lo, hi int) Vector
	// EqualAt reports whether the value at row i equals the value at row j
	// of other, which must have the same Kind.
	EqualAt(i int, other Vector, j int) bool
	// LessAt reports whether the value at row i orders before the value at
	// row j of other, which must have the same Kind.
	LessAt(i int, other Vector, j int) bool
	// Format returns a human-readable rendering of the value at row i.
	Format(i int) string
	// New returns an empty vector of the same Kind with the given capacity
	// hint.
	New(capacity int) Vector
	// NewSized returns a zero-filled vector of the same Kind with exactly n
	// rows. Concurrent writers may then fill disjoint row ranges through
	// GatherRangeInto / CopyRangeAt without synchronization, which is what
	// lets the engine materialize one output column from many morsels at
	// once instead of appending serially.
	NewSized(n int) Vector
	// GatherRangeInto writes the values at rows sel[lo:hi] of this vector
	// into rows [off+lo, off+hi) of dst, which must have the same Kind and
	// at least off+hi rows. Disjoint [lo, hi) ranges touch disjoint dst
	// rows, so morsels may run concurrently.
	GatherRangeInto(dst Vector, sel []int, lo, hi, off int)
	// CopyRangeAt copies rows [lo, hi) of this vector into dst starting at
	// row off. dst must have the same Kind and at least off+(hi-lo) rows.
	CopyRangeAt(dst Vector, lo, hi, off int)
	// EstimatedBytes reports the approximate heap footprint of the vector's
	// values, used for byte-weighted cache accounting.
	EstimatedBytes() int64
}

// NewSizedOfKind returns a zero-filled vector of the given kind with
// exactly n rows, for write-at-offset materialization.
func NewSizedOfKind(k Kind, n int) Vector {
	return NewOfKind(k, 0).NewSized(n)
}

// NewOfKind returns an empty vector of the given kind.
func NewOfKind(k Kind, capacity int) Vector {
	switch k {
	case Int64:
		return NewInt64s(capacity)
	case Float64:
		return NewFloat64s(capacity)
	case String:
		return NewStrings(capacity)
	case Bool:
		return NewBools(capacity)
	default:
		panic(fmt.Sprintf("vector: unknown kind %v", k))
	}
}

// ---------------------------------------------------------------------------
// Int64s

// Int64s is a column of 64-bit signed integers.
type Int64s struct {
	vals []int64
}

// NewInt64s returns an empty integer vector with the given capacity hint.
func NewInt64s(capacity int) *Int64s { return &Int64s{vals: make([]int64, 0, capacity)} }

// FromInt64s wraps the given slice (not copied) as a vector.
func FromInt64s(vals []int64) *Int64s { return &Int64s{vals: vals} }

// Kind implements Vector.
func (v *Int64s) Kind() Kind { return Int64 }

// Len implements Vector.
func (v *Int64s) Len() int { return len(v.vals) }

// Values exposes the backing slice for hot loops. Callers must not resize.
func (v *Int64s) Values() []int64 { return v.vals }

// Append adds a value.
func (v *Int64s) Append(x int64) { v.vals = append(v.vals, x) }

// Gather implements Vector.
func (v *Int64s) Gather(sel []int) Vector {
	out := make([]int64, len(sel))
	for i, s := range sel {
		out[i] = v.vals[s]
	}
	return &Int64s{vals: out}
}

// AppendFrom implements Vector.
func (v *Int64s) AppendFrom(src Vector, i int) { v.vals = append(v.vals, src.(*Int64s).vals[i]) }

// HashRangeInto implements Vector.
func (v *Int64s) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	k := wordKey(seed)
	for i := lo; i < hi; i++ {
		sums[i] = mix(sums[i], hashWord(uint64(v.vals[i]), k))
	}
}

// Slice implements Vector.
func (v *Int64s) Slice(lo, hi int) Vector { return &Int64s{vals: v.vals[lo:hi:hi]} }

// EqualAt implements Vector.
func (v *Int64s) EqualAt(i int, other Vector, j int) bool {
	return v.vals[i] == other.(*Int64s).vals[j]
}

// LessAt implements Vector.
func (v *Int64s) LessAt(i int, other Vector, j int) bool {
	return v.vals[i] < other.(*Int64s).vals[j]
}

// Format implements Vector.
func (v *Int64s) Format(i int) string { return strconv.FormatInt(v.vals[i], 10) }

// New implements Vector.
func (v *Int64s) New(capacity int) Vector { return NewInt64s(capacity) }

// NewSized implements Vector.
func (v *Int64s) NewSized(n int) Vector { return &Int64s{vals: make([]int64, n)} }

// GatherRangeInto implements Vector.
func (v *Int64s) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	out := dst.(*Int64s).vals
	for i := lo; i < hi; i++ {
		out[off+i] = v.vals[sel[i]]
	}
}

// CopyRangeAt implements Vector.
func (v *Int64s) CopyRangeAt(dst Vector, lo, hi, off int) {
	copy(dst.(*Int64s).vals[off:], v.vals[lo:hi])
}

// EstimatedBytes implements Vector.
func (v *Int64s) EstimatedBytes() int64 { return int64(len(v.vals)) * 8 }

// ---------------------------------------------------------------------------
// Float64s

// Float64s is a column of 64-bit floats. It backs probability columns and
// every score computation in the IR layer.
type Float64s struct {
	vals []float64
}

// NewFloat64s returns an empty float vector with the given capacity hint.
func NewFloat64s(capacity int) *Float64s { return &Float64s{vals: make([]float64, 0, capacity)} }

// FromFloat64s wraps the given slice (not copied) as a vector.
func FromFloat64s(vals []float64) *Float64s { return &Float64s{vals: vals} }

// Kind implements Vector.
func (v *Float64s) Kind() Kind { return Float64 }

// Len implements Vector.
func (v *Float64s) Len() int { return len(v.vals) }

// Values exposes the backing slice for hot loops. Callers must not resize.
func (v *Float64s) Values() []float64 { return v.vals }

// Append adds a value.
func (v *Float64s) Append(x float64) { v.vals = append(v.vals, x) }

// Gather implements Vector.
func (v *Float64s) Gather(sel []int) Vector {
	out := make([]float64, len(sel))
	for i, s := range sel {
		out[i] = v.vals[s]
	}
	return &Float64s{vals: out}
}

// AppendFrom implements Vector.
func (v *Float64s) AppendFrom(src Vector, i int) {
	v.vals = append(v.vals, src.(*Float64s).vals[i])
}

// HashRangeInto implements Vector.
func (v *Float64s) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	k := wordKey(seed)
	for i := lo; i < hi; i++ {
		sums[i] = mix(sums[i], hashWord(math.Float64bits(v.vals[i]), k))
	}
}

// Slice implements Vector.
func (v *Float64s) Slice(lo, hi int) Vector { return &Float64s{vals: v.vals[lo:hi:hi]} }

// EqualAt implements Vector.
func (v *Float64s) EqualAt(i int, other Vector, j int) bool {
	return v.vals[i] == other.(*Float64s).vals[j]
}

// LessAt implements Vector.
func (v *Float64s) LessAt(i int, other Vector, j int) bool {
	return v.vals[i] < other.(*Float64s).vals[j]
}

// Format implements Vector.
func (v *Float64s) Format(i int) string {
	return strconv.FormatFloat(v.vals[i], 'g', 6, 64)
}

// New implements Vector.
func (v *Float64s) New(capacity int) Vector { return NewFloat64s(capacity) }

// NewSized implements Vector.
func (v *Float64s) NewSized(n int) Vector { return &Float64s{vals: make([]float64, n)} }

// GatherRangeInto implements Vector.
func (v *Float64s) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	out := dst.(*Float64s).vals
	for i := lo; i < hi; i++ {
		out[off+i] = v.vals[sel[i]]
	}
}

// CopyRangeAt implements Vector.
func (v *Float64s) CopyRangeAt(dst Vector, lo, hi, off int) {
	copy(dst.(*Float64s).vals[off:], v.vals[lo:hi])
}

// EstimatedBytes implements Vector.
func (v *Float64s) EstimatedBytes() int64 { return int64(len(v.vals)) * 8 }

// ---------------------------------------------------------------------------
// Strings

// Strings is a column of strings.
type Strings struct {
	vals []string
}

// NewStrings returns an empty string vector with the given capacity hint.
func NewStrings(capacity int) *Strings { return &Strings{vals: make([]string, 0, capacity)} }

// FromStrings wraps the given slice (not copied) as a vector.
func FromStrings(vals []string) *Strings { return &Strings{vals: vals} }

// Kind implements Vector.
func (v *Strings) Kind() Kind { return String }

// Len implements Vector.
func (v *Strings) Len() int { return len(v.vals) }

// Values exposes the backing slice for hot loops. Callers must not resize.
func (v *Strings) Values() []string { return v.vals }

// Append adds a value.
func (v *Strings) Append(x string) { v.vals = append(v.vals, x) }

// StringAt implements StringColumn.
func (v *Strings) StringAt(i int) string { return v.vals[i] }

// Gather implements Vector.
func (v *Strings) Gather(sel []int) Vector {
	out := make([]string, len(sel))
	for i, s := range sel {
		out[i] = v.vals[s]
	}
	return &Strings{vals: out}
}

// AppendFrom implements Vector. The source may be either string
// representation; dict-encoded values are decoded on append.
func (v *Strings) AppendFrom(src Vector, i int) {
	v.vals = append(v.vals, src.(StringColumn).StringAt(i))
}

// HashRangeInto implements Vector.
func (v *Strings) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	for i := lo; i < hi; i++ {
		sums[i] = mix(sums[i], maphash.String(seed, v.vals[i]))
	}
}

// Slice implements Vector.
func (v *Strings) Slice(lo, hi int) Vector { return &Strings{vals: v.vals[lo:hi:hi]} }

// EqualAt implements Vector. The other side may be either string
// representation; the concrete same-type case stays a direct slice read
// (this is the join-probe hot path for unencoded columns).
func (v *Strings) EqualAt(i int, other Vector, j int) bool {
	if o, ok := other.(*Strings); ok {
		return v.vals[i] == o.vals[j]
	}
	return v.vals[i] == other.(StringColumn).StringAt(j)
}

// LessAt implements Vector. The other side may be either string
// representation; the concrete same-type case stays a direct slice read
// (this is the sort-comparator hot path for unencoded columns).
func (v *Strings) LessAt(i int, other Vector, j int) bool {
	if o, ok := other.(*Strings); ok {
		return v.vals[i] < o.vals[j]
	}
	return v.vals[i] < other.(StringColumn).StringAt(j)
}

// Format implements Vector.
func (v *Strings) Format(i int) string { return v.vals[i] }

// New implements Vector.
func (v *Strings) New(capacity int) Vector { return NewStrings(capacity) }

// NewSized implements Vector.
func (v *Strings) NewSized(n int) Vector { return &Strings{vals: make([]string, n)} }

// GatherRangeInto implements Vector.
func (v *Strings) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	out := dst.(*Strings).vals
	for i := lo; i < hi; i++ {
		out[off+i] = v.vals[sel[i]]
	}
}

// CopyRangeAt implements Vector.
func (v *Strings) CopyRangeAt(dst Vector, lo, hi, off int) {
	copy(dst.(*Strings).vals[off:], v.vals[lo:hi])
}

// EstimatedBytes implements Vector.
//
// Strings count the header (16 bytes) plus payload. Payload bytes are
// summed on demand; callers cache the result (catalog.Cache computes it
// once per inserted entry).
func (v *Strings) EstimatedBytes() int64 {
	n := int64(len(v.vals)) * 16
	for _, s := range v.vals {
		n += int64(len(s))
	}
	return n
}

// ---------------------------------------------------------------------------
// Bools

// Bools is a column of booleans, mostly produced by predicate evaluation.
type Bools struct {
	vals []bool
}

// NewBools returns an empty boolean vector with the given capacity hint.
func NewBools(capacity int) *Bools { return &Bools{vals: make([]bool, 0, capacity)} }

// FromBools wraps the given slice (not copied) as a vector.
func FromBools(vals []bool) *Bools { return &Bools{vals: vals} }

// Kind implements Vector.
func (v *Bools) Kind() Kind { return Bool }

// Len implements Vector.
func (v *Bools) Len() int { return len(v.vals) }

// Values exposes the backing slice for hot loops. Callers must not resize.
func (v *Bools) Values() []bool { return v.vals }

// Append adds a value.
func (v *Bools) Append(x bool) { v.vals = append(v.vals, x) }

// Gather implements Vector.
func (v *Bools) Gather(sel []int) Vector {
	out := make([]bool, len(sel))
	for i, s := range sel {
		out[i] = v.vals[s]
	}
	return &Bools{vals: out}
}

// AppendFrom implements Vector.
func (v *Bools) AppendFrom(src Vector, i int) { v.vals = append(v.vals, src.(*Bools).vals[i]) }

// HashRangeInto implements Vector.
func (v *Bools) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	k := wordKey(seed)
	for i := lo; i < hi; i++ {
		var u uint64
		if v.vals[i] {
			u = 1
		}
		sums[i] = mix(sums[i], hashWord(u, k))
	}
}

// Slice implements Vector.
func (v *Bools) Slice(lo, hi int) Vector { return &Bools{vals: v.vals[lo:hi:hi]} }

// EqualAt implements Vector.
func (v *Bools) EqualAt(i int, other Vector, j int) bool {
	return v.vals[i] == other.(*Bools).vals[j]
}

// LessAt implements Vector.
func (v *Bools) LessAt(i int, other Vector, j int) bool {
	return !v.vals[i] && other.(*Bools).vals[j]
}

// Format implements Vector.
func (v *Bools) Format(i int) string { return strconv.FormatBool(v.vals[i]) }

// New implements Vector.
func (v *Bools) New(capacity int) Vector { return NewBools(capacity) }

// NewSized implements Vector.
func (v *Bools) NewSized(n int) Vector { return &Bools{vals: make([]bool, n)} }

// GatherRangeInto implements Vector.
func (v *Bools) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	out := dst.(*Bools).vals
	for i := lo; i < hi; i++ {
		out[off+i] = v.vals[sel[i]]
	}
}

// CopyRangeAt implements Vector.
func (v *Bools) CopyRangeAt(dst Vector, lo, hi, off int) {
	copy(dst.(*Bools).vals[off:], v.vals[lo:hi])
}

// EstimatedBytes implements Vector.
func (v *Bools) EstimatedBytes() int64 { return int64(len(v.vals)) }

// wordKey derives hashWord's key from a hashing seed, once per
// HashRangeInto call, so every seed (one per join index or grouping) keys
// its own word hash. The low bit is forced so the key is never zero.
func wordKey(seed maphash.Seed) uint64 { return maphash.String(seed, "") | 1 }

// hashWord hashes one fixed-width value (an integer, float bits, a bool or
// a dictionary code) under key k: murmur3's fmix64 finalizer of u ^ k.
// fmix64 is a bijection, so distinct words under one key never collide,
// and it costs a few multiplies where maphash.Bytes costs a call.
func hashWord(u, k uint64) uint64 {
	u ^= k
	u ^= u >> 33
	u *= 0xff51afd7ed558ccd
	u ^= u >> 33
	u *= 0xc4ceb9fe1a85ec53
	u ^= u >> 33
	return u
}

// mix combines an accumulated hash with a new value hash. The constant is
// the 64-bit FNV prime, which spreads consecutive column hashes well enough
// for hash-join buckets.
func mix(acc, h uint64) uint64 {
	return (acc*1099511628211 + h) ^ (h >> 32)
}
