package vector

import (
	"hash/maphash"
	"strconv"
)

// Const is a logically dense column whose n rows all hold one value. It is
// the representation expr.Lit evaluates to: a literal in a predicate or a
// computed projection used to cost one n-length allocation per evaluation
// (and per row-range morsel under parallel selection); a Const costs a
// few words regardless of n, and comparison loops read the scalar
// directly.
//
// Const stays inside expression evaluation: every boundary where vectors
// escape the evaluator (relation columns, scalar-function arguments,
// boolean connectives) materializes it via Materialize, so the engine's
// hot paths — which type-switch on the dense vector types — never meet
// one. The Vector interface is still implemented in full as a safety net.
type Const struct {
	kind Kind
	n    int
	i    int64
	f    float64
	s    string
	b    bool
}

// ConstInt64 returns an n-row constant integer column.
func ConstInt64(x int64, n int) *Const { return &Const{kind: Int64, n: n, i: x} }

// ConstFloat64 returns an n-row constant float column.
func ConstFloat64(x float64, n int) *Const { return &Const{kind: Float64, n: n, f: x} }

// ConstString returns an n-row constant string column.
func ConstString(s string, n int) *Const { return &Const{kind: String, n: n, s: s} }

// ConstBool returns an n-row constant boolean column.
func ConstBool(b bool, n int) *Const { return &Const{kind: Bool, n: n, b: b} }

// Int64Value returns the scalar of an Int64 Const.
func (v *Const) Int64Value() int64 { return v.i }

// Float64Value returns the scalar of a Float64 Const, or the Int64 scalar
// widened — the coercion Cmp and Arith apply to mixed numeric operands.
func (v *Const) Float64Value() float64 {
	if v.kind == Int64 {
		return float64(v.i)
	}
	return v.f
}

// StringValue returns the scalar of a String Const.
func (v *Const) StringValue() string { return v.s }

// BoolValue returns the scalar of a Bool Const.
func (v *Const) BoolValue() bool { return v.b }

// Materialize expands the constant into the equivalent dense vector.
func (v *Const) Materialize() Vector {
	switch v.kind {
	case Int64:
		vals := make([]int64, v.n)
		for i := range vals {
			vals[i] = v.i
		}
		return FromInt64s(vals)
	case Float64:
		vals := make([]float64, v.n)
		for i := range vals {
			vals[i] = v.f
		}
		return FromFloat64s(vals)
	case String:
		vals := make([]string, v.n)
		for i := range vals {
			vals[i] = v.s
		}
		return FromStrings(vals)
	default:
		vals := make([]bool, v.n)
		for i := range vals {
			vals[i] = v.b
		}
		return FromBools(vals)
	}
}

// MaterializedBytes reports the EstimatedBytes of the dense vector
// Materialize returns, without allocating it.
func (v *Const) MaterializedBytes() int64 {
	n := int64(v.n)
	switch v.kind {
	case Int64, Float64:
		return n * 8
	case String:
		return n * int64(16+len(v.s))
	default:
		return n
	}
}

// MaterializeConst returns v with any Const representation expanded to a
// dense vector; non-Const vectors pass through untouched. Call it wherever
// an expression result leaves the expression evaluator.
func MaterializeConst(v Vector) Vector {
	if cv, ok := v.(*Const); ok {
		return cv.Materialize()
	}
	return v
}

// Kind implements Vector.
func (v *Const) Kind() Kind { return v.kind }

// Len implements Vector.
func (v *Const) Len() int { return v.n }

// Gather implements Vector.
func (v *Const) Gather(sel []int) Vector {
	out := *v
	out.n = len(sel)
	return &out
}

// AppendFrom implements Vector by panicking: Const is immutable. The
// engine never appends to expression results.
func (v *Const) AppendFrom(src Vector, i int) {
	panic("vector: AppendFrom on Const")
}

// HashRangeInto implements Vector. Every row hashes the same value through
// a one-row materialized column, keeping Const hashes identical to the
// materialized column's.
func (v *Const) HashRangeInto(seed maphash.Seed, sums []uint64, lo, hi int) {
	one := v.Gather([]int{0}).(*Const).Materialize()
	for i := lo; i < hi; i++ {
		one.HashRangeInto(seed, sums[i:i+1], 0, 1)
	}
}

// Slice implements Vector.
func (v *Const) Slice(lo, hi int) Vector {
	out := *v
	out.n = hi - lo
	return &out
}

// EqualAt implements Vector.
func (v *Const) EqualAt(i int, other Vector, j int) bool {
	switch v.kind {
	case Int64:
		if o, ok := other.(*Const); ok {
			return v.i == o.i
		}
		return other.(*Int64s).vals[j] == v.i
	case Float64:
		if o, ok := other.(*Const); ok {
			return v.f == o.f
		}
		return other.(*Float64s).vals[j] == v.f
	case String:
		return v.s == other.(StringColumn).StringAt(j)
	default:
		if o, ok := other.(*Const); ok {
			return v.b == o.b
		}
		return other.(*Bools).vals[j] == v.b
	}
}

// LessAt implements Vector.
func (v *Const) LessAt(i int, other Vector, j int) bool {
	switch v.kind {
	case Int64:
		if o, ok := other.(*Const); ok {
			return v.i < o.i
		}
		return v.i < other.(*Int64s).vals[j]
	case Float64:
		if o, ok := other.(*Const); ok {
			return v.f < o.f
		}
		return v.f < other.(*Float64s).vals[j]
	case String:
		return v.s < other.(StringColumn).StringAt(j)
	default:
		if o, ok := other.(*Const); ok {
			return !v.b && o.b
		}
		return !v.b && other.(*Bools).vals[j]
	}
}

// StringAt implements StringColumn for string constants.
func (v *Const) StringAt(i int) string { return v.s }

// Format implements Vector.
func (v *Const) Format(i int) string {
	switch v.kind {
	case Int64:
		return strconv.FormatInt(v.i, 10)
	case Float64:
		return strconv.FormatFloat(v.f, 'g', 6, 64)
	case String:
		return v.s
	default:
		return strconv.FormatBool(v.b)
	}
}

// New implements Vector, returning a dense (writable) vector of the kind.
func (v *Const) New(capacity int) Vector { return NewOfKind(v.kind, capacity) }

// NewSized implements Vector, returning a dense (writable) vector of the
// kind: NewSized exists for write-at-offset materialization, which a
// constant cannot back.
func (v *Const) NewSized(n int) Vector { return NewSizedOfKind(v.kind, n) }

// GatherRangeInto implements Vector.
func (v *Const) GatherRangeInto(dst Vector, sel []int, lo, hi, off int) {
	switch v.kind {
	case Int64:
		out := dst.(*Int64s).vals
		for i := lo; i < hi; i++ {
			out[off+i] = v.i
		}
	case Float64:
		out := dst.(*Float64s).vals
		for i := lo; i < hi; i++ {
			out[off+i] = v.f
		}
	case String:
		out := dst.(*Strings).vals
		for i := lo; i < hi; i++ {
			out[off+i] = v.s
		}
	default:
		out := dst.(*Bools).vals
		for i := lo; i < hi; i++ {
			out[off+i] = v.b
		}
	}
}

// CopyRangeAt implements Vector. GatherRangeInto never reads sel for a
// Const (every row writes the one scalar), so no index slice is needed.
func (v *Const) CopyRangeAt(dst Vector, lo, hi, off int) {
	v.GatherRangeInto(dst, nil, 0, hi-lo, off)
}

// EstimatedBytes implements Vector.
func (v *Const) EstimatedBytes() int64 { return int64(16 + len(v.s)) }
