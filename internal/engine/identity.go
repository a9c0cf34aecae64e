package engine

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"irdb/internal/expr"
)

// Plan identity. Every node carries an ident that its constructor computes
// once: a 128-bit digest of the operator tag, the operator's parameters
// and the children's digests, the sorted set of base tables the subtree
// scans, and whether the subtree holds a parameter. Cache keys and
// dependency sets (Ctx.Exec), and join-index aux keys
// (HashJoin.buildIndex), are field reads; nothing walks or renders a plan
// to identify it at execution time. README.md "Plan identity" states the
// contract.

// digestLen is the byte length of a node digest.
const digestLen = 16

// ident is a node's plan identity. Only constructors set it: a node copied
// and then modified would keep its old digest — a stale cache key that
// answers with another plan's rows — so plan passes derive nodes through
// constructors only (rebuild).
type ident struct {
	digest string   // digestLen bytes
	scans  []string // sorted, deduplicated base tables read; never nil
	// params reports a parameter placeholder in the subtree: an
	// expr.Param in some expression, or a relation-valued Values leaf.
	// Bind and Params return at once from a subtree without one.
	params bool
}

// Fingerprint implements Node: the 16-byte digest that keys the
// materialization cache.
func (id *ident) Fingerprint() string { return id.digest }

func (id *ident) identity() *ident { return id }

// identOf returns n's identity, panicking when n was assembled as a struct
// literal instead of by its constructor: a zero identity would make every
// such node share one cache key.
func identOf(n Node) *ident {
	id := n.identity()
	if len(id.digest) != digestLen {
		panic(fmt.Sprintf("engine: %T was built without its constructor", n))
	}
	return id
}

// noScans is the scan set of a subtree that reads no base table. It is
// empty but not nil: the cache reads a nil set as "unknown", which every
// ingest publish evicts.
var noScans = []string{}

// hasher accumulates a digest in two 64-bit lanes with fixed seeds and
// distinct primes, so a digest is the same in every process and on every
// platform. Each lane absorbs one 64-bit word per round, an
// xxhash64-style multiply–rotate–multiply: a fixed-width field is one
// word, a string is its little-endian 8-byte words with the last one
// zero-padded. Every variable-length field is length-prefixed, so field
// boundaries cannot shift between two different parameter lists. params
// records that an expr.Param was hashed (see ident).
type hasher struct {
	a, b   uint64
	params bool
}

const (
	laneASeed = 0xcbf29ce484222325 // FNV-1a 64-bit offset basis
	laneBSeed = 0x62b821756295c58d // low half of the FNV-1a 128-bit offset basis
	prime1    = 0x9e3779b185ebca87 // the xxhash64 primes
	prime2    = 0xc2b2ae3d27d4eb4f
	prime3    = 0x165667b19e3779f9
	prime4    = 0x85ebca77c2b2ae63
)

// newHasher starts the digest of one operator.
func newHasher(tag string) hasher {
	h := hasher{a: laneASeed, b: laneBSeed}
	h.str(tag)
	return h
}

// u64 absorbs one word into both lanes.
func (h *hasher) u64(v uint64) {
	h.a = bits.RotateLeft64(h.a+v*prime2, 31) * prime1
	h.b = bits.RotateLeft64(h.b+v*prime4, 29) * prime3
}

func (h *hasher) byte(c byte) { h.u64(uint64(c)) }

// raw absorbs s a word at a time. Callers length-prefix s or give it a
// fixed length, so the zero padding of the last word is unambiguous.
func (h *hasher) raw(s string) {
	for ; len(s) >= 8; s = s[8:] {
		h.u64(uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
			uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56)
	}
	if len(s) > 0 {
		var w uint64
		for i := len(s) - 1; i >= 0; i-- {
			w = w<<8 | uint64(s[i])
		}
		h.u64(w)
	}
}

func (h *hasher) int(v int) { h.u64(uint64(v)) }

func (h *hasher) float(v float64) { h.u64(math.Float64bits(v)) }

func (h *hasher) bool(v bool) {
	if v {
		h.byte(1)
	} else {
		h.byte(0)
	}
}

func (h *hasher) str(s string) {
	h.int(len(s))
	h.raw(s)
}

func (h *hasher) strs(ss []string) {
	h.int(len(ss))
	for _, s := range ss {
		h.str(s)
	}
}

func (h *hasher) sortSpecs(keys []SortSpec) {
	h.int(len(keys))
	for _, k := range keys {
		h.str(k.Col)
		h.bool(k.Desc)
	}
}

// expr hashes a scalar expression structurally: a tag per expression
// type, its operator or literal, then its operands. Literal kinds stay
// apart (the integer 1 and the float 1.0 are different parameters), and a
// function name hashes case-folded, as calls resolve it.
func (h *hasher) expr(e expr.Expr) {
	switch x := e.(type) {
	case nil:
		h.byte(0)
	case expr.Col:
		h.byte('c')
		h.str(x.Name)
	case expr.Prob:
		h.byte('p')
	case expr.Param:
		h.byte('?')
		h.str(x.Name)
		h.params = true
	case expr.Lit:
		h.lit(x)
	case expr.Cmp:
		h.byte('=')
		h.int(int(x.Op))
		h.expr(x.L)
		h.expr(x.R)
	case expr.Arith:
		h.byte('+')
		h.int(int(x.Op))
		h.expr(x.L)
		h.expr(x.R)
	case expr.And:
		h.byte('&')
		h.expr(x.L)
		h.expr(x.R)
	case expr.Or:
		h.byte('|')
		h.expr(x.L)
		h.expr(x.R)
	case expr.Not:
		h.byte('!')
		h.expr(x.E)
	case expr.Call:
		h.byte('(')
		h.str(strings.ToLower(x.Name))
		h.int(len(x.Args))
		for _, a := range x.Args {
			h.expr(a)
		}
	default:
		// An expression type outside package expr: its canonical
		// rendering under its Go type name.
		h.byte('#')
		h.str(fmt.Sprintf("%T", e))
		h.str(e.String())
	}
}

func (h *hasher) lit(l expr.Lit) {
	switch v := l.Value.(type) {
	case int64:
		h.byte('i')
		h.u64(uint64(v))
	case float64:
		h.byte('f')
		h.float(v)
	case string:
		h.byte('s')
		h.str(v)
	case bool:
		h.byte('b')
		h.bool(v)
	default:
		h.byte('L')
		h.str(fmt.Sprintf("%T:%v", v, v))
	}
}

// finish mixes the children's digests into h and returns the identity of
// a node over kids: the digest, the union of the kids' scan sets, and
// whether h or any kid holds a parameter.
func (h *hasher) finish(kids ...Node) ident {
	scans, params := noScans, h.params
	for _, k := range kids {
		id := identOf(k)
		h.raw(id.digest)
		scans = unionSorted(scans, id.scans)
		params = params || id.params
	}
	return ident{digest: h.sum(), scans: scans, params: params}
}

// sum avalanches both lanes (the murmur3 finalizer) and returns them as
// the 16-byte digest.
func (h *hasher) sum() string {
	var out [digestLen]byte
	for i, lane := range [2]uint64{fmix64(h.a), fmix64(h.b)} {
		for j := 0; j < 8; j++ {
			out[8*i+j] = byte(lane >> (8 * j))
		}
	}
	return string(out[:])
}

func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// unionSorted merges two sorted, deduplicated name lists. An input that
// already is the union is returned as-is, so the scan sets along a
// single-table spine share one slice.
func unionSorted(a, b []string) []string {
	switch {
	case len(b) == 0:
		return a
	case len(a) == 0:
		return b
	}
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	out = append(append(out, a[i:]...), b[j:]...)
	switch len(out) {
	case len(a):
		return a
	case len(b):
		return b
	}
	return out
}
