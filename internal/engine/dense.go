package engine

import (
	"context"
	"fmt"
	"slices"

	"irdb/internal/vector"
)

// Direct-addressed keys.
//
// A single key column whose values are dense integers needs no hash: the
// value itself, less the column's minimum, is an array slot. Two column
// types qualify:
//
//   - a DictStrings column: slot = code, slots = dict length. Within one
//     dict equal codes mean equal strings, so a slot match is a key match;
//   - an Int64s column: slot = v − min, slots = max − min + 1.
//
// Slots are computed in wrapping uint64 arithmetic, so every value outside
// [min, max] — including a probe's code −1 for a string its dict lacks —
// lands at or past slots and matches nothing, with one bounds check.
//
// An operator takes the dense path when its arrays take no more bytes than
// the hashed structures they replace for the same rows (denseJoinSlots,
// denseGroupSlots); multi-column, float, bool, plain-string and sparse keys
// keep the hashed path. A join builds a denseIndex by counting sort, rows
// ascending within each slot, so pairs come out in the same order as from
// the hashed buckets; a grouping numbers groups through one slot → group
// array in a single pass (denseGroupRows).

// denseKey is the raw value type of a direct-addressable key column.
type denseKey interface{ ~int32 | ~int64 }

// denseDomain is a key column's slot space: value v is at slot
// uint64(v) − base, and slots at or past slots hold nothing.
type denseDomain struct {
	base  uint64
	slots int
}

// slot maps a key value to its slot; out-of-domain values map to a slot
// at or past d.slots.
func (d denseDomain) slot(v uint64) uint64 { return v - d.base }

// denseDomainOf returns the slot space of key column v when v is a
// DictStrings or Int64s column at most maxSlots slots wide. An Int64s
// column's span max − min is taken in uint64, where it cannot overflow,
// and compared before the +1 that would wrap for the full int64 range.
// The min/max scan checks cancellation every 8k rows.
func denseDomainOf(c context.Context, v vector.Vector, maxSlots int) (denseDomain, bool, error) {
	switch k := v.(type) {
	case *vector.DictStrings:
		n := k.Dict().Len()
		return denseDomain{slots: n}, n <= maxSlots, nil
	case *vector.Int64s:
		vals := k.Values()
		if len(vals) == 0 {
			return denseDomain{}, true, nil
		}
		lo, hi := vals[0], vals[0]
		for i, x := range vals {
			if i&0x1fff == 0x1fff && c.Err() != nil {
				return denseDomain{}, false, c.Err()
			}
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		dom, ok := spanDomain(lo, hi, maxSlots)
		return dom, ok, nil
	}
	return denseDomain{}, false, nil
}

// spanDomain is the slot space of Int64s values in [lo, hi] when it is at
// most maxSlots slots wide.
func spanDomain(lo, hi int64, maxSlots int) (denseDomain, bool) {
	span := uint64(hi) - uint64(lo)
	if span >= uint64(maxSlots) {
		return denseDomain{}, false
	}
	return denseDomain{base: uint64(lo), slots: int(span) + 1}, true
}

// minTableSlots is the fewest slots the hashed builds' open-addressing
// tables take over n rows, however partitionRows splits them: every
// partition's table has at least 8 slots and twice its rows (tableSlots).
func minTableSlots(n int) int { return max(8, 2*n) }

// denseJoinSlots is the widest build key domain a join indexes directly:
// a dense index takes 4 B per slot plus one, the hashed one 16 B per table
// slot, and both 4 B per row, so slots + 1 <= 4·minTableSlots(n) keeps a
// dense index no larger than the hashed one at any parallelism.
func denseJoinSlots(n int) int { return 4*minTableSlots(n) - 1 }

// denseGroupSlots is the widest key domain a grouping of n rows addresses
// directly: its 4 B per slot must not pass the hashed path's scaffolding —
// leaders (4 B/row), hashes (8 B/row) and partition lists (4 B/row), plus
// 12 B per leader-table slot.
func denseGroupSlots(n int) int { return 4*n + 3*minTableSlots(n) }

// denseIndex is a join index over a direct-addressed build key: the build
// rows at slot s are rows[off[s]:off[s+1]], ascending.
type denseIndex struct {
	dom  denseDomain
	off  []int32 // dom.slots + 1 offsets into rows
	rows []int32
}

// lookup returns the ascending build rows whose key is v, or nil.
func (d *denseIndex) lookup(v uint64) []int32 {
	s := d.dom.slot(v)
	if s >= uint64(d.dom.slots) {
		return nil
	}
	return d.rows[d.off[s]:d.off[s+1]]
}

// EstimatedBytes reports the heap footprint of the offset and row arrays.
func (d *denseIndex) EstimatedBytes() int64 { return int64(len(d.off)+len(d.rows)) * 4 }

// buildDenseIndex indexes the build key column by counting sort, charging
// both arrays before it allocates them.
func buildDenseIndex(c context.Context, ctx *Ctx, key vector.Vector, dom denseDomain) (*denseIndex, error) {
	n := key.Len()
	if err := ctx.charge(c, int64(dom.slots+1+n)*4); err != nil {
		return nil, err
	}
	codes, ints, err := keyValues(key)
	if err != nil {
		return nil, err
	}
	d := &denseIndex{dom: dom, off: make([]int32, dom.slots+1), rows: make([]int32, n)}
	if codes != nil {
		err = fillDenseIndex(c, d, codes)
	} else {
		err = fillDenseIndex(c, d, ints)
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// fillDenseIndex counts the rows per slot, turns the counts into slot end
// offsets, then places rows walking backwards, each decrementing its
// slot's offset: the slot ends at its start, rows ascending within it, and
// off[slots] stays the row count.
func fillDenseIndex[K denseKey](c context.Context, d *denseIndex, keys []K) error {
	for i, k := range keys {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			return c.Err()
		}
		d.off[d.dom.slot(uint64(k))]++
	}
	var end int32
	for s, cnt := range d.off {
		end += cnt
		d.off[s] = end
	}
	for i := len(keys) - 1; i >= 0; i-- {
		if i&0x1fff == 0 && c.Err() != nil {
			return c.Err()
		}
		s := d.dom.slot(uint64(keys[i]))
		d.off[s]--
		d.rows[d.off[s]] = int32(i)
	}
	return nil
}

// keyValues returns a direct-addressed key column's raw values: the codes
// of a DictStrings column or the values of an Int64s one. Callers pass
// codes on when they are non-nil, ints otherwise; an empty column of
// either type iterates nothing.
func keyValues(key vector.Vector) (codes []int32, ints []int64, err error) {
	switch k := key.(type) {
	case *vector.DictStrings:
		return k.Codes(), nil, nil
	case *vector.Int64s:
		return nil, k.Values(), nil
	}
	return nil, nil, fmt.Errorf("direct-addressed key of type %T", key)
}

// denseProbeKey is keyValues for a dense index's probe key, which
// alignProbeVecs has put in the build dict's codes when the build key is
// dict-encoded. A Const key is materialized first, charged at 8 B per row.
func denseProbeKey(c context.Context, ctx *Ctx, key vector.Vector) (codes []int32, ints []int64, err error) {
	if cv, ok := key.(*vector.Const); ok {
		if err := ctx.charge(c, int64(cv.Len())*8); err != nil {
			return nil, nil, err
		}
		key = cv.Materialize()
	}
	return keyValues(key)
}

// probeDense appends the (probe, build) pairs of probe rows [lo, hi) to
// pp and bp, in probe row order with build rows ascending. A first pass
// counts the pairs from the slot offsets, so each list grows once, to
// its exact size.
func probeDense[K denseKey](c context.Context, d *denseIndex, keys []K, lo, hi int, pp, bp []int) ([]int, []int) {
	n := 0
	for i := lo; i < hi; i++ {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			return pp, bp
		}
		n += len(d.lookup(uint64(keys[i])))
	}
	pp, bp = slices.Grow(pp, n), slices.Grow(bp, n)
	for i := lo; i < hi; i++ {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			break
		}
		for _, bi := range d.lookup(uint64(keys[i])) {
			pp = append(pp, i)
			bp = append(bp, int(bi))
		}
	}
	return pp, bp
}

// firstDense sets match[i-lo] to the first build row matching probe row
// i, or −1, for the probe rows [lo, hi).
func firstDense[K denseKey](c context.Context, d *denseIndex, keys []K, lo, hi int, match []int32) {
	for i := lo; i < hi; i++ {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			return
		}
		match[i-lo] = -1
		if rows := d.lookup(uint64(keys[i])); len(rows) > 0 {
			match[i-lo] = rows[0]
		}
	}
}

// denseGroupRows groups the rows of one direct-addressed key column:
// first[slot] holds the slot's group id + 1 (zeroed memory is unseen), so
// one pass in row order assigns first-appearance ids and records each
// group's first row. It charges the row → group array, first and the
// first-row list (at most one entry per row and per slot) before
// allocating them.
func denseGroupRows(c context.Context, ctx *Ctx, key vector.Vector, dom denseDomain) (groupOf, firstRow []int, err error) {
	n := key.Len()
	maxGroups := min(n, dom.slots)
	if err := ctx.charge(c, int64(n)*8+int64(dom.slots)*4+int64(maxGroups)*8); err != nil {
		return nil, nil, err
	}
	codes, ints, err := keyValues(key)
	if err != nil {
		return nil, nil, err
	}
	groupOf = make([]int, n)
	first := make([]int32, dom.slots)
	firstRow = make([]int, 0, maxGroups)
	if codes != nil {
		firstRow = numberDense(c, dom, codes, first, groupOf, firstRow)
	} else {
		firstRow = numberDense(c, dom, ints, first, groupOf, firstRow)
	}
	// A cancelled pass leaves groupOf partial: the grouping is void.
	if err := c.Err(); err != nil {
		return nil, nil, err
	}
	return groupOf, firstRow, nil
}

// numberDense is denseGroupRows' pass over the raw key values.
func numberDense[K denseKey](c context.Context, dom denseDomain, keys []K, first []int32, groupOf, firstRow []int) []int {
	for i, k := range keys {
		if i&0x1fff == 0x1fff && c.Err() != nil {
			break
		}
		s := dom.slot(uint64(k))
		g := first[s]
		if g == 0 {
			firstRow = append(firstRow, i)
			g = int32(len(firstRow))
			first[s] = g
		}
		groupOf[i] = int(g - 1)
	}
	return firstRow
}
