package engine

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"irdb/internal/fault"
	"irdb/internal/faultpoint"
	"irdb/internal/relation"
)

// minMorsel is the smallest row range worth shipping to another worker.
// Below this, goroutine hand-off costs more than the loop body; chunked
// loops over fewer than 2*minMorsel rows run inline.
const minMorsel = 2048

// morselUnitRows caps one morsel of the chunked row loops (gather, row
// hashing, predicate eval, hash-build partitioning), the same bounded-unit
// trick sortRunRows applies to sort runs: morsels beyond the worker count
// execute inline between runRanges' cancellation checks, so a cancelled
// scan-heavy loop stops within one unit's worth of work instead of
// finishing a full 1/parallelism share. Every caller merges per-morsel
// results in morsel order (or writes disjoint rows), so the decomposition
// never shows in results.
const morselUnitRows = 64 * 1024

// parallelism reports the effective worker count: Ctx.Parallelism, or
// GOMAXPROCS when unset.
func (ctx *Ctx) parallelism() int {
	if ctx.Parallelism > 0 {
		return ctx.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// acquire tries to reserve one extra worker slot. It never blocks: when the
// pool is saturated the caller runs the work inline instead, which keeps
// plan execution deadlock-free no matter how subtrees nest — a goroutine
// never waits for a slot while holding one.
func (ctx *Ctx) acquire() bool {
	ctx.semOnce.Do(func() {
		// Slots gate only the extra goroutines; the calling goroutine
		// always works too, so parallelism p means at most p-1 slots.
		ctx.sem = make(chan struct{}, ctx.parallelism()-1)
	})
	select {
	case ctx.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

func (ctx *Ctx) release() { <-ctx.sem }

// execPair evaluates two sibling subtrees, concurrently when a worker slot
// is free. The left subtree runs on the calling goroutine; the right is
// shipped to a worker. Used by the binary operators (join, set ops) whose
// inputs are independent.
func (ctx *Ctx) execPair(c context.Context, l, r Node) (*relation.Relation, *relation.Relation, error) {
	if !ctx.acquire() {
		left, err := ctx.Exec(c, l)
		if err != nil {
			return nil, nil, err
		}
		right, err := ctx.Exec(c, r)
		if err != nil {
			return nil, nil, err
		}
		return left, right, nil
	}
	var (
		right *relation.Relation
		rErr  error
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		defer ctx.release()
		// Contain panics at the goroutine boundary: Exec recovers panics in
		// operator bodies, but a fault in Exec's own plumbing must not kill
		// the process either — it becomes this subtree's error.
		defer fault.Recover("subtree "+r.Label(), &rErr)
		right, rErr = ctx.Exec(c, r)
	}()
	// Drain before unwinding: if the left subtree panics below, the worker
	// evaluating the right subtree must finish (and release its slot)
	// before the panic propagates. Receiving again from the closed channel
	// on the normal path is free.
	defer func() { <-done }()
	left, lErr := ctx.Exec(c, l)
	<-done
	if lErr != nil {
		return nil, nil, lErr
	}
	if rErr != nil {
		return nil, nil, rErr
	}
	return left, right, nil
}

// parallelRanges splits [0, n) into contiguous morsels and runs fn once per
// morsel, concurrently when worker slots are free. Morsels are disjoint, so
// fn may write to per-row output slots without synchronization; callers
// that accumulate per-morsel results must merge them in morsel order to
// stay bit-identical to the serial loop.
func (ctx *Ctx) parallelRanges(c context.Context, n int, fn func(lo, hi int)) {
	ctx.runRanges(c, ctx.morselRanges(n), func(_, lo, hi int) { fn(lo, hi) })
}

// morselRanges returns the [lo, hi) boundaries parallelRanges would use,
// for callers that need to pre-size one output bucket per morsel. One
// morsel per worker when that keeps morsels small, capped at
// morselUnitRows for cancellation granularity, floored at minMorsel so
// tiny inputs stay serial — the same shape as sortRanges.
func (ctx *Ctx) morselRanges(n int) [][2]int {
	if n == 0 {
		return nil
	}
	if n < 2*minMorsel {
		return [][2]int{{0, n}}
	}
	p := ctx.parallelism()
	size := (n + p - 1) / p
	if size > morselUnitRows {
		size = morselUnitRows
	}
	if size < minMorsel {
		size = minMorsel
	}
	if n <= size {
		return [][2]int{{0, n}}
	}
	out := make([][2]int, 0, (n+size-1)/size)
	for lo := 0; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		out = append(out, [2]int{lo, hi})
	}
	return out
}

// runRanges executes fn for each pre-computed morsel, concurrently when
// slots are free. fn receives the morsel index so callers can fill
// per-morsel buckets and merge them in order afterwards.
//
// Morsel boundaries are the engine's cancellation points: once c is
// cancelled no further morsel starts, so long loops stop within one
// morsel's worth of work. Skipped morsels leave their output slots
// untouched — the caller's result is partial, which is fine because
// Ctx.Exec discards any result produced under a cancelled context.
//
// Panic containment: a panic in any morsel — worker goroutine or inline —
// is recovered at the morsel boundary so it never kills the process. The
// first panic stops further dispatch, the pool drains (wg.Wait), and the
// captured *fault.PanicError is re-panicked on the calling goroutine,
// where Ctx.Exec's recover converts it into the query's error. The
// transfer keeps the original worker stack, and it fires even when the
// context was cancelled concurrently: a panic always outranks
// cancellation.
func (ctx *Ctx) runRanges(c context.Context, ranges [][2]int, fn func(m, lo, hi int)) {
	var (
		wg      sync.WaitGroup
		panicMu sync.Mutex
		pErr    *fault.PanicError
	)
	run := func(m, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				pe := fault.Capture("morsel worker", r)
				panicMu.Lock()
				if pErr == nil {
					pErr = pe
				}
				panicMu.Unlock()
			}
		}()
		// Fault-injection site for the morsel dispatch path; no error
		// channel exists here, so a fired error is injected as a panic —
		// exactly the containment path under test. Free when unarmed.
		if err := faultpoint.Inject(faultpoint.SiteEngineMorsel); err != nil {
			panic(err)
		}
		fn(m, lo, hi)
	}
	for m, r := range ranges {
		if c.Err() != nil {
			break
		}
		panicMu.Lock()
		panicked := pErr != nil
		panicMu.Unlock()
		if panicked {
			break
		}
		if m < len(ranges)-1 && ctx.acquire() {
			wg.Add(1)
			go func(m, lo, hi int) {
				defer wg.Done()
				defer ctx.release()
				run(m, lo, hi)
			}(m, r[0], r[1])
		} else {
			run(m, r[0], r[1])
		}
	}
	wg.Wait()
	if pErr != nil {
		panic(pErr)
	}
}

// gatherParallel is relation.Gather with the row copies split over
// morsels: the destination relation is allocated once at full size and
// each worker writes its [lo, hi) slice of sel through the write-at-offset
// vector API. Disjoint ranges touch disjoint output rows, so the result is
// bit-identical to the serial Gather at any parallelism.
//
// The output footprint is charged against the query's memory budget
// before the destination is allocated; a denied charge aborts with
// ErrBudgetExceeded before any morsel is dispatched.
func gatherParallel(c context.Context, ctx *Ctx, r *relation.Relation, sel []int) (*relation.Relation, error) {
	if err := ctx.chargeRel(c, r, len(sel)); err != nil {
		return nil, err
	}
	out := r.NewSizedLike(len(sel))
	ctx.parallelRanges(c, len(sel), func(lo, hi int) {
		r.GatherRangeInto(out, sel, lo, hi)
	})
	return out, nil
}

// bucketIndex maps 64-bit row hashes to ascending runs of row indexes,
// partitioned by the low hash bits. Partitioning is what makes the build
// parallel: a hash lives in exactly one partition, so per-partition tables
// can be filled by concurrent workers without sharing. Each partition is a
// flat open-addressing table (openTable) instead of a Go map of slices:
// the probe hot path touches a linear-probed slot array plus one
// contiguous rows segment, with no per-bucket slice headers or map
// internals to chase and no per-bucket allocations during the build.
type bucketIndex struct {
	mask  uint64
	parts []openTable
}

// lookup returns the rows whose hash equals h, in ascending order — the
// same order a serial append-based build would store them in, which probe
// output order depends on.
func (b *bucketIndex) lookup(h uint64) []int32 { return b.parts[h&b.mask].lookup(h) }

// EstimatedBytes reports the heap footprint of the index's slot and row
// arrays, so cached join indexes can be weighed against the catalog
// cache's byte budget.
func (b *bucketIndex) EstimatedBytes() int64 {
	var n int64
	for i := range b.parts {
		t := &b.parts[i]
		n += int64(len(t.hash))*8 + int64(len(t.start)+len(t.count)+len(t.rows))*4
	}
	return n
}

// openTable is one partition of a bucketIndex: a linear-probing slot array
// over a contiguous rows array. All rows sharing one hash form a single
// contiguous segment of rows (ascending row order), located by the slot's
// start/count pair, so lookup returns a subslice without touching any
// per-bucket structure. Row indexes are stored as int32 — relations are
// in-memory columnar batches, far below 2^31 rows.
type openTable struct {
	mask  uint64 // len(hash) - 1; len is a power of two, load factor <= 0.5
	hash  []uint64
	start []int32
	count []int32 // 0 marks an empty slot
	rows  []int32
}

// lookup returns the ascending rows whose hash equals h, or nil.
func (t *openTable) lookup(h uint64) []int32 {
	// Partition selection consumed the low 6 bits at most; index slots by
	// the bits above them so partitioned and single-partition tables both
	// spread well.
	i := (h >> 6) & t.mask
	for {
		c := t.count[i]
		if c == 0 {
			return nil
		}
		if t.hash[i] == h {
			s := t.start[i]
			return t.rows[s : s+c]
		}
		i = (i + 1) & t.mask
	}
}

// findSlot returns h's slot: the slot already holding h, or the empty slot
// where it belongs. Load factor <= 0.5 guarantees the probe terminates.
func (t *openTable) findSlot(h uint64) uint64 {
	i := (h >> 6) & t.mask
	for t.count[i] != 0 && t.hash[i] != h {
		i = (i + 1) & t.mask
	}
	return i
}

// newOpenTable builds the table over rows supplied as ordered lists of
// ascending row indexes (the per-morsel partition lists, in morsel order).
// Two passes: the first counts occurrences per distinct hash, the second
// places each row into its hash's contiguous segment — in input order, so
// every segment ends up ascending.
func newOpenTable(hashes []uint64, lists [][]int32) openTable {
	total := listsLen(lists)
	size := tableSlots(total)
	t := openTable{
		mask:  uint64(size - 1),
		hash:  make([]uint64, size),
		start: make([]int32, size),
		count: make([]int32, size),
		rows:  make([]int32, total),
	}
	for _, l := range lists {
		for _, r := range l {
			h := hashes[r]
			i := t.findSlot(h)
			t.hash[i] = h
			t.count[i]++
		}
	}
	var off int32
	for i, c := range t.count {
		t.start[i] = off
		off += c
	}
	cur := make([]int32, size)
	copy(cur, t.start)
	for _, l := range lists {
		for _, r := range l {
			i := t.findSlot(hashes[r])
			t.rows[cur[i]] = r
			cur[i]++
		}
	}
	return t
}

// tableSlots sizes a linear-probing table over rows entries: the next power
// of two at or past 2*rows (at least 8), keeping the load factor <= 0.5.
func tableSlots(rows int) int {
	size := 8
	for size < 2*rows {
		size <<= 1
	}
	return size
}

// listsLen counts the rows of one partition's per-morsel lists.
func listsLen(lists [][]int32) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// checkBuildRows guards the open-addressing table's int32 row indexes: a
// build side past 2^31-1 rows would silently wrap and corrupt the index,
// so it is rejected explicitly. Factored out of buildBuckets so the guard
// is testable with a faked count (allocating 2^31 hashes is not).
func checkBuildRows(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("hash build side has %d rows, exceeding the index's int32 row-id space (%d); shard the build side", n, math.MaxInt32)
	}
	return nil
}

// buildBuckets builds the hash → rows index over the given per-row hashes:
// partitionRows splits the rows by partition, then one worker per
// partition builds that partition's open table from its lists — in morsel
// order, so every hash's rows stay ascending.
func buildBuckets(c context.Context, ctx *Ctx, hashes []uint64) (*bucketIndex, error) {
	if err := checkBuildRows(len(hashes)); err != nil {
		return nil, err
	}
	if err := c.Err(); err != nil {
		return nil, err
	}
	// Budget the table up front: slot arrays are sized to the next power
	// of two past 2x rows (16 bytes/slot worst-case ~4x rows), plus the
	// contiguous rows array and the per-morsel partition lists (4 bytes
	// each per row).
	if err := ctx.charge(c, int64(len(hashes))*48); err != nil {
		return nil, err
	}
	lists, err := partitionRows(c, ctx, hashes)
	if err != nil {
		return nil, err
	}
	parts := make([]openTable, len(lists))
	ctx.runRanges(c, taskRanges(len(lists)), func(_, q, _ int) {
		parts[q] = newOpenTable(hashes, lists[q])
	})
	if err := c.Err(); err != nil {
		// Cancellation mid-build leaves zero-valued partitions whose
		// lookup would panic; the index must never escape (the join would
		// otherwise cache it as a valid aux entry).
		return nil, err
	}
	return &bucketIndex{mask: uint64(len(lists) - 1), parts: parts}, nil
}

// partitionRows is the first phase of the hash builds (buildBuckets,
// hashLeaders). It splits the rows by the low bits of their hash into one
// partition per worker, rounded up to a power of two and at most 64
// (tables index slots by the hash bits above the low 6); inputs of one
// morsel form one partition. Each morsel, in parallel, counts its rows per
// partition and cuts one ascending list per partition from one array of
// its row count, so the lists take 4 bytes per row, which the caller
// charges. lists[q] holds partition q's lists in morsel order, so its rows
// ascend across them.
func partitionRows(c context.Context, ctx *Ctx, hashes []uint64) ([][][]int32, error) {
	ranges := ctx.morselRanges(len(hashes))
	nParts := 1
	for len(ranges) > 1 && nParts < ctx.parallelism() && nParts < 64 {
		nParts <<= 1
	}
	mask := uint64(nParts - 1)
	lists := make([][][]int32, nParts)
	for q := range lists {
		lists[q] = make([][]int32, len(ranges))
	}
	ctx.runRanges(c, ranges, func(m, lo, hi int) {
		count := make([]int, nParts)
		for _, h := range hashes[lo:hi] {
			count[h&mask]++
		}
		rows := make([]int32, hi-lo)
		parts := make([][]int32, nParts)
		off := 0
		for q, k := range count {
			parts[q] = rows[off : off : off+k]
			off += k
		}
		for i := lo; i < hi; i++ {
			q := hashes[i] & mask
			parts[q] = append(parts[q], int32(i))
		}
		for q, p := range parts {
			lists[q][m] = p
		}
	})
	if err := c.Err(); err != nil {
		// Partition lists are partial; building tables over them would read
		// inconsistent state for nothing.
		return nil, err
	}
	return lists, nil
}
