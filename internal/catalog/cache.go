package catalog

import (
	"container/list"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"irdb/internal/fault"
	"irdb/internal/faultpoint"
	"irdb/internal/relation"
)

// Cache memoizes materialized intermediate results, keyed by plan
// fingerprint. It implements the paper's on-demand vertical partitioning:
// the first evaluation of, say, SELECT [property="description"] (triples)
// pays the scan; every later query touching the same sub-plan reads the
// materialized "cache table".
//
// Entries are of two kinds with separate key spaces: relations (the cache
// tables, through GetOrComputeDeps) and auxiliary structures (join
// indexes, through GetOrComputeAuxDeps). Both enter through one
// single-flighted path: on a miss the first caller starts the
// computation, and later callers missing on the same key block on that
// in-flight result instead of recomputing it. This is what keeps a shared
// cache useful under the paper's deployment load (one VM, 150k requests a
// day) — without it, every popular cold sub-plan would be rebuilt once per
// concurrent request (a cache stampede).
//
// Eviction is GreedyDual-Size (Cao & Irani, "Cost-Aware WWW Proxy Caching
// Algorithms", USITS 1997) when a byte budget is set (SetMaxBytes) or the
// entry count is bounded. Every entry records its rebuild cost — the wall
// time of the computation that produced it, nested cache misses included,
// plus the recorded costs of the cached entries it read (see readCost) —
// and carries the priority clock + cost/bytes, set on insertion and on
// every hit. Pressure evicts the lowest priority, the least recently used
// among equals, and advances the clock to the victim's priority, so an
// entry that stops being read ages out once the clock passes it. Under a
// budget this keeps the expensive-per-byte indexes queries read and lets
// the cheap bulky intermediates that rebuild them go; with equal costs
// per byte the order is plain LRU. An entry larger than the whole budget
// is never admitted at all, and admitted entries evict only as many bytes
// as they need. Auxiliary entries share the same order and byte budget:
// values implementing Sized are weighed by their reported footprint,
// others count as zero bytes but remain evictable. Statistics feed
// /stats and the catalog.cache_* benchmark metrics.
type Cache struct {
	mu       sync.Mutex
	capacity int             // <= 0 means unbounded; bounds relation entries only
	maxBytes int64           // <= 0 means unbounded; bounds relation + aux bytes
	bytes    [numKinds]int64 // estimated bytes of the cached entries, per kind
	entries  [numKinds]map[string]*list.Element
	order    *list.List // front = most recently used; holds entries of both kinds
	clock    float64    // GreedyDual-Size inflation: the highest victim priority so far

	// In-flight computations by kind and key. gen invalidates flights
	// started before the last Clear: their result is still handed to
	// callers that joined them, but is not inserted into the (now newer)
	// cache.
	flights [numKinds]map[string]*flight
	gen     uint64

	hits       uint64
	misses     uint64
	evictions  uint64
	shared     uint64
	oversize   uint64
	panics     uint64 // compute panics the cache itself contained
	staleDrops uint64 // flight results discarded as watermark-stale
	depInvals  uint64 // entries evicted by selective dep invalidation

	// weigh overrides how relation entries are sized (set once at
	// construction, before concurrent use). The catalog installs a
	// marginal-bytes weigher that charges nothing for dictionaries its
	// base tables pin; a standalone cache falls back to EstimatedBytes.
	weigh func(*relation.Relation) int64
	// stale and curWM are the watermark hooks the catalog installs (set
	// once at construction): curWM reads the current ingest watermark,
	// stale reports whether a result computed at a given watermark over
	// the given tables is out of date. Both may be called with c.mu held
	// (lock order cache.mu -> catalog.verMu); nil hooks mean no ingest
	// tracking (standalone cache) and nothing is ever stale.
	stale func(deps []string, wm uint64) bool
	curWM func() uint64
}

// entryKind selects one of the cache's two key spaces.
type entryKind uint8

const (
	kindRel entryKind = iota // materialized relations, keyed by plan fingerprint
	kindAux                  // auxiliary structures (join indexes)
	numKinds
)

// flight is one in-progress computation that concurrent callers share.
// The computation runs on its own goroutine under a flight-owned context,
// detached from every caller: the leader starting the flight can be
// cancelled and leave without killing work other callers are waiting for.
// waiters counts the callers (leader included) still interested in the
// result; when the last one detaches, cancel stops the now-orphaned
// computation.
type flight struct {
	done chan struct{}
	val  any
	err  error

	cancel  context.CancelFunc // cancels the flight's own context
	waiters int                // guarded by Cache.mu
}

// Sized is implemented by auxiliary cache values (join indexes) that can
// report their heap footprint, letting them count toward the byte budget.
type Sized interface {
	EstimatedBytes() int64
}

type cacheEntry struct {
	kind  entryKind
	key   string
	val   any           // *relation.Relation for kindRel
	bytes int64         // estimated bytes at insertion, so accounting stays consistent
	cost  time.Duration // rebuild cost of val: compute wall time plus cached inputs' costs
	pri   float64       // eviction priority: clock + cost/bytes at the last use
	// deps is the set of base tables the entry was computed from, and wm
	// the ingest watermark at which its computation started. A delta
	// publish to table T evicts exactly the entries with T in deps (nil
	// deps = unknown = evicted on any publish) computed before the new
	// watermark. This is what lets an append keep unrelated hot entries
	// resident instead of flushing the cache.
	deps []string
	wm   uint64
}

// sizeOf weighs a value of the given kind. Relations go through the
// configured weigher; auxiliary values report their own estimate when they
// can, and weigh zero otherwise (unweighable values stay admissible and
// evictable, they just never trigger eviction themselves).
func (c *Cache) sizeOf(kind entryKind, v any) int64 {
	if kind == kindRel {
		r := v.(*relation.Relation)
		if c.weigh != nil {
			return c.weigh(r)
		}
		return r.EstimatedBytes()
	}
	if s, ok := v.(Sized); ok {
		return s.EstimatedBytes()
	}
	return 0
}

// NewCache returns a cache holding at most capacity relation entries
// (<= 0 for unbounded).
func NewCache(capacity int) *Cache {
	c := &Cache{capacity: capacity, order: list.New()}
	c.resetMapsLocked()
	return c
}

// GetOrComputeDeps returns the cached relation for key, computing and
// caching it on a miss; deps names the base tables the computation reads
// (nil for unknown). The second return value reports whether the caller
// was served without starting the computation itself. See getOrCompute
// for the single-flight, cancellation and watermark rules.
func (c *Cache) GetOrComputeDeps(ctx context.Context, key string, deps []string, compute func(context.Context) (*relation.Relation, error)) (*relation.Relation, bool, error) {
	v, hit, err := c.getOrCompute(ctx, kindRel, key, deps, func(fc context.Context) (any, error) {
		return compute(fc)
	})
	rel, _ := v.(*relation.Relation)
	return rel, hit, err
}

// GetOrComputeAuxDeps is GetOrComputeDeps for auxiliary structures (e.g. a
// hash index built over a materialized relation — the column-store pattern
// of reusing join indexes across queries on hot data). Aux keys live in
// their own key space, and aux lookups count toward Stats().Shared but
// not Hits or Misses.
func (c *Cache) GetOrComputeAuxDeps(ctx context.Context, key string, deps []string, compute func(context.Context) (any, error)) (any, bool, error) {
	return c.getOrCompute(ctx, kindAux, key, deps, compute)
}

// getOrCompute is the one entry path into the cache. Concurrent callers
// missing on the same (kind, key) share one computation: exactly one
// flight runs compute, every caller blocks until it finishes and receives
// the same result (or the same error; errors are not cached).
//
// The computation is detached from every caller: it runs on its own
// goroutine under a flight-owned context, and compute receives that
// context (not any caller's). A caller whose ctx is cancelled — leader
// and waiter alike — detaches and returns its ctx's error immediately
// while the flight keeps computing and caches for everyone else, so one
// impatient client never destroys work other clients are waiting for.
// Only when the last interested caller detaches is the flight's context
// cancelled, stopping the computation nobody wants anymore.
//
// compute runs without the cache lock held, so it may use the cache for
// other keys — but it must not look up its own key, which would deadlock
// on the in-flight entry.
//
// The entry is tagged with deps and the ingest watermark captured when
// the flight starts, so a delta publish evicts it only if a dependency
// actually changed — and a result whose dependencies changed while it was
// computing is handed to its waiters but never cached (a stale drop).
func (c *Cache) getOrCompute(ctx context.Context, kind entryKind, key string, deps []string, compute func(context.Context) (any, error)) (any, bool, error) {
	c.mu.Lock()
	for {
		if el, ok := c.entries[kind][key]; ok {
			if kind == kindRel {
				c.hits++
			}
			c.touchLocked(el)
			e := el.Value.(*cacheEntry)
			v, cost := e.val, e.cost
			c.mu.Unlock()
			chargeHit(ctx, cost)
			return v, true, nil
		}
		f, ok := c.flights[kind][key]
		if !ok {
			break
		}
		c.shared++
		f.waiters++
		c.mu.Unlock()
		select {
		case <-f.done:
			if abandonedFlight(f.err, ctx) {
				c.mu.Lock()
				continue
			}
			return f.val, f.err == nil, f.err
		case <-ctx.Done():
			c.detach(kind, key, f)
			return nil, false, ctx.Err()
		}
	}
	if kind == kindRel {
		c.misses++
	}
	gen := c.gen
	wm := c.curWMLocked() // watermark BEFORE compute reads any table
	// The flight's context keeps the starting caller's values but drops
	// its cancellation and deadline, so the computation outlives any
	// individual caller. It carries the flight's readCost, which every
	// cache hit below it is charged to.
	read := &readCost{outer: readCostOf(ctx)}
	fctx, cancel := context.WithCancel(context.WithValue(context.WithoutCancel(ctx), readCostKey{}, read))
	f := &flight{done: make(chan struct{}), cancel: cancel, waiters: 1}
	c.flights[kind][key] = f
	c.mu.Unlock()

	go func() {
		var cost time.Duration
		// The flight goroutine is detached from every caller; a panic in
		// compute would otherwise kill the process AND leave f.done
		// unclosed, deadlocking every waiter. Contain it: the panic becomes
		// the flight's error (nothing is cached), waiters are released, and
		// the process survives. The engine converts its own panics before
		// they reach here — this is the cache's belt-and-braces for any
		// compute callback.
		func() {
			defer func() {
				if r := recover(); r != nil {
					f.err = fault.Capture("cache compute "+key, r)
					c.mu.Lock()
					c.panics++
					c.mu.Unlock()
				}
			}()
			if f.err = faultpoint.Inject(faultpoint.SiteCacheCompute); f.err != nil {
				return
			}
			start := time.Now()
			f.val, f.err = compute(fctx)
			cost = time.Since(start) + time.Duration(read.ns.Load())
		}()
		var b int64
		if f.err == nil {
			// Size the result before taking the lock: EstimatedBytes walks
			// every string payload, which must not stall concurrent lookups.
			b = c.sizeOf(kind, f.val)
		}
		c.mu.Lock()
		if c.flights[kind][key] == f {
			delete(c.flights[kind], key)
		}
		if f.err == nil && c.gen == gen {
			if c.isStaleLocked(deps, wm) {
				// A dependency was republished while we computed: the result
				// may reflect pre-append data. Waiters still get it (their
				// query began before the append), but it must not be cached.
				c.staleDrops++
			} else {
				c.putLocked(kind, key, f.val, b, cost, deps, wm)
			}
		}
		c.mu.Unlock()
		f.cancel() // release the flight context's resources
		close(f.done)
	}()

	select {
	case <-f.done:
		return f.val, false, f.err
	case <-ctx.Done():
		c.detach(kind, key, f)
		return nil, false, ctx.Err()
	}
}

// readCost sums the recorded costs of the cache entries a flight's
// computation read instead of computing. It rides the flight's context, so
// a hit anywhere below the flight, in nested flights too, charges it and
// every enclosing flight (outer). A flight's cost is its wall time plus
// this sum: what rebuilding the entry costs once its inputs are gone too,
// whether or not they were cached when it was built.
type readCost struct {
	outer *readCost
	ns    atomic.Int64
}

type readCostKey struct{}

func readCostOf(ctx context.Context) *readCost {
	r, _ := ctx.Value(readCostKey{}).(*readCost)
	return r
}

// chargeHit charges a hit on an entry that cost cost to build to every
// flight enclosing ctx.
func chargeHit(ctx context.Context, cost time.Duration) {
	for r := readCostOf(ctx); r != nil; r = r.outer {
		r.ns.Add(int64(cost))
	}
}

// detach unregisters one caller from a flight. The last caller to detach
// cancels the flight's context — the computation has no audience left —
// and removes it from the flight map so later arrivals start fresh
// instead of joining a dying flight.
func (c *Cache) detach(kind entryKind, key string, f *flight) {
	c.mu.Lock()
	f.waiters--
	if f.waiters == 0 {
		f.cancel()
		if c.flights[kind][key] == f {
			delete(c.flights[kind], key)
		}
	}
	c.mu.Unlock()
}

// abandonedFlight reports whether a completed flight failed only because
// every caller detached and its context was cancelled, while this
// caller's own context is still live. The only way to observe this is the
// narrow race of joining a flight between its last waiter leaving and the
// cancelled computation finishing; adopting the error would fail a
// perfectly healthy query, so the caller retries the key instead.
func abandonedFlight(flightErr error, ctx context.Context) bool {
	return flightErr != nil && ctx.Err() == nil &&
		(errors.Is(flightErr, context.Canceled) || errors.Is(flightErr, context.DeadlineExceeded))
}

// DropAux removes one auxiliary entry, e.g. an index discovered to be
// stale by its owner.
func (c *Cache) DropAux(key string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[kindAux][key]; ok {
		c.removeLocked(el)
	}
}

// Get returns the cached relation for the fingerprint, if present.
func (c *Cache) Get(key string) (*relation.Relation, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[kindRel][key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.touchLocked(el)
	return el.Value.(*cacheEntry).val.(*relation.Relation), true
}

// putLocked inserts v under (kind, key); the caller weighed it as b bytes
// before taking the lock (the walk over string payloads is too slow to
// run under c.mu) and timed its computation as cost.
func (c *Cache) putLocked(kind entryKind, key string, v any, b int64, cost time.Duration, deps []string, wm uint64) {
	el, ok := c.entries[kind][key]
	if c.maxBytes > 0 && b > c.maxBytes {
		// An entry larger than the whole budget would evict everything and
		// then thrash; refuse it instead so the small hot entries survive.
		c.oversize++
		if ok {
			c.removeLocked(el)
		}
		return
	}
	if ok {
		e := el.Value.(*cacheEntry)
		c.bytes[kind] += b - e.bytes
		e.val, e.bytes, e.cost, e.deps, e.wm = v, b, cost, deps, wm
	} else {
		el = c.order.PushFront(&cacheEntry{kind: kind, key: key, val: v, bytes: b, cost: cost, deps: deps, wm: wm})
		c.entries[kind][key] = el
		c.bytes[kind] += b
	}
	// The priority is set after the evictions the entry caused, from the
	// clock they advanced, so it never starts below the clock.
	c.evictLocked(el)
	c.touchLocked(el)
}

// touchLocked marks el used now: most recently used, and its priority
// re-set to the clock plus its rebuild cost per byte.
func (c *Cache) touchLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	e.pri = c.clock + float64(e.cost)/float64(max(e.bytes, 1))
	c.order.MoveToFront(el)
}

// curWMLocked reads the ingest watermark through the catalog's hook (lock
// order cache.mu -> catalog.verMu); a standalone cache has no hook and
// lives at watermark zero forever.
func (c *Cache) curWMLocked() uint64 {
	if c.curWM == nil {
		return 0
	}
	return c.curWM()
}

// isStaleLocked applies the catalog's staleness rule; without a hook
// nothing is ever stale.
func (c *Cache) isStaleLocked(deps []string, wm uint64) bool {
	return c.stale != nil && c.stale(deps, wm)
}

// InvalidateDeps evicts every entry (relation and auxiliary) that may
// depend on one of the republished tables and was computed before the new
// watermark wm: an entry is evicted if its dependency set intersects
// names, or is unknown (nil — it could depend on anything). Entries over
// untouched tables stay resident, which is the point of watermark-aware
// caching: an append no longer flushes the cache. In-flight computations
// are left alone; their results are checked against the watermark at
// insertion time and dropped if stale.
func (c *Cache) InvalidateDeps(names []string, wm uint64) {
	changed := make(map[string]bool, len(names))
	for _, n := range names {
		changed[n] = true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	var next *list.Element
	for el := c.order.Front(); el != nil; el = next {
		next = el.Next()
		e := el.Value.(*cacheEntry)
		if e.wm >= wm {
			continue // computed at (or after) the publish; current by definition
		}
		evict := e.deps == nil
		for _, d := range e.deps {
			if changed[d] {
				evict = true
				break
			}
		}
		if evict {
			c.removeLocked(el)
			c.depInvals++
		}
	}
}

// evictLocked drops lowest-priority entries (see Cache) until the byte
// budget (relation + aux bytes) and the capacity bound (relation entries
// only) both hold; keep, the entry just inserted, is never evicted (nil
// protects nothing). Byte pressure evicts relation and auxiliary entries
// alike — both count toward the budget. Capacity pressure evicts only
// relation entries: auxiliary entries do not count toward capacity, so
// skipping them keeps a count-capped cache from collaterally flushing its
// join indexes.
func (c *Cache) evictLocked(keep *list.Element) {
	for c.maxBytes > 0 && c.bytes[kindRel]+c.bytes[kindAux] > c.maxBytes {
		if !c.evictVictimLocked(keep, false) {
			break
		}
	}
	for c.capacity > 0 && len(c.entries[kindRel]) > c.capacity {
		if !c.evictVictimLocked(keep, true) {
			return
		}
	}
}

// evictVictimLocked evicts the entry with the lowest priority, the least
// recently used among equals, other than keep and, if relOnly, other than
// auxiliary entries. It advances the clock to the victim's priority unless
// that lies below it, as an aux entry passed over by capacity pressure
// can. It reports false when there is no such entry. The scan is linear:
// it runs only after a computation that cost far more than walking the
// entries.
func (c *Cache) evictVictimLocked(keep *list.Element, relOnly bool) bool {
	var victim *cacheEntry
	var vel *list.Element
	for el := c.order.Back(); el != nil; el = el.Prev() {
		e := el.Value.(*cacheEntry)
		if el != keep && (!relOnly || e.kind == kindRel) && (victim == nil || e.pri < victim.pri) {
			victim, vel = e, el
		}
	}
	if victim == nil {
		return false
	}
	c.clock = max(c.clock, victim.pri)
	c.removeLocked(vel)
	c.evictions++
	return true
}

func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.order.Remove(el)
	delete(c.entries[e.kind], e.key)
	c.bytes[e.kind] -= e.bytes
}

// SetMaxBytes sets the byte budget for cached relations plus auxiliary
// entries (<= 0 means unbounded). Shrinking the budget immediately evicts
// the lowest-priority entries, the same choice as insertion pressure, and
// may evict every entry.
func (c *Cache) SetMaxBytes(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = n
	c.evictLocked(nil)
}

// Clear drops every entry (including auxiliary structures) but keeps the
// statistics counters. Computations in flight at the time of the Clear
// still complete and are handed to the callers that joined them, but their
// results are discarded instead of cached: they may reflect the old base
// data. Callers arriving after the Clear start a fresh flight.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.resetMapsLocked()
	c.gen++
}

// resetMapsLocked empties the entry and flight maps of both kinds and
// zeroes the byte gauges.
func (c *Cache) resetMapsLocked() {
	for k := range c.entries {
		c.entries[k] = make(map[string]*list.Element)
		c.flights[k] = make(map[string]*flight)
		c.bytes[k] = 0
	}
}

// Stats is a point-in-time snapshot of cache effectiveness. Hits and
// Misses count relation lookups only (GetOrComputeDeps and Get); auxiliary
// lookups (GetOrComputeAuxDeps) count toward nothing but Shared. Shared
// counts callers, of either kind, that joined another caller's in-flight
// computation instead of recomputing — the stampedes avoided by
// single-flight. Bytes is the estimated footprint of all cached relations
// and AuxBytes of all auxiliary entries (join indexes); both count toward
// the one MaxBytes budget. Oversize counts results refused admission
// because they alone exceeded the byte budget.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Shared    uint64
	Oversize  uint64
	// Panics counts compute callbacks whose panic the cache recovered at
	// the flight boundary (the engine converts its own panics earlier, so
	// this counts faults in non-engine compute callbacks). The panic
	// becomes the flight's error; nothing is cached.
	Panics uint64
	// StaleDrops counts flight results discarded at insertion because a
	// dependency was republished while they computed; DepInvalidations
	// counts entries evicted by watermark-selective invalidation (a delta
	// publish evicting only dependent entries instead of flushing).
	StaleDrops       uint64
	DepInvalidations uint64
	Entries          int
	AuxEntries       int
	Bytes            int64
	AuxBytes         int64
	MaxBytes         int64
}

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Shared: c.shared, Oversize: c.oversize, Panics: c.panics,
		StaleDrops: c.staleDrops, DepInvalidations: c.depInvals,
		Entries: len(c.entries[kindRel]), AuxEntries: len(c.entries[kindAux]),
		Bytes: c.bytes[kindRel], AuxBytes: c.bytes[kindAux], MaxBytes: c.maxBytes,
	}
}
