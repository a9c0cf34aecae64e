// Package catalog provides named storage for base tables plus the
// on-demand materialization cache described in section 2.2 of the paper:
// "an adaptive, query-driven set of 'cache' tables each corresponding to a
// specific sub-query on the original data. When the same computation is
// requested several times, its full result is already materialized."
//
// The catalog knows nothing about plans; the engine keys the cache by plan
// fingerprint. This keeps storage and compute layered.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Catalog is a thread-safe registry of named base tables and the
// materialization cache shared by all queries on the same data.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*relation.Relation
	cache  *Cache

	// verMu guards the ingest watermark and per-table versions. It is a
	// separate lock from mu on purpose: the cache consults versions while
	// holding its own mutex (lock order cache.mu -> verMu), and catalog
	// writers call into the cache while holding mu (mu -> cache.mu) — one
	// lock for both would deadlock.
	verMu sync.RWMutex
	// watermark is the ingest clock: it ticks on every table publish
	// (batch Put or delta). Cache entries are tagged with the watermark
	// at which their computation started; an entry is stale iff a table
	// it depends on has a newer version.
	watermark uint64
	// versions records, per table, the watermark of its last publish.
	versions map[string]uint64
	// baseDicts snapshots the frozen dictionaries pinned by base tables
	// (map[*vector.FrozenDict]bool), rebuilt on every table change. The
	// cache weighs entries through it lock-free: a cached derived relation
	// is charged only its marginal bytes, never a dictionary the base
	// data keeps alive anyway.
	baseDicts atomic.Value
	// schemaEpoch ticks whenever a base table's column names may have
	// changed: on Put, Drop and snapshot install, and on PutDeltas only
	// when a published table is new or renames its columns. It is ticked
	// under mu after the table map changes, so a reader that observes an
	// epoch sees at least the tables it stamps. Plan-shape caches
	// (engine.Prepared) compare it instead of watching tables.
	schemaEpoch atomic.Uint64

	// Snapshot durability counters, surfaced in /stats "faults": how many
	// durable saves and loads succeeded, and how many loads were refused
	// because the file failed checksum or structural validation.
	snapSaves   atomic.Int64
	snapLoads   atomic.Int64
	snapCorrupt atomic.Int64
}

// SnapshotStats counts snapshot persistence outcomes. CorruptLoads is the
// number of LoadSnapshot/LoadFile calls that detected corruption and left
// the catalog untouched.
type SnapshotStats struct {
	Saves        int64 `json:"saves"`
	Loads        int64 `json:"loads"`
	CorruptLoads int64 `json:"corrupt_loads"`
}

// SnapshotStats returns the snapshot persistence counters.
func (c *Catalog) SnapshotStats() SnapshotStats {
	return SnapshotStats{
		Saves:        c.snapSaves.Load(),
		Loads:        c.snapLoads.Load(),
		CorruptLoads: c.snapCorrupt.Load(),
	}
}

// New returns an empty catalog with a cache of the given capacity
// (entries). Capacity <= 0 means unbounded.
func New(cacheCapacity int) *Catalog {
	c := &Catalog{
		tables:   make(map[string]*relation.Relation),
		cache:    NewCache(cacheCapacity),
		versions: make(map[string]uint64),
	}
	c.baseDicts.Store(map[*vector.FrozenDict]bool{})
	c.cache.weigh = c.marginalBytes
	c.cache.stale = c.staleSince
	c.cache.curWM = c.Watermark
	return c
}

// Watermark returns the current ingest watermark: the version of the most
// recent table publish. Cache entries computed at this watermark stay
// resident across later appends to tables they do not depend on.
func (c *Catalog) Watermark() uint64 {
	c.verMu.RLock()
	defer c.verMu.RUnlock()
	return c.watermark
}

// SchemaEpoch returns the schema clock: it changes whenever the column
// names of some base table may have changed, and stays put across appends
// that republish tables with the same column names.
func (c *Catalog) SchemaEpoch() uint64 { return c.schemaEpoch.Load() }

// bumpVersions ticks the watermark and stamps the named tables with the
// new value, returning it.
func (c *Catalog) bumpVersions(names ...string) uint64 {
	c.verMu.Lock()
	c.watermark++
	wm := c.watermark
	for _, n := range names {
		c.versions[n] = wm
	}
	c.verMu.Unlock()
	return wm
}

// staleSince reports whether a result computed at watermark wm over the
// given tables is out of date. nil deps means the dependency set is
// unknown, which must be treated conservatively: stale after any publish.
func (c *Catalog) staleSince(deps []string, wm uint64) bool {
	c.verMu.RLock()
	defer c.verMu.RUnlock()
	if deps == nil {
		return c.watermark > wm
	}
	for _, d := range deps {
		if c.versions[d] > wm {
			return true
		}
	}
	return false
}

// marginalBytes weighs a relation for the cache: pinned base-table dicts
// count zero, everything else (codes, plain columns, probabilities,
// unpinned dicts) counts in full.
func (c *Catalog) marginalBytes(r *relation.Relation) int64 {
	pinned, _ := c.baseDicts.Load().(map[*vector.FrozenDict]bool)
	return r.EstimatedBytesExcluding(pinned)
}

// refreshBaseDictsLocked rebuilds the pinned-dict snapshot. Callers hold
// c.mu.
func (c *Catalog) refreshBaseDictsLocked() {
	m := make(map[*vector.FrozenDict]bool)
	for _, rel := range c.tables {
		for _, col := range rel.Columns() {
			if ds, ok := col.Vec.(*vector.DictStrings); ok {
				m[ds.Dict()] = true
			}
		}
	}
	c.baseDicts.Store(m)
}

// Put registers (or replaces) a base table. Replacing a table invalidates
// the whole cache: materialized sub-queries may depend on it.
func (c *Catalog) Put(name string, r *relation.Relation) {
	c.mu.Lock()
	c.tables[name] = r
	c.refreshBaseDictsLocked()
	c.schemaEpoch.Add(1)
	c.mu.Unlock()
	c.bumpVersions(name)
	c.cache.Clear()
}

// PutDelta publishes a new version of one table produced by live ingest
// (base + delta segments merged into a fresh immutable relation). Unlike
// Put it does NOT flush the cache: it ticks the table's version and evicts
// only the entries whose dependency set includes the table (or is
// unknown). Entries over other tables stay resident — the watermark
// invalidation rule of the durability model. Returns the new watermark.
func (c *Catalog) PutDelta(name string, r *relation.Relation) uint64 {
	return c.PutDeltas(map[string]*relation.Relation{name: r})
}

// PutDeltas atomically publishes new versions of several tables (one
// ingest batch can touch up to three triple partitions) under a single
// watermark tick and one selective invalidation pass. The schema epoch
// ticks only when a table is new or its column names changed.
func (c *Catalog) PutDeltas(tables map[string]*relation.Relation) uint64 {
	names := make([]string, 0, len(tables))
	renamed := false
	c.mu.Lock()
	for name, r := range tables {
		if old, ok := c.tables[name]; !ok || !slices.Equal(old.ColumnNames(), r.ColumnNames()) {
			renamed = true
		}
		c.tables[name] = r
		names = append(names, name)
	}
	c.refreshBaseDictsLocked()
	if renamed {
		c.schemaEpoch.Add(1)
	}
	c.mu.Unlock()
	sort.Strings(names)
	wm := c.bumpVersions(names...)
	c.cache.InvalidateDeps(names, wm)
	return wm
}

// Table looks up a base table.
func (c *Catalog) Table(name string) (*relation.Relation, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	r, ok := c.tables[name]
	if !ok {
		return nil, fmt.Errorf("catalog: no table %q (have %v)", name, c.tableNamesLocked())
	}
	return r, nil
}

// TableNames returns the sorted names of all base tables.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.tableNamesLocked()
}

func (c *Catalog) tableNamesLocked() []string {
	names := make([]string, 0, len(c.tables))
	for n := range c.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Cache returns the materialization cache.
func (c *Catalog) Cache() *Cache { return c.cache }

// DictStats summarizes dictionary encoding across the base tables, for
// /stats: how many shared frozen dictionaries exist, how many distinct
// strings they intern, the bytes they hold, and the bytes of int32 code
// columns referencing them. Dictionaries shared by several columns (or
// several tables) count once, mirroring relation.EstimatedBytes.
type DictStats struct {
	Dicts           int   `json:"dicts"`
	InternedStrings int64 `json:"interned_strings"`
	DictBytes       int64 `json:"dict_bytes"`
	CodeBytes       int64 `json:"code_bytes"`
	EncodedColumns  int   `json:"encoded_columns"`
}

// DictStats reports dictionary-encoding statistics over all base tables.
func (c *Catalog) DictStats() DictStats {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var st DictStats
	seen := map[*vector.FrozenDict]bool{}
	for _, rel := range c.tables {
		for _, col := range rel.Columns() {
			ds, ok := col.Vec.(*vector.DictStrings)
			if !ok {
				continue
			}
			st.EncodedColumns++
			st.CodeBytes += int64(ds.Len()) * 4
			d := ds.Dict()
			if !seen[d] {
				seen[d] = true
				st.Dicts++
				st.InternedStrings += int64(d.Len())
				st.DictBytes += d.EstimatedBytes()
			}
		}
	}
	return st
}
