// Package ingest coordinates live ingest: the write-ahead log, the
// triple store's delta segments, and the document corpus, behind one
// mutation-serializing manager.
//
// The ack contract is write-ahead: a batch is framed, appended to the
// WAL and made durable per the fsync policy BEFORE it is applied to the
// in-memory store. A nil error from AppendTriples/DeleteTriples/
// AppendDocs means the batch survives any crash from that point on
// (under SyncAlways; weaker policies bound the loss window instead).
//
// Recovery inverts the order: load the newest durable snapshot (which
// records the WAL watermark it covers), rebuild the store's mutable
// state from it, then replay every WAL record past that watermark.
// Replay is idempotent — records at or below the watermark, duplicates
// and out-of-order frames are all skipped by sequence number — so a
// crash during recovery itself just replays again.
package ingest

import (
	"errors"
	"os"
	"path/filepath"
	"sync"

	"irdb/internal/catalog"
	"irdb/internal/relation"
	"irdb/internal/triple"
	"irdb/internal/vector"
	"irdb/internal/wal"
)

// SnapshotFile is the checkpoint file name inside a durability directory;
// WALDir is the log subdirectory next to it.
const (
	SnapshotFile = "snapshot.irdb"
	WALDir       = "wal"
)

// ErrNotDurable is returned by Checkpoint on a memory-only manager.
var ErrNotDurable = errors.New("ingest: no durability directory configured")

// Doc is one document of the keyword-search corpus (mirrors the facade's
// Doc; defined here so the facade can depend on ingest, not vice versa).
type Doc struct {
	ID   string
	Text string
	P    float64
}

// Stats counts ingest activity, surfaced through db.Stats().Ingest and
// the server's /stats.
type Stats struct {
	// AppendedTriples / DeletedTriples / AppendedDocs count rows applied
	// to the store, recovery replay included.
	AppendedTriples int64 `json:"appended_triples"`
	DeletedTriples  int64 `json:"deleted_triples"`
	AppendedDocs    int64 `json:"appended_docs"`
	// Checkpoints counts durable snapshot+rotate cycles.
	Checkpoints int64 `json:"checkpoints"`
	// Watermark is the catalog's publish watermark (each delta publish
	// ticks it once); Segments the number of live WAL segment files
	// (0 when memory-only).
	Watermark uint64 `json:"watermark"`
	Segments  int    `json:"segments"`
}

// Manager serializes every mutation of a database's data: bulk loads,
// live appends/deletes, checkpoints and recovery. Readers are unaffected
// — they go through the catalog and see only fully published relations.
type Manager struct {
	mu        sync.Mutex
	cat       *catalog.Catalog
	store     *triple.Store
	docsTable string

	log      *wal.Log
	dir      string // "" = memory-only
	snapPath string
	walDir   string

	appendedTriples int64
	deletedTriples  int64
	appendedDocs    int64
	checkpoints     int64
}

// New returns a memory-only manager (no WAL, no snapshots): mutations
// apply directly to the store. docsTable names the corpus relation
// AppendDocs grows.
func New(cat *catalog.Catalog, store *triple.Store, docsTable string) *Manager {
	return &Manager{cat: cat, store: store, docsTable: docsTable}
}

// OpenDurable attaches a durability directory: recover whatever it holds
// (snapshot, then WAL replay past its watermark), repair the log's torn
// tail, and open it for appending. The directory layout is
// dir/snapshot.irdb + dir/wal/wal-*.log; an empty or missing directory
// is a fresh database. Must be called before any mutation.
func (m *Manager) OpenDurable(dir string, opt wal.Options) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log != nil {
		return errors.New("ingest: durability already configured")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m.dir = dir
	m.snapPath = filepath.Join(dir, SnapshotFile)
	m.walDir = filepath.Join(dir, WALDir)
	var after uint64
	if _, err := os.Stat(m.snapPath); err == nil {
		meta, err := m.cat.LoadFile(m.snapPath)
		if err != nil {
			return err
		}
		// The snapshot's relations are published but the store's mutable
		// ingest state (dictionary, raw code columns) is not in the file;
		// rebuild it so replayed and future deltas have a base to extend.
		if err := m.store.AdoptCatalog(); err != nil {
			return err
		}
		after = meta.Watermark
	}
	rr, err := wal.Replay(m.walDir, after, m.applyLocked)
	if err != nil {
		return err
	}
	log, err := wal.Open(m.walDir, rr, opt)
	if err != nil {
		return err
	}
	m.log = log
	return nil
}

// applyLocked applies one replayed WAL record to the in-memory state.
// Checkpoint markers are no-ops (the snapshot they describe was already
// loaded, or superseded).
func (m *Manager) applyLocked(rec wal.Record) error {
	switch rec.Type {
	case wal.RecAppendTriples:
		ts, err := decodeTriples(rec.Payload)
		if err != nil {
			return err
		}
		n, _ := m.store.Append(ts)
		m.appendedTriples += int64(n)
	case wal.RecDeleteTriples:
		keys, err := decodeTriples(rec.Payload)
		if err != nil {
			return err
		}
		n, _ := m.store.Delete(keys)
		m.deletedTriples += int64(n)
	case wal.RecAppendDocs:
		docs, err := decodeDocs(rec.Payload)
		if err != nil {
			return err
		}
		m.applyDocsLocked(docs)
		m.appendedDocs += int64(len(docs))
	case wal.RecCheckpoint:
		// Informational only.
	default:
		return errors.New("ingest: unknown WAL record type " + rec.Type.String())
	}
	return nil
}

// AppendTriples logs and applies a batch of triples, returning how many
// rows were appended. The WAL append (and its fsync, per policy) happens
// first: a nil error means the batch is durable.
func (m *Manager) AppendTriples(ts []triple.Triple) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(ts) == 0 {
		return 0, nil
	}
	if m.log != nil {
		payload, err := encodeTriples(ts)
		if err != nil {
			return 0, err
		}
		if _, err := m.log.Append(wal.RecAppendTriples, payload); err != nil {
			return 0, err
		}
	}
	n, _ := m.store.Append(ts)
	m.appendedTriples += int64(n)
	return n, nil
}

// DeleteTriples logs and applies a batch of (subject, property, object)
// delete keys, returning how many rows were removed.
func (m *Manager) DeleteTriples(keys []triple.Triple) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(keys) == 0 {
		return 0, nil
	}
	if m.log != nil {
		payload, err := encodeTriples(keys)
		if err != nil {
			return 0, err
		}
		if _, err := m.log.Append(wal.RecDeleteTriples, payload); err != nil {
			return 0, err
		}
	}
	n, _ := m.store.Delete(keys)
	m.deletedTriples += int64(n)
	return n, nil
}

// AppendDocs logs and applies a batch of documents to the corpus table,
// returning how many were appended.
func (m *Manager) AppendDocs(docs []Doc) (int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(docs) == 0 {
		return 0, nil
	}
	if m.log != nil {
		if _, err := m.log.Append(wal.RecAppendDocs, encodeDocs(docs)); err != nil {
			return 0, err
		}
	}
	m.applyDocsLocked(docs)
	m.appendedDocs += int64(len(docs))
	return len(docs), nil
}

// applyDocsLocked republishes the corpus table with the batch appended.
// The corpus is rebuilt row-by-row (it is small next to the triples) and
// published as a delta, so only cache entries reading it are evicted.
func (m *Manager) applyDocsLocked(docs []Doc) {
	b := relation.NewBuilder(
		[]string{"docID", "data"},
		[]vector.Kind{vector.String, vector.String})
	if rel, err := m.cat.Table(m.docsTable); err == nil {
		idCol, err1 := rel.ColByName("docID")
		dataCol, err2 := rel.ColByName("data")
		if err1 == nil && err2 == nil {
			prob := rel.Prob()
			for i := 0; i < rel.NumRows(); i++ {
				b.AddP(prob[i], idCol.Vec.Format(i), dataCol.Vec.Format(i))
			}
		}
	}
	for _, d := range docs {
		p := d.P
		if p == 0 {
			p = 1.0
		}
		b.AddP(p, d.ID, d.Text)
	}
	m.cat.PutDelta(m.docsTable, b.Build())
}

// ReplaceTriples bulk-replaces the triple store's contents. On a durable
// manager the replace — which bypasses the WAL — is immediately
// checkpointed, so it is durable and earlier WAL records cannot replay
// over it.
func (m *Manager) ReplaceTriples(ts []triple.Triple) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.store.Load(ts)
	if m.log == nil {
		return nil
	}
	return m.checkpointLocked()
}

// ReplaceTable bulk-replaces one catalog table (the docs corpus), with
// the same immediate-checkpoint rule as ReplaceTriples.
func (m *Manager) ReplaceTable(name string, rel *relation.Relation) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cat.Put(name, rel)
	if m.log == nil {
		return nil
	}
	return m.checkpointLocked()
}

// LoadSnapshotFile replaces the whole database with an external snapshot
// file, rebuilds the store's mutable ingest state from it, and — when
// durable — checkpoints immediately (the imported state supersedes the
// existing WAL).
func (m *Manager) LoadSnapshotFile(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.cat.LoadFile(path); err != nil {
		return err
	}
	if err := m.store.AdoptCatalog(); err != nil {
		return err
	}
	if m.log == nil {
		return nil
	}
	return m.checkpointLocked()
}

// Checkpoint makes the current state the recovery baseline: write a
// durable snapshot stamped with the WAL watermark it covers, then rotate
// the log (new segment headed by a checkpoint record, old segments
// removed). A crash anywhere inside leaves a recoverable directory —
// either the old snapshot plus the full log, or the new snapshot plus a
// log whose overlap replay dedups.
func (m *Manager) Checkpoint() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpointLocked()
}

func (m *Manager) checkpointLocked() error {
	if m.log == nil {
		return ErrNotDurable
	}
	wm := m.log.LastSeq()
	if err := m.cat.SaveFile(m.snapPath, catalog.SnapshotMeta{Watermark: wm}); err != nil {
		return err
	}
	if err := m.log.Rotate(wm); err != nil {
		return err
	}
	m.checkpoints++
	return nil
}

// Close syncs and closes the WAL (memory-only managers no-op).
func (m *Manager) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return nil
	}
	err := m.log.Close()
	return err
}

// Stats returns the ingest counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		AppendedTriples: m.appendedTriples,
		DeletedTriples:  m.deletedTriples,
		AppendedDocs:    m.appendedDocs,
		Checkpoints:     m.checkpoints,
		Watermark:       m.cat.Watermark(),
	}
	if m.log != nil {
		s.Segments = m.log.Stats().Segments
	}
	return s
}

// WALStats returns the log's counters; ok is false when memory-only.
func (m *Manager) WALStats() (wal.Stats, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.log == nil {
		return wal.Stats{}, false
	}
	return m.log.Stats(), true
}
