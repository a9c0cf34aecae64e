package irdb

import (
	"context"

	"irdb/internal/relation"
)

// streamBatchRows is the default number of rows per Stream batch.
const streamBatchRows = 1024

// Stream is an incrementally consumed query result. The query executes
// eagerly (the engine is a materializing executor — operators need
// whole inputs), but the result hands out fixed-size row batches so a
// caller encoding rows onto a network connection or into a file never
// holds a second full copy, and can abandon the result mid-way.
//
// A Stream owns resources until Close: the admission slot acquired for
// the query, the memory reservation covering the materialized result on
// a governed database, and the Close-drain registration that keeps
// DB.Close waiting. Always Close a Stream — exhausting it with Next is
// not enough (the final Next(false) does release everything, but an
// early-abandoned stream only releases on Close). Close is idempotent.
//
// A Stream is not safe for concurrent use.
type Stream struct {
	ctx    context.Context
	rel    *relation.Relation
	pos    int
	cur    *Result
	err    error
	closed bool
	done   func() // releases the admission slot and reservation
}

// Columns returns the stream's column names, in order.
func (s *Stream) Columns() []string { return s.rel.ColumnNames() }

// NumRows reports the total number of result rows the stream will
// yield. Known up front because execution is complete when QueryStream
// returns; only the consumption is incremental.
func (s *Stream) NumRows() int { return s.rel.NumRows() }

// Next advances to the next batch of rows, returning false when the
// stream is exhausted, closed, or its context is done. After false,
// check Err: nil means clean exhaustion. Exhaustion releases the
// stream's resources as if Close had been called.
func (s *Stream) Next() bool {
	if s.closed || s.err != nil {
		return false
	}
	if err := s.ctx.Err(); err != nil {
		s.err = err
		s.release()
		return false
	}
	if s.pos >= s.rel.NumRows() {
		s.release()
		return false
	}
	hi := s.pos + streamBatchRows
	if hi > s.rel.NumRows() {
		hi = s.rel.NumRows()
	}
	s.cur = &Result{rel: s.rel.Slice(s.pos, hi)}
	s.pos = hi
	return true
}

// Batch returns the current batch. Valid only after a true Next; the
// returned Result stays valid after further Next calls (batches are
// immutable views).
func (s *Stream) Batch() *Result { return s.cur }

// Err returns the error that terminated the stream early, or nil after
// clean exhaustion (or before termination).
func (s *Stream) Err() error { return s.err }

// Close releases the stream's admission slot, memory reservation and
// Close-drain registration. Idempotent; returns Err.
func (s *Stream) Close() error {
	s.release()
	return s.err
}

func (s *Stream) release() {
	if s.closed {
		return
	}
	s.closed = true
	s.cur = nil
	s.done()
}

// QueryStream executes the prepared statement and returns its result as
// a Stream of row batches instead of one materialized Result. Semantics
// match Query exactly — same binding rules, same admission, same memory
// budget, bit-identical rows — but the returned stream holds the
// query's admission slot and memory reservation until Close, so a
// server can bound its exposure to slow readers: the slot frees when
// the reader is done (or gone), not when execution ends.
func (s *Stmt) QueryStream(ctx context.Context, params ...Param) (*Stream, error) {
	qctx, release, err := s.db.enter(ctx)
	if err != nil {
		return nil, err
	}
	plan, err := s.bind(params)
	if err != nil {
		release()
		return nil, err
	}
	s.db.queries.Add(1)
	rel, err := s.db.eng.Exec(qctx, plan)
	if err != nil {
		release()
		return nil, err
	}
	return &Stream{ctx: ctx, rel: rel, done: release}, nil
}
