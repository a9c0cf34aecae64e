// Package wal is the write-ahead log behind live ingest: every
// append/delete batch is framed, checksummed and (per the configured
// fsync policy) made durable BEFORE it is applied to the in-memory
// store, so a crash at any point loses nothing that was acknowledged.
//
// The log is a directory of segment files named wal-<startseq>.log.
// Each record is framed as
//
//	[payload length uint32][seq uint64][type uint8][payload][CRC32-C uint32]
//
// with the checksum covering seq, type and payload. Replay tolerates a
// torn tail — a crash mid-record leaves a partial frame at the end of
// the last segment, which recovery truncates away — but refuses damage
// anywhere else (a bit-flipped frame followed by valid data is
// corruption, not a crash artifact, and is reported as ErrCorruptWAL).
//
// Rotation happens at checkpoint: once a snapshot covering every record
// up to seq W is durable, a fresh segment wal-<W+1>.log is started with
// a checkpoint record at its head and the older segments are removed.
// Record sequence numbers keep increasing across rotations, so replay
// after a crash mid-rotation (both old and new segments present) is
// idempotent: records at or below the snapshot watermark are skipped.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"irdb/internal/faultpoint"
)

// RecordType tags what a WAL record holds.
type RecordType uint8

// The record types of the ingest protocol.
const (
	// RecAppendTriples carries a batch of triples to append.
	RecAppendTriples RecordType = 1
	// RecDeleteTriples carries a batch of (subject, property, object)
	// keys whose matching rows are removed.
	RecDeleteTriples RecordType = 2
	// RecAppendDocs carries a batch of documents appended to the corpus.
	RecAppendDocs RecordType = 3
	// RecCheckpoint marks that a snapshot covering every record up to
	// its payload watermark is durable. Written as the first record of a
	// fresh segment at rotation; a no-op on replay.
	RecCheckpoint RecordType = 4
)

func (t RecordType) String() string {
	switch t {
	case RecAppendTriples:
		return "append-triples"
	case RecDeleteTriples:
		return "delete-triples"
	case RecAppendDocs:
		return "append-docs"
	case RecCheckpoint:
		return "checkpoint"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Record is one logical WAL entry.
type Record struct {
	Seq     uint64
	Type    RecordType
	Payload []byte
}

// ErrCorruptWAL reports damage that cannot be explained by a crash
// mid-append: a checksum mismatch or structural violation with valid
// data after it. Errors carrying detail wrap it; match with errors.Is.
var ErrCorruptWAL = errors.New("wal: corrupt log")

// CorruptError is the typed detail behind ErrCorruptWAL.
type CorruptError struct {
	File   string
	Offset int64
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("wal: corrupt log: %s at offset %d: %s", e.File, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorruptWAL) true for every CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorruptWAL }

// SyncPolicy says when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before acknowledging it: an
	// acknowledged write survives any crash.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs when at least Interval has elapsed since the
	// last sync (checked on append, and on Close/Checkpoint). A crash may
	// lose up to one interval of acknowledged-but-unsynced records.
	SyncInterval
	// SyncOff never fsyncs; the OS decides. Fastest, weakest.
	SyncOff
)

// ParsePolicy converts "always"/"interval"/"off" to a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval or off)", s)
	}
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Options configures a Log.
type Options struct {
	Policy SyncPolicy
	// Interval is the minimum time between fsyncs under SyncInterval
	// (default 100ms).
	Interval time.Duration
}

// Stats is a point-in-time snapshot of WAL activity, surfaced through
// db.Stats().WAL and the server's /stats.
type Stats struct {
	// Records and Bytes count frames appended by this process.
	Records int64 `json:"records"`
	Bytes   int64 `json:"bytes"`
	// Fsyncs counts file syncs issued (policy-dependent).
	Fsyncs int64 `json:"fsyncs"`
	// Replays counts recovery passes that read this log directory;
	// ReplayedRecords the records they applied.
	Replays         int64 `json:"replays"`
	ReplayedRecords int64 `json:"replayed_records"`
	// Rotations counts checkpoint rotations; LastRotationUnix is the
	// time of the most recent one (0 = never).
	Rotations        int64 `json:"rotations"`
	LastRotationUnix int64 `json:"last_rotation_unix"`
	// Segments is the number of live segment files; LastSeq the highest
	// sequence number ever appended or replayed.
	Segments int    `json:"segments"`
	LastSeq  int64  `json:"last_seq"`
	Policy   string `json:"fsync_policy"`
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use, though ingest is expected to serialize appends anyway (records
// are ordered by the sequence numbers the caller's batches acquire).
type Log struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	fileName string
	size     int64 // bytes in the current segment
	lastSeq  uint64
	lastSync time.Time
	broken   error // a failed append poisons the writer until reopen

	records   int64
	bytes     int64
	fsyncs    int64
	replays   int64
	replayed  int64
	rotations int64
	lastRot   int64
	segments  int
}

const (
	segPrefix = "wal-"
	segSuffix = ".log"
	// frame = len(4) + seq(8) + type(1) + payload + crc(4)
	frameOverhead = 4 + 8 + 1 + 4
	maxPayload    = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func segName(startSeq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, startSeq, segSuffix)
}

// segments lists the dir's segment files sorted by start sequence.
func listSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasPrefix(name, segPrefix) && strings.HasSuffix(name, segSuffix) {
			if _, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix), 16, 64); err == nil {
				out = append(out, name)
			}
		}
	}
	sort.Strings(out) // fixed-width hex: lexicographic == numeric
	return out, nil
}

// ReplayResult reports what a Replay pass found, and carries the repair
// information Open needs (which segment to truncate where).
type ReplayResult struct {
	// LastSeq is the highest sequence number applied or seen.
	LastSeq uint64
	// Records counts frames applied (after the cutoff, deduplicated).
	Records int
	// Skipped counts valid frames not applied: at or below the cutoff,
	// or duplicate/out-of-order sequence numbers (replay idempotence).
	Skipped int
	// TornBytes is the size of the torn tail found in the last segment
	// (0 = clean shutdown).
	TornBytes int64
	// Segments is the number of segment files read.
	Segments int

	lastFile string // last segment (the one Open appends to), "" if none
	goodSize int64  // valid bytes in lastFile; Open truncates to this
}

// Replay reads every segment of dir in order and calls apply for each
// record whose sequence number is greater than after (and greater than
// any already-applied record — duplicates and out-of-order frames are
// skipped, which is what makes recovery idempotent across a double
// crash). A torn tail on the final segment is tolerated and reported;
// damage anywhere else returns ErrCorruptWAL. A missing directory is an
// empty log.
func Replay(dir string, after uint64, apply func(Record) error) (ReplayResult, error) {
	res := ReplayResult{LastSeq: after}
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return res, nil
		}
		return res, err
	}
	res.Segments = len(segs)
	for i, name := range segs {
		last := i == len(segs)-1
		path := filepath.Join(dir, name)
		good, err := replayFile(path, last, &res, apply)
		if err != nil {
			return res, err
		}
		if last {
			res.lastFile = name
			res.goodSize = good
		}
	}
	return res, nil
}

// replayFile reads one segment, returning the offset of the last valid
// frame boundary. tolerateTail says whether a bad tail is a torn-tail
// (final segment) or corruption (any earlier segment — valid segments
// follow it, so a crash cannot explain the damage).
func replayFile(path string, tolerateTail bool, res *ReplayResult, apply func(Record) error) (int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	name := filepath.Base(path)
	var off int64
	for {
		if err := faultpoint.Inject(faultpoint.SiteWALReplayRecord); err != nil {
			return off, err
		}
		rec, frameLen, ferr := decodeFrame(data[off:])
		if ferr == errFrameEOF {
			return off, nil // clean end
		}
		if ferr != nil {
			// A bad frame is a torn tail only when the damage runs to the
			// end of the final segment — that is what a crash mid-append
			// leaves behind. A checksum mismatch with valid frames after it
			// (frameLen is known and more bytes follow) is damage a crash
			// cannot explain: corruption, even in the final segment.
			reachesEOF := frameLen == 0 || off+int64(frameLen) >= int64(len(data))
			if tolerateTail && reachesEOF {
				res.TornBytes = int64(len(data)) - off
				return off, nil
			}
			return off, &CorruptError{File: name, Offset: off, Reason: ferr.Error()}
		}
		if rec.Seq > res.LastSeq {
			res.LastSeq = rec.Seq
			if apply != nil {
				if err := apply(rec); err != nil {
					return off, fmt.Errorf("wal: applying record seq %d (%s): %w", rec.Seq, rec.Type, err)
				}
			}
			res.Records++
		} else {
			res.Skipped++
		}
		off += int64(frameLen)
	}
}

// errFrameEOF marks a clean frame boundary at end of data.
var errFrameEOF = errors.New("eof")

// decodeFrame parses one frame from b, returning the record and the
// frame's byte length. errFrameEOF means b is empty (clean end). On a
// checksum mismatch the frame length is still returned (the frame is
// structurally complete), letting the caller judge whether the damage
// runs to end-of-file; every other error returns length 0.
func decodeFrame(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, errFrameEOF
	}
	if len(b) < 4 {
		return Record{}, 0, fmt.Errorf("short frame header (%d bytes)", len(b))
	}
	plen := binary.LittleEndian.Uint32(b)
	if plen > maxPayload {
		return Record{}, 0, fmt.Errorf("implausible payload length %d", plen)
	}
	total := 4 + 8 + 1 + int(plen) + 4 // len + seq + type + payload + crc
	if len(b) < total {
		return Record{}, 0, fmt.Errorf("truncated frame: want %d bytes, have %d", total, len(b))
	}
	body := b[4 : total-4] // seq + type + payload
	want := binary.LittleEndian.Uint32(b[total-4:])
	if got := crc32.Checksum(body, castagnoli); got != want {
		return Record{}, total, fmt.Errorf("checksum mismatch: stored %08x, computed %08x", want, got)
	}
	rec := Record{
		Seq:     binary.LittleEndian.Uint64(body),
		Type:    RecordType(body[8]),
		Payload: body[9:],
	}
	return rec, total, nil
}

// encodeFrame renders a record as one frame.
func encodeFrame(rec Record) []byte {
	total := 4 + 8 + 1 + len(rec.Payload) + 4
	b := make([]byte, total)
	binary.LittleEndian.PutUint32(b, uint32(len(rec.Payload)))
	binary.LittleEndian.PutUint64(b[4:], rec.Seq)
	b[12] = byte(rec.Type)
	copy(b[13:], rec.Payload)
	crc := crc32.Checksum(b[4:total-4], castagnoli)
	binary.LittleEndian.PutUint32(b[total-4:], crc)
	return b
}

// Open opens (or creates) the log in dir for appending, repairing the
// torn tail a prior Replay found by truncating the final segment back
// to its last valid frame. rr must come from a Replay over the same
// directory; pass a zero ReplayResult for a brand-new log.
func Open(dir string, rr ReplayResult, opt Options) (*Log, error) {
	if opt.Policy == SyncInterval && opt.Interval <= 0 {
		opt.Interval = 100 * time.Millisecond
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:      dir,
		opt:      opt,
		lastSeq:  rr.LastSeq,
		segments: rr.Segments,
		lastSync: time.Now(),
	}
	if rr.Records > 0 || rr.Skipped > 0 || rr.TornBytes > 0 {
		l.replays = 1
		l.replayed = int64(rr.Records)
	}
	if rr.lastFile == "" {
		// Fresh log: first segment starts at the next sequence number.
		return l, l.startSegmentLocked(rr.LastSeq + 1)
	}
	path := filepath.Join(dir, rr.lastFile)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if fi, err := f.Stat(); err == nil && fi.Size() > rr.goodSize {
		// Torn tail from the crash: cut it off so new frames start at a
		// valid boundary instead of hiding behind garbage.
		if err := f.Truncate(rr.goodSize); err != nil {
			f.Close()
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		l.fsyncs++
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	l.f, l.fileName, l.size = f, rr.lastFile, rr.goodSize
	return l, nil
}

// startSegmentLocked creates a new segment file for startSeq and syncs
// the directory so the file itself survives a crash.
func (l *Log) startSegmentLocked(startSeq uint64) error {
	f, err := os.OpenFile(filepath.Join(l.dir, segName(startSeq)), os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if d, derr := os.Open(l.dir); derr == nil {
		_ = d.Sync() // best effort; not all filesystems sync directories
		d.Close()
	}
	l.f, l.fileName, l.size = f, segName(startSeq), 0
	l.segments++
	return nil
}

// Append frames and writes one record, assigns it the next sequence
// number, and makes it durable per the sync policy before returning.
// A nil error is the acknowledgement: under SyncAlways the record
// survives any crash from here on. After a failed append the log is
// poisoned (the segment may hold a torn frame) and every later Append
// fails; recovery by reopening repairs the tail.
func (l *Log) Append(t RecordType, payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.broken != nil {
		return 0, fmt.Errorf("wal: log poisoned by earlier append failure: %w", l.broken)
	}
	if l.f == nil {
		return 0, errors.New("wal: log is closed")
	}
	seq := l.lastSeq + 1
	frame := encodeFrame(Record{Seq: seq, Type: t, Payload: payload})
	// Fault site: a crash mid-record. The frame is written in two parts
	// with the injection point between them, so under -tags faultinject a
	// test can leave a genuinely torn frame on disk (the checksum never
	// makes it out) exactly as a kill -9 mid-write would.
	half := len(frame) - 4
	if _, err := l.f.Write(frame[:half]); err != nil {
		l.broken = err
		return 0, err
	}
	if err := faultpoint.Inject(faultpoint.SiteWALAppendRecord); err != nil {
		l.broken = err
		return 0, err
	}
	if _, err := l.f.Write(frame[half:]); err != nil {
		l.broken = err
		return 0, err
	}
	l.size += int64(len(frame))
	l.bytes += int64(len(frame))
	l.records++
	l.lastSeq = seq
	if err := l.maybeSyncLocked(); err != nil {
		l.broken = err
		return 0, err
	}
	return seq, nil
}

// maybeSyncLocked fsyncs per policy. The fault site fires before the
// sync: a crash there means the record's bytes may or may not be
// durable — exactly the window the ack semantics promise nothing about.
func (l *Log) maybeSyncLocked() error {
	switch l.opt.Policy {
	case SyncAlways:
	case SyncInterval:
		if time.Since(l.lastSync) < l.opt.Interval {
			return nil
		}
	case SyncOff:
		return nil
	}
	if err := faultpoint.Inject(faultpoint.SiteWALFsync); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs++
	l.lastSync = time.Now()
	return nil
}

// LastSeq returns the highest sequence number appended or replayed.
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastSeq
}

// Rotate starts a fresh segment and removes every older one. It must be
// called only after a snapshot covering all records up to watermark is
// durable (the caller's checkpoint); the new segment's first record is
// a checkpoint marker carrying that watermark. A crash anywhere inside
// Rotate leaves a replayable directory: old and new segments may
// coexist, and replay's sequence-number dedup makes the overlap
// harmless.
func (l *Log) Rotate(watermark uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: log is closed")
	}
	// Make everything in the old segment durable before the snapshot is
	// allowed to supersede it.
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.fsyncs++
	if err := faultpoint.Inject(faultpoint.SiteWALRotate); err != nil {
		return err
	}
	// When the current segment holds no records yet its name is already
	// segName(lastSeq+1) — recreating it would collide. The empty segment
	// IS the fresh segment; keep it and just head it with the checkpoint.
	if l.fileName != segName(l.lastSeq+1) {
		if err := l.f.Close(); err != nil {
			return err
		}
		if err := l.startSegmentLocked(l.lastSeq + 1); err != nil {
			l.f = nil
			return err
		}
	}
	// Head the new segment with a checkpoint record so the segment is
	// self-describing even after the old ones are gone.
	seq := l.lastSeq + 1
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], watermark)
	frame := encodeFrame(Record{Seq: seq, Type: RecCheckpoint, Payload: payload[:]})
	if _, err := l.f.Write(frame); err != nil {
		l.broken = err
		return err
	}
	if err := l.f.Sync(); err != nil {
		l.broken = err
		return err
	}
	l.fsyncs++
	l.size = int64(len(frame))
	l.bytes += int64(len(frame))
	l.records++
	l.lastSeq = seq
	// Fault site between creating the new segment and removing the old:
	// a crash here leaves both on disk, which replay dedups by seq.
	if err := faultpoint.Inject(faultpoint.SiteWALRotateRemove); err != nil {
		return err
	}
	// Old segments are fully covered by the snapshot; drop them. Names
	// are fixed-width hex, so lexicographic order is sequence order.
	segs, err := listSegments(l.dir)
	if err == nil {
		for _, name := range segs {
			if name < l.fileName {
				if rmErr := os.Remove(filepath.Join(l.dir, name)); rmErr == nil {
					l.segments--
				}
			}
		}
	}
	if l.segments < 1 {
		l.segments = 1
	}
	l.rotations++
	l.lastRot = time.Now().Unix()
	return nil
}

// Close syncs and closes the current segment.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Sync()
	if err == nil {
		l.fsyncs++
	}
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Records:          l.records,
		Bytes:            l.bytes,
		Fsyncs:           l.fsyncs,
		Replays:          l.replays,
		ReplayedRecords:  l.replayed,
		Rotations:        l.rotations,
		LastRotationUnix: l.lastRot,
		Segments:         l.segments,
		LastSeq:          int64(l.lastSeq),
		Policy:           l.opt.Policy.String(),
	}
}

// Verify offline-checks every segment in dir without applying anything:
// it returns the replay result (recoverable watermark, record counts,
// torn-tail size) or ErrCorruptWAL for damage a crash cannot explain.
func Verify(dir string, after uint64) (ReplayResult, error) {
	return Replay(dir, after, nil)
}
