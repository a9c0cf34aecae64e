package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"irdb/internal/faultpoint"
	"irdb/internal/relation"
	"irdb/internal/vector"
)

// Snapshot persistence: the paper's substrate (MonetDB) is a durable
// database; this gives the in-memory catalog the same property. A
// snapshot stores every base table (schema, columns, probability column)
// in a self-describing binary format; the materialization cache is
// deliberately not persisted — cache tables are re-derived on demand, as
// the paper's design intends.
//
// Durability contract (version 3.1, the only format read or written):
//
//   - The file is framed: a header, one checksummed section per payload
//     (metadata, the shared dictionaries, then each table), and a trailer sealing
//     the section list. Every section carries a CRC32-C of its bytes.
//   - A truncated, bit-flipped, or otherwise damaged file is detected on
//     read and reported as a *CorruptError (matching ErrCorruptSnapshot
//     via errors.Is) naming the failing section and byte offset. The
//     catalog is never partially updated: validation completes before any
//     table is replaced.
//   - SaveFile writes to a temp file in the destination directory, fsyncs
//     it, and atomically renames it over the target, so a crash at any
//     point leaves either the complete old snapshot or the complete new
//     one — never a torn file.

// ErrCorruptSnapshot reports that a snapshot failed checksum or structural
// validation. Errors carrying detail (section, offset) wrap it; match with
// errors.Is(err, ErrCorruptSnapshot).
var ErrCorruptSnapshot = errors.New("catalog: corrupt snapshot")

// CorruptError is the typed detail behind ErrCorruptSnapshot: which
// section of the snapshot failed, at (roughly) which byte offset, and why.
type CorruptError struct {
	Section string // section name, e.g. "header", "dicts", "table:triples"
	Offset  int64  // byte offset into the snapshot stream where reading failed
	Reason  string
}

// Error implements error.
func (e *CorruptError) Error() string {
	return fmt.Sprintf("catalog: corrupt snapshot: section %q at offset %d: %s",
		e.Section, e.Offset, e.Reason)
}

// Unwrap makes errors.Is(err, ErrCorruptSnapshot) true for every
// CorruptError.
func (e *CorruptError) Unwrap() error { return ErrCorruptSnapshot }

type snapshotColumn struct {
	Name   string
	Kind   int
	Ints   []int64
	Floats []float64
	Strs   []string
	Bools  []bool
	// A dict-encoded string column stores its codes plus an index into
	// the file-level Dicts table instead of expanded strings. Columns
	// sharing one frozen dict share one Dicts entry, so encoding (and
	// cross-column code comparability) survives a save/load cycle.
	// Encoded is the explicit marker — a column may legitimately have no
	// codes (a zero-row partition still shares the store's dict).
	Encoded bool
	DictID  int
	// Codes are written zigzag-delta-varint packed (CodesPacked holding
	// NumCodes codes) instead of as raw int32s — triple-store columns are
	// sorted-ish runs of small codes, so deltas varint-pack to a fraction
	// of 4 bytes each.
	NumCodes    int
	CodesPacked []byte
}

// SnapshotMeta is the metadata section: the ingest watermark (last WAL
// sequence number covered by the snapshot), which recovery uses as the
// replay cutoff.
type SnapshotMeta struct {
	Watermark uint64
}

type snapshotTable struct {
	Name string
	Cols []snapshotColumn
	Prob []float64
}

type snapshotFile struct {
	Tables []snapshotTable
	// Dicts holds each shared dictionary's strings in code order.
	Dicts [][]string
}

const (
	// snapshotVersion is the format version in the header, "v3.1": a
	// leading meta section (ingest watermark) and varint/delta packed code
	// columns. Files of any other version — the unframed gob files of
	// versions 1–2 and the framed version 3 — are refused as corrupt.
	snapshotVersion = 31

	// Framed-format markers.
	frameMagic = "IRDBSNP3"
	frameEnd   = "IRDBEND!"

	metaSection  = "meta"
	dictsSection = "dicts"
)

// castagnoli is the CRC32-C table; hardware-accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapshot builds the serializable image of every base table.
func (c *Catalog) snapshot() (*snapshotFile, error) {
	file := &snapshotFile{}
	dictIDs := map[*vector.FrozenDict]int{}
	for _, name := range c.TableNames() {
		rel, err := c.Table(name)
		if err != nil {
			return nil, err
		}
		st := snapshotTable{Name: name}
		for _, col := range rel.Columns() {
			sc := snapshotColumn{Name: col.Name, Kind: int(col.Vec.Kind())}
			switch v := col.Vec.(type) {
			case *vector.Int64s:
				sc.Ints = v.Values()
			case *vector.Float64s:
				sc.Floats = v.Values()
			case *vector.Strings:
				sc.Strs = v.Values()
			case *vector.DictStrings:
				id, ok := dictIDs[v.Dict()]
				if !ok {
					id = len(file.Dicts)
					dictIDs[v.Dict()] = id
					file.Dicts = append(file.Dicts, v.Dict().Strings())
				}
				sc.Encoded = true
				sc.DictID = id
				sc.NumCodes = len(v.Codes())
				sc.CodesPacked = packCodes(v.Codes())
			case *vector.Bools:
				sc.Bools = v.Values()
			default:
				return nil, fmt.Errorf("catalog: cannot snapshot column kind %v", col.Vec.Kind())
			}
			st.Cols = append(st.Cols, sc)
		}
		st.Prob = rel.Prob()
		file.Tables = append(file.Tables, st)
	}
	return file, nil
}

// writeSection frames one named payload: name length + name, payload
// length + payload, CRC32-C of the payload. The section's CRC is appended
// to crcs for the trailer seal.
func writeSection(w io.Writer, name string, payload []byte, crcs *[]uint32) error {
	if err := faultpoint.Inject(faultpoint.SiteSnapshotWriteSection); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(name))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, name); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	crc := crc32.Checksum(payload, castagnoli)
	*crcs = append(*crcs, crc)
	return binary.Write(w, binary.LittleEndian, crc)
}

// Save writes every base table to w in the framed, checksummed format,
// with meta as its metadata section: the ingest watermark a checkpoint
// records so recovery knows where WAL replay resumes (zero outside
// checkpoints). The cache is not included.
func (c *Catalog) Save(w io.Writer, meta SnapshotMeta) error {
	file, err := c.snapshot()
	if err != nil {
		return err
	}
	enc := func(v any) ([]byte, error) {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	}
	if _, err := io.WriteString(w, frameMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(snapshotVersion)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(2+len(file.Tables))); err != nil {
		return err
	}
	var crcs []uint32
	payload, err := enc(meta)
	if err != nil {
		return err
	}
	if err := writeSection(w, metaSection, payload, &crcs); err != nil {
		return err
	}
	payload, err = enc(file.Dicts)
	if err != nil {
		return err
	}
	if err := writeSection(w, dictsSection, payload, &crcs); err != nil {
		return err
	}
	for i := range file.Tables {
		t := &file.Tables[i]
		payload, err = enc(t)
		if err != nil {
			return err
		}
		if err := writeSection(w, "table:"+t.Name, payload, &crcs); err != nil {
			return err
		}
	}
	// Trailer: CRC over the section CRCs (detects truncation after a
	// section boundary and reordered/substituted sections), then the end
	// marker.
	seal := crc32.Checksum(crcBytes(crcs), castagnoli)
	if err := binary.Write(w, binary.LittleEndian, seal); err != nil {
		return err
	}
	_, err = io.WriteString(w, frameEnd)
	return err
}

func crcBytes(crcs []uint32) []byte {
	b := make([]byte, 4*len(crcs))
	for i, crc := range crcs {
		binary.LittleEndian.PutUint32(b[4*i:], crc)
	}
	return b
}

// SaveFile durably writes the catalog snapshot, with meta as its metadata
// section, to path: the bytes go to a temp file in the same directory, are
// fsynced, and the temp file is atomically renamed over path. A crash (or
// injected fault) at any point leaves the previous snapshot at path intact
// and loadable. Checkpoints record the WAL watermark the snapshot covers
// in meta.
func (c *Catalog) SaveFile(path string, meta SnapshotMeta) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = c.Save(tmp, meta); err != nil {
		return err
	}
	if err = faultpoint.Inject(faultpoint.SiteSnapshotFsync); err != nil {
		return err
	}
	// fsync before rename: the rename must never become visible while the
	// file's bytes are still only in the page cache — that is exactly the
	// torn state the checksums exist to catch.
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	if err = faultpoint.Inject(faultpoint.SiteSnapshotRename); err != nil {
		return err
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	// Best-effort directory sync so the rename itself is durable; some
	// filesystems do not support fsync on directories.
	if d, derr := os.Open(dir); derr == nil {
		_ = d.Sync()
		d.Close()
	}
	c.snapSaves.Add(1)
	return nil
}

// LoadFile loads the snapshot at path into the catalog and returns its
// metadata section; recovery reads the watermark there to know where WAL
// replay resumes. Corruption — truncation, bit flips, out-of-range
// dictionary codes — is reported as a *CorruptError (errors.Is
// ErrCorruptSnapshot) and leaves the catalog unchanged.
func (c *Catalog) LoadFile(path string) (SnapshotMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return SnapshotMeta{}, err
	}
	defer f.Close()
	return c.LoadSnapshot(f)
}

// countReader tracks how many bytes have been consumed, so corruption
// errors can report where the stream went bad.
type countReader struct {
	r io.Reader
	n int64
}

func (cr *countReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

// LoadSnapshot replaces the catalog's base tables with the snapshot
// contents, clears the cache and returns the snapshot's metadata section.
// The file is fully validated before the catalog is touched.
func (c *Catalog) LoadSnapshot(r io.Reader) (SnapshotMeta, error) {
	meta, err := c.loadSnapshot(r)
	if errors.Is(err, ErrCorruptSnapshot) {
		c.snapCorrupt.Add(1)
	} else if err == nil {
		c.snapLoads.Add(1)
	}
	return meta, err
}

func (c *Catalog) loadSnapshot(r io.Reader) (SnapshotMeta, error) {
	cr := &countReader{r: r}
	magic := make([]byte, len(frameMagic))
	if _, err := io.ReadFull(cr, magic); err != nil {
		return SnapshotMeta{}, &CorruptError{Section: "header", Offset: cr.n, Reason: "short read: " + err.Error()}
	}
	if string(magic) != frameMagic {
		return SnapshotMeta{}, &CorruptError{Section: "header", Offset: cr.n, Reason: fmt.Sprintf("not a snapshot file (magic %q)", magic)}
	}
	file, meta, err := readFramed(cr)
	if err != nil {
		return SnapshotMeta{}, err
	}
	return meta, c.install(file)
}

// readFramed reads the framed section format (header magic already
// consumed), verifying every checksum and the trailer.
func readFramed(cr *countReader) (*snapshotFile, SnapshotMeta, error) {
	var meta SnapshotMeta
	corrupt := func(section, reason string) error {
		return &CorruptError{Section: section, Offset: cr.n, Reason: reason}
	}
	var version, nSections uint32
	if err := binary.Read(cr, binary.LittleEndian, &version); err != nil {
		return nil, meta, corrupt("header", "short read: "+err.Error())
	}
	if version != snapshotVersion {
		return nil, meta, corrupt("header", fmt.Sprintf("unsupported snapshot version %d", version))
	}
	if err := binary.Read(cr, binary.LittleEndian, &nSections); err != nil {
		return nil, meta, corrupt("header", "short read: "+err.Error())
	}
	if nSections == 0 || nSections > 1<<20 {
		return nil, meta, corrupt("header", fmt.Sprintf("implausible section count %d", nSections))
	}
	// Sections: meta, dicts, then one per table.
	const metaIdx, dictsIdx = 0, 1
	file := &snapshotFile{}
	var crcs []uint32
	for i := uint32(0); i < nSections; i++ {
		var nameLen uint32
		if err := binary.Read(cr, binary.LittleEndian, &nameLen); err != nil {
			return nil, meta, corrupt("section", "short read in name length: "+err.Error())
		}
		if nameLen > 4096 {
			return nil, meta, corrupt("section", fmt.Sprintf("implausible section name length %d", nameLen))
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(cr, name); err != nil {
			return nil, meta, corrupt("section", "short read in name: "+err.Error())
		}
		section := string(name)
		var payloadLen uint64
		if err := binary.Read(cr, binary.LittleEndian, &payloadLen); err != nil {
			return nil, meta, corrupt(section, "short read in payload length: "+err.Error())
		}
		if payloadLen > 1<<40 {
			return nil, meta, corrupt(section, fmt.Sprintf("implausible payload length %d", payloadLen))
		}
		payload := make([]byte, payloadLen)
		if _, err := io.ReadFull(cr, payload); err != nil {
			return nil, meta, corrupt(section, "short read in payload: "+err.Error())
		}
		var want uint32
		if err := binary.Read(cr, binary.LittleEndian, &want); err != nil {
			return nil, meta, corrupt(section, "short read in checksum: "+err.Error())
		}
		if got := crc32.Checksum(payload, castagnoli); got != want {
			return nil, meta, corrupt(section, fmt.Sprintf("checksum mismatch: stored %08x, computed %08x", want, got))
		}
		crcs = append(crcs, want)
		dec := gob.NewDecoder(bytes.NewReader(payload))
		switch {
		case int(i) == metaIdx && section == metaSection:
			if err := dec.Decode(&meta); err != nil {
				return nil, meta, corrupt(section, "decoding metadata: "+err.Error())
			}
		case int(i) == dictsIdx && section == dictsSection:
			if err := dec.Decode(&file.Dicts); err != nil {
				return nil, meta, corrupt(section, "decoding dictionaries: "+err.Error())
			}
		case int(i) > dictsIdx && len(section) > len("table:") && section[:len("table:")] == "table:":
			var t snapshotTable
			if err := dec.Decode(&t); err != nil {
				return nil, meta, corrupt(section, "decoding table: "+err.Error())
			}
			if "table:"+t.Name != section {
				return nil, meta, corrupt(section, fmt.Sprintf("section name does not match table %q", t.Name))
			}
			file.Tables = append(file.Tables, t)
		default:
			return nil, meta, corrupt(section, "unexpected section")
		}
	}
	var seal uint32
	if err := binary.Read(cr, binary.LittleEndian, &seal); err != nil {
		return nil, meta, corrupt("trailer", "short read: "+err.Error())
	}
	if want := crc32.Checksum(crcBytes(crcs), castagnoli); seal != want {
		return nil, meta, corrupt("trailer", fmt.Sprintf("seal mismatch: stored %08x, computed %08x", seal, want))
	}
	end := make([]byte, len(frameEnd))
	if _, err := io.ReadFull(cr, end); err != nil || string(end) != frameEnd {
		return nil, meta, corrupt("trailer", "missing end marker")
	}
	return file, meta, nil
}

// packCodes zigzag-delta-varint encodes a code column: each code is
// stored as a signed varint delta from its predecessor. Triple-store code
// columns are long runs of small, clustered codes, so the packed form is
// typically a quarter of the raw 4-bytes-per-code representation.
func packCodes(codes []int32) []byte {
	buf := make([]byte, 0, len(codes))
	var tmp [binary.MaxVarintLen64]byte
	var prev int64
	for _, c := range codes {
		n := binary.PutVarint(tmp[:], int64(c)-prev)
		buf = append(buf, tmp[:n]...)
		prev = int64(c)
	}
	return buf
}

// unpackCodes reverses packCodes into exactly n codes, rejecting
// malformed varints, out-of-int32-range values and trailing bytes as
// errors (the caller reports them as corruption).
func unpackCodes(b []byte, n int) ([]int32, error) {
	if n < 0 || n > len(b) { // every code takes at least one byte
		return nil, fmt.Errorf("implausible code count %d for %d packed bytes", n, len(b))
	}
	codes := make([]int32, n)
	var prev int64
	off := 0
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(b[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("bad varint at packed offset %d (code %d of %d)", off, i, n)
		}
		off += sz
		prev += d
		if prev < math.MinInt32 || prev > math.MaxInt32 {
			return nil, fmt.Errorf("code %d of %d out of int32 range (%d)", i, n, prev)
		}
		codes[i] = int32(prev)
	}
	if off != len(b) {
		return nil, fmt.Errorf("%d trailing bytes after %d codes", len(b)-off, n)
	}
	return codes, nil
}

// install validates the decoded snapshot and, only if everything checks
// out, replaces the catalog's tables. The decoded payload is untrusted
// even when its checksums matched — checksums catch storage damage, not a
// buggy or malicious writer — so structural invariants (dictionary
// references, code ranges, column lengths) are re-validated here and
// violations reported as corruption, never allowed to become a later
// panic in DictStrings decode.
func (c *Catalog) install(file *snapshotFile) error {
	corrupt := func(section, format string, args ...any) error {
		return &CorruptError{Section: section, Reason: fmt.Sprintf(format, args...)}
	}
	// Rebuild each shared dictionary once; columns referencing the same
	// DictID share the same frozen dict, exactly as before the save.
	dicts := make([]*vector.FrozenDict, len(file.Dicts))
	for di, strs := range file.Dicts {
		d := vector.NewDict(len(strs))
		for i, s := range strs {
			if int(d.Put(s)) != i {
				return corrupt(dictsSection, "dict %d has duplicate string %q", di, s)
			}
		}
		dicts[di] = d.Freeze()
	}
	// Validate everything before mutating the catalog.
	rels := make(map[string]*relation.Relation, len(file.Tables))
	for _, st := range file.Tables {
		section := "table:" + st.Name
		if _, dup := rels[st.Name]; dup {
			return corrupt(section, "duplicate table %q", st.Name)
		}
		cols := make([]relation.Column, len(st.Cols))
		for i, sc := range st.Cols {
			var vec vector.Vector
			switch vector.Kind(sc.Kind) {
			case vector.Int64:
				vec = vector.FromInt64s(sc.Ints)
			case vector.Float64:
				vec = vector.FromFloat64s(sc.Floats)
			case vector.String:
				if sc.Encoded {
					if sc.DictID < 0 || sc.DictID >= len(dicts) {
						return corrupt(section, "column %q references unknown dict %d", sc.Name, sc.DictID)
					}
					d := dicts[sc.DictID]
					codes, err := unpackCodes(sc.CodesPacked, sc.NumCodes)
					if err != nil {
						return corrupt(section, "column %q packed codes: %v", sc.Name, err)
					}
					// Bounds-check every code against its dictionary: an
					// out-of-range code read from disk must fail here as
					// corruption, not index past the dict later.
					for ci, code := range codes {
						if code < 0 || int(code) >= d.Len() {
							return corrupt(section, "column %q row %d has out-of-range code %d (dict %d holds %d strings)",
								sc.Name, ci, code, sc.DictID, d.Len())
						}
					}
					vec = vector.FromCodes(d, codes)
				} else {
					vec = vector.FromStrings(sc.Strs)
				}
			case vector.Bool:
				vec = vector.FromBools(sc.Bools)
			default:
				return corrupt(section, "column %q has unknown kind %d", sc.Name, sc.Kind)
			}
			cols[i] = relation.Column{Name: sc.Name, Vec: vec}
		}
		rel, err := relation.FromColumns(cols, st.Prob)
		if err != nil {
			// Column-length or probability-length mismatch: structurally
			// damaged table.
			return corrupt(section, "%v", err)
		}
		rels[st.Name] = rel
	}
	c.mu.Lock()
	c.tables = make(map[string]*relation.Relation, len(rels))
	for name, rel := range rels {
		c.tables[name] = rel
	}
	c.refreshBaseDictsLocked()
	c.schemaEpoch.Add(1)
	c.cache.Clear()
	c.mu.Unlock()
	return nil
}
