package catalog

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

// TestSnapshotMetaWatermarkRoundTrip: the checkpoint watermark written by
// Save/SaveFile comes back from the load, both in-memory and
// through the durable file path.
func TestSnapshotMetaWatermarkRoundTrip(t *testing.T) {
	src := snapshotCatalog()
	var buf bytes.Buffer
	if err := src.Save(&buf, SnapshotMeta{Watermark: 42}); err != nil {
		t.Fatal(err)
	}
	meta, err := New(0).LoadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Watermark != 42 {
		t.Fatalf("watermark = %d, want 42", meta.Watermark)
	}

	path := filepath.Join(t.TempDir(), "snap.irdb")
	if err := src.SaveFile(path, SnapshotMeta{Watermark: 7}); err != nil {
		t.Fatal(err)
	}
	meta, err = New(0).LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Watermark != 7 {
		t.Fatalf("file watermark = %d, want 7", meta.Watermark)
	}
}

// TestPackCodesRoundTrip exercises the zigzag-delta-varint codec over
// shapes the triple store actually produces (sorted runs, repeats) and
// adversarial ones (alternating extremes).
func TestPackCodesRoundTrip(t *testing.T) {
	cases := [][]int32{
		nil,
		{0},
		{0, 0, 0, 0},
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{100, 100, 101, 3, 3, 99999, 0},
		{-2147483648, 2147483647, -2147483648},
	}
	for _, codes := range cases {
		packed := packCodes(codes)
		got, err := unpackCodes(packed, len(codes))
		if err != nil {
			t.Fatalf("unpack(%v): %v", codes, err)
		}
		want := codes
		if want == nil {
			want = []int32{}
		}
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip %v -> %v", codes, got)
		}
	}
	// A sorted-ish run must pack well below 4 bytes/code — the point of
	// the format.
	run := make([]int32, 10000)
	for i := range run {
		run[i] = int32(i / 3)
	}
	if packed := packCodes(run); len(packed) >= 2*len(run) {
		t.Fatalf("sorted run packed to %d bytes for %d codes; want < 2 bytes/code", len(packed), len(run))
	}
}

// TestUnpackCodesRejectsCorruption: truncation, trailing bytes and
// deltas that walk outside int32 must error, never panic or mis-decode.
func TestUnpackCodesRejectsCorruption(t *testing.T) {
	packed := packCodes([]int32{10, 20, 30})
	if _, err := unpackCodes(packed[:len(packed)-1], 3); err == nil {
		t.Error("truncated packing decoded without error")
	}
	if _, err := unpackCodes(append(append([]byte(nil), packed...), 0x01), 3); err == nil {
		t.Error("trailing byte decoded without error")
	}
	if _, err := unpackCodes(packed, 2); err == nil {
		t.Error("wrong code count decoded without error")
	}
	// Delta pushing the running value past int32: 2^40 as one varint.
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], 1<<40)
	if _, err := unpackCodes(tmp[:n], 1); err == nil {
		t.Error("out-of-int32-range code decoded without error")
	}
	// An unterminated varint (all continuation bits).
	if _, err := unpackCodes([]byte{0x80, 0x80, 0x80}, 1); err == nil {
		t.Error("unterminated varint decoded without error")
	}
}

// writeFramedFile hand-builds a framed snapshot of the given version from
// raw section payloads, using the production writeSection so the framing
// bytes are exactly what a writer of that version produced.
func writeFramedFile(t *testing.T, version uint32, sections []struct {
	name    string
	payload any
}) []byte {
	t.Helper()
	var buf bytes.Buffer
	io.WriteString(&buf, frameMagic)
	binary.Write(&buf, binary.LittleEndian, version)
	binary.Write(&buf, binary.LittleEndian, uint32(len(sections)))
	var crcs []uint32
	for _, s := range sections {
		var p bytes.Buffer
		if err := gob.NewEncoder(&p).Encode(s.payload); err != nil {
			t.Fatal(err)
		}
		if err := writeSection(&buf, s.name, p.Bytes(), &crcs); err != nil {
			t.Fatal(err)
		}
	}
	binary.Write(&buf, binary.LittleEndian, crc32.Checksum(crcBytes(crcs), castagnoli))
	io.WriteString(&buf, frameEnd)
	return buf.Bytes()
}

// TestVersion3SnapshotRefused: a framed file as the previous format
// wrote it — version 3, no meta section, raw (unpacked) code columns — is
// refused as corrupt, and the catalog keeps its tables.
func TestVersion3SnapshotRefused(t *testing.T) {
	table := snapshotTable{
		Name: "edges",
		Cols: []snapshotColumn{{Name: "w", Kind: int(vector.Int64), Ints: []int64{1, 2, 3}}},
		Prob: []float64{1, 1, 0.5},
	}
	data := writeFramedFile(t, 3, []struct {
		name    string
		payload any
	}{
		{dictsSection, [][]string{{"n1", "n2"}}},
		{"table:edges", table},
	})
	c := snapshotCatalog()
	before := c.TableNames()
	if _, err := c.LoadSnapshot(bytes.NewReader(data)); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("version 3 file: err = %v, want ErrCorruptSnapshot", err)
	}
	if after := c.TableNames(); !slices.Equal(before, after) {
		t.Fatalf("refused load changed tables: %v -> %v", before, after)
	}
}

// TestPackedCodeCorruptionIsCorruptError: a v3.1 file whose section
// checksums are all valid but whose packed code bytes are malformed (a
// buggy writer, not storage damage) must surface as ErrCorruptSnapshot,
// not a panic or a silently wrong column.
func TestPackedCodeCorruptionIsCorruptError(t *testing.T) {
	bad := []snapshotColumn{
		// Truncated final varint.
		{Name: "s", Kind: int(vector.String), Encoded: true, DictID: 0,
			NumCodes: 2, CodesPacked: []byte{0x00, 0x80}},
		// Trailing bytes after the declared codes.
		{Name: "s", Kind: int(vector.String), Encoded: true, DictID: 0,
			NumCodes: 1, CodesPacked: []byte{0x00, 0x00}},
		// Valid varints, out-of-dict-range code (dict has 1 string).
		{Name: "s", Kind: int(vector.String), Encoded: true, DictID: 0,
			NumCodes: 1, CodesPacked: packCodes([]int32{9})},
	}
	for i, col := range bad {
		data := writeFramedFile(t, snapshotVersion, []struct {
			name    string
			payload any
		}{
			{metaSection, SnapshotMeta{Watermark: 1}},
			{dictsSection, [][]string{{"only"}}},
			{"table:t", snapshotTable{Name: "t", Cols: []snapshotColumn{col}, Prob: []float64{1}}},
		})
		_, err := New(0).LoadSnapshot(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("case %d: err = %v, want ErrCorruptSnapshot", i, err)
		}
	}
}

// TestSnapshot31DictColumnsStayPacked pins that the current writer
// actually emits packed code columns (not raw ones), and that they decode
// to the same relation contents.
func TestSnapshot31DictColumnsStayPacked(t *testing.T) {
	a := relation.NewBuilder([]string{"s"}, []vector.Kind{vector.String}).
		Add("x").Add("y").Add("x").Build()
	encoded, err := relation.EncodeStringsShared([]*relation.Relation{a}, [][]string{{"s"}})
	if err != nil {
		t.Fatal(err)
	}
	src := New(0)
	src.Put("t", encoded[0])
	file, err := src.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	col := file.Tables[0].Cols[0]
	if col.NumCodes != 3 || len(col.CodesPacked) == 0 {
		t.Fatalf("writer emitted unpacked column: %+v", col)
	}
	var buf bytes.Buffer
	if err := src.Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	if _, err := dst.LoadSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	rel, err := dst.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	ds := rel.Col(0).Vec.(*vector.DictStrings)
	if ds.At(0) != "x" || ds.At(1) != "y" || ds.At(2) != "x" {
		t.Fatalf("packed column decoded wrong: %s", rel.Format(-1))
	}
}
