package catalog

import (
	"bytes"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"irdb/internal/relation"
	"irdb/internal/vector"
)

func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	src := snapshotCatalog()
	path := filepath.Join(t.TempDir(), "cat.snap")
	if err := src.SaveFile(path, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	if st := src.SnapshotStats(); st.Saves != 1 {
		t.Errorf("saves = %d, want 1", st.Saves)
	}
	dst := New(0)
	if _, err := dst.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if st := dst.SnapshotStats(); st.Loads != 1 || st.CorruptLoads != 0 {
		t.Errorf("load stats = %+v", st)
	}
	names := dst.TableNames()
	if len(names) != 2 || names[0] != "empty" || names[1] != "mixed" {
		t.Fatalf("tables = %v", names)
	}
}

// TestLoadTruncatedSnapshot: every truncation point — inside the header,
// a section payload, a checksum, the trailer — is detected as corruption
// and leaves the catalog untouched.
func TestLoadTruncatedSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshotCatalog().Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{3, 8, 12, 20, len(full) / 2, len(full) - 12, len(full) - 1} {
		dst := snapshotCatalog()
		before := dst.TableNames()
		_, err := dst.LoadSnapshot(bytes.NewReader(full[:n]))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("truncated at %d/%d: err = %v, want ErrCorruptSnapshot", n, len(full), err)
		}
		if got := dst.TableNames(); len(got) != len(before) {
			t.Errorf("truncated at %d: catalog mutated: %v -> %v", n, before, got)
		}
		if st := dst.SnapshotStats(); st.CorruptLoads != 1 {
			t.Errorf("truncated at %d: corrupt loads = %d, want 1", n, st.CorruptLoads)
		}
	}
}

// TestLoadBitFlippedSnapshot: single-bit damage anywhere in the file is
// caught by a section checksum, a structural bound, or the trailer seal —
// never accepted, never a panic.
func TestLoadBitFlippedSnapshot(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshotCatalog().Save(&buf, SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, pos := range []int{9, 15, 30, len(full) / 3, len(full) / 2, len(full) - 6} {
		damaged := append([]byte(nil), full...)
		damaged[pos] ^= 0x10
		dst := New(0)
		_, err := dst.LoadSnapshot(bytes.NewReader(damaged))
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("bit flip at %d: err = %v, want ErrCorruptSnapshot", pos, err)
		}
		var ce *CorruptError
		if !errors.As(err, &ce) || ce.Section == "" {
			t.Errorf("bit flip at %d: error carries no section detail: %v", pos, err)
		}
	}
}

// TestInstallRejectsBadDictReferences: a decoded snapshot whose checksums
// pass can still be wrong (buggy writer); out-of-range dictionary codes
// and dangling dict IDs must be refused as corruption at load, not panic
// later when the column is first decoded.
func TestInstallRejectsBadDictReferences(t *testing.T) {
	mk := func(codes []int32, dictID int) *snapshotFile {
		return &snapshotFile{
			Dicts: [][]string{{"a", "b"}},
			Tables: []snapshotTable{{
				Name: "t",
				Cols: []snapshotColumn{{
					Name: "s", Kind: int(vector.String),
					Encoded: true, DictID: dictID,
					NumCodes: len(codes), CodesPacked: packCodes(codes),
				}},
				Prob: make([]float64, len(codes)),
			}},
		}
	}
	cases := []struct {
		name string
		file *snapshotFile
	}{
		{"code past dict end", mk([]int32{0, 5}, 0)},
		{"negative code", mk([]int32{-1}, 0)},
		{"dangling dict id", mk([]int32{0}, 3)},
	}
	for _, tc := range cases {
		c := New(0)
		err := c.install(tc.file)
		if !errors.Is(err, ErrCorruptSnapshot) {
			t.Errorf("%s: err = %v, want ErrCorruptSnapshot", tc.name, err)
		}
		if len(c.TableNames()) != 0 {
			t.Errorf("%s: rejected snapshot mutated catalog", tc.name)
		}
	}
}

// TestLegacyGobSnapshotRefused: a pre-framing snapshot file (a single
// gob blob, versions 1–2) is refused with ErrCorruptSnapshot and leaves
// the catalog unchanged.
func TestLegacyGobSnapshotRefused(t *testing.T) {
	src := snapshotCatalog()
	file, err := src.snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// The gob-era layout: magic and version fields beside the tables.
	legacy := struct {
		Magic   string
		Version int
		Tables  []snapshotTable
		Dicts   [][]string
	}{"irdb-snapshot", 2, file.Tables, file.Dicts}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(legacy); err != nil {
		t.Fatal(err)
	}
	dst := New(0)
	dst.Put("keep", relation.NewBuilder([]string{"x"}, []vector.Kind{vector.Int64}).Add(int64(1)).Build())
	if _, err := dst.LoadSnapshot(&buf); !errors.Is(err, ErrCorruptSnapshot) {
		t.Fatalf("legacy snapshot: err = %v, want ErrCorruptSnapshot", err)
	}
	if names := dst.TableNames(); len(names) != 1 || names[0] != "keep" {
		t.Fatalf("refused load changed tables: %v", names)
	}
	if st := dst.SnapshotStats(); st.CorruptLoads != 1 {
		t.Errorf("CorruptLoads = %d, want 1", st.CorruptLoads)
	}
}

// TestSaveFileLeavesNoTempOnSuccess: the temp file is renamed into place,
// not left beside the snapshot.
func TestSaveFileLeavesNoTempOnSuccess(t *testing.T) {
	dir := t.TempDir()
	if err := snapshotCatalog().SaveFile(filepath.Join(dir, "cat.snap"), SnapshotMeta{}); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "cat.snap" {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("directory contents = %v, want only cat.snap", names)
	}
}
