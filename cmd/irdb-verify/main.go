// Command irdb-verify offline-checks a durability directory: every
// checksum of the checkpoint snapshot and every frame of the write-ahead
// log, without modifying anything. It prints the recoverable watermark —
// the last WAL sequence number a reopen would recover to — and exits
// non-zero on damage a crash cannot explain (a torn WAL tail is normal
// crash fallout and is reported, not failed).
//
// Usage:
//
//	irdb-verify -dir /var/lib/irdb
//	irdb-verify -snapshot snap.irdb            # a lone snapshot file
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"irdb/internal/catalog"
	"irdb/internal/ingest"
	"irdb/internal/wal"
)

func main() {
	var (
		dir      = flag.String("dir", "", "durability directory (snapshot.irdb + wal/)")
		snapOnly = flag.String("snapshot", "", "verify a single snapshot file instead of a directory")
	)
	flag.Parse()
	switch {
	case *snapOnly != "":
		meta, ok := verifySnapshot(*snapOnly)
		if !ok {
			os.Exit(1)
		}
		fmt.Printf("snapshot OK (watermark %d)\n", meta.Watermark)
	case *dir != "":
		if !verifyDir(*dir) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "irdb-verify: one of -dir or -snapshot is required")
		flag.Usage()
		os.Exit(2)
	}
}

// verifySnapshot loads the file into a throwaway catalog, which walks
// every section checksum, the trailer seal, the packed code columns and
// the dictionary bounds of every code.
func verifySnapshot(path string) (catalog.SnapshotMeta, bool) {
	meta, err := catalog.New(0).LoadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irdb-verify: snapshot %s: %v\n", path, err)
		return meta, false
	}
	return meta, true
}

func verifyDir(dir string) bool {
	ok := true
	var after uint64
	snapPath := filepath.Join(dir, ingest.SnapshotFile)
	if _, err := os.Stat(snapPath); err == nil {
		meta, snapOK := verifySnapshot(snapPath)
		if snapOK {
			fmt.Printf("snapshot %s OK (watermark %d)\n", snapPath, meta.Watermark)
			after = meta.Watermark
		} else {
			// Keep going: the WAL may still be readable, and knowing which
			// half is damaged is the point of the tool.
			ok = false
		}
	} else {
		fmt.Printf("no snapshot at %s (recovery starts from an empty database)\n", snapPath)
	}
	walDir := filepath.Join(dir, ingest.WALDir)
	rr, err := wal.Verify(walDir, after)
	if err != nil {
		if errors.Is(err, wal.ErrCorruptWAL) {
			fmt.Fprintf(os.Stderr, "irdb-verify: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "irdb-verify: wal %s: %v\n", walDir, err)
		}
		return false
	}
	fmt.Printf("wal %s OK: %d segments, %d records past watermark, %d skipped\n",
		walDir, rr.Segments, rr.Records, rr.Skipped)
	if rr.TornBytes > 0 {
		fmt.Printf("torn tail: %d bytes (normal crash fallout; reopen truncates it)\n", rr.TornBytes)
	}
	fmt.Printf("recoverable watermark: %d\n", rr.LastSeq)
	return ok
}
