package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestOpenSweepsStaleTempFiles plants what a crash mid-repair and
// mid-checkpoint leave behind and checks Open deletes exactly those,
// leaving real segments, checkpoints and foreign files untouched.
func TestOpenSweepsStaleTempFiles(t *testing.T) {
	dir := t.TempDir()
	j := openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	if _, err := j.AppendBatch("vm", testSnaps("vm", 3, 2, 0)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := SaveCheckpoint(dir, j.Pos(), time.Unix(0, 1), "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	keep := map[string][]byte{}
	for _, name := range []string{"journal-00000001.wal", "checkpoint-00000001.ckpt"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		keep[name] = b
	}
	stale := []string{
		"journal-00000001.wal.scrub",       // repair temp of earlier versions
		"journal-00000001.wal.tmp271828",   // repair temp
		"checkpoint-00000002.ckpt.tmp3141", // checkpoint temp
		"checkpoint-00000002.ckpt.tmp",
	}
	foreign := []string{"notes.txt.tmp1", "journal-00000001.tmp"}
	for _, name := range append(append([]string{}, stale...), foreign...) {
		if err := os.WriteFile(filepath.Join(dir, name), bytes.Repeat([]byte("x"), 4096), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	j = openTestJournal(t, Config{Dir: dir, Fsync: FsyncNever})
	for _, name := range stale {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Errorf("%s survived Open: %v", name, err)
		}
	}
	for _, name := range foreign {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("foreign file %s was removed: %v", name, err)
		}
	}
	for name, want := range keep {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed across Open: %v", name, err)
		}
	}
	if st := j.Stats(); st.Bytes != int64(len(keep["journal-00000001.wal"]))+headerSize {
		t.Errorf("Stats.Bytes = %d, want the old segment plus a fresh header", st.Bytes)
	}
}

// FuzzJournalScan runs ScanSegment over arbitrary segment bytes: it
// must never panic or fail on readable data, every record it delivers
// must end inside the valid prefix, and a walk it reports clean must
// cover the whole file.
func FuzzJournalScan(f *testing.F) {
	for _, path := range []string{
		filepath.Join("testdata", "journal-v1", "journal-00000001.wal"),
		filepath.Join("testdata", "journal-v2", "journal-00000001.wal"),
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)-5])
		flipped := append([]byte(nil), b...)
		flipped[len(b)/2] ^= 0x04
		f.Add(flipped)
	}
	f.Add([]byte("ACWL"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "journal-00000001.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs int
		var last int64
		info, err := ScanSegment(path, func(pos Position, rec Record) error {
			if pos.Seg != 1 || pos.Off <= last || pos.Off > int64(len(data)) {
				t.Fatalf("record %d ends at %+v after %d in %d bytes", recs, pos, last, len(data))
			}
			if rec.Type == RecordBatch && len(rec.Snaps) == 0 {
				t.Fatalf("batch record %d carries no snapshots", recs)
			}
			recs, last = recs+1, pos.Off
			return nil
		})
		if err != nil {
			t.Fatalf("ScanSegment: %v", err)
		}
		if info.Records != recs || info.ValidBytes < last || info.ValidBytes > int64(len(data)) {
			t.Fatalf("info = %+v after %d records ending at %d in %d bytes", info, recs, last, len(data))
		}
		if !info.Torn && info.ValidBytes != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", info.ValidBytes, len(data))
		}
	})
}
