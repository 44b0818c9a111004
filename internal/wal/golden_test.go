package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from the current writers")

// The golden segments pin the journal's on-disk bytes: the writer must
// re-encode goldenRecords into exactly the checked-in files, and the
// readers must decode those files back into goldenRecords.

func goldenModelHash() [modelHashSize]byte {
	var h [modelHashSize]byte
	for i := range h {
		h[i] = byte(7*i + 1)
	}
	return h
}

func goldenRecords() []Record {
	return []Record{
		{Type: RecordBatch, VM: "vm-a", Snaps: []metrics.Snapshot{
			{Time: 5 * time.Second, Node: "vm-a", Values: []float64{0.5, 1.25, -3, 1e9}},
			{Time: 10 * time.Second, Node: "vm-a", Values: []float64{0, -0.125, 42, 7.75}},
		}},
		{Type: RecordBatch, VM: "vm-b", Snaps: []metrics.Snapshot{
			{Time: 15 * time.Second, Node: "vm-b", Values: []float64{3.5, 2, 1, 0}},
		}},
		{Type: RecordFinalize, VM: "vm-a"},
		{Type: RecordBatch, VM: "vm-b", Snaps: []metrics.Snapshot{
			{Time: 20 * time.Second, Node: "vm-b", Values: []float64{-1, -2, -3, -4}},
			{Time: 25 * time.Second, Node: "vm-b", Values: []float64{1e-3, 2e-3, 3e-3, 4e-3}},
			{Time: 30 * time.Second, Node: "vm-b", Values: []float64{9, 8, 7, 6}},
		}},
		{Type: RecordFinalize, VM: "vm-b"},
	}
}

// writeGoldenSegment journals goldenRecords under goldenModelHash into
// a fresh directory and returns the bytes of the one segment written.
func writeGoldenSegment(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.SetModelHash(goldenModelHash()); err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenRecords() {
		if rec.Type == RecordFinalize {
			_, err = j.AppendFinalize(rec.VM)
		} else {
			_, err = j.AppendBatch(rec.VM, rec.Snaps)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(segmentName.Path(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkGolden compares writer output against a golden file, first
// rewriting the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: writer produced %d bytes that differ from the %d golden bytes", path, len(got), len(want))
	}
}

// checkGoldenDecode scans and replays a golden segment and checks both
// readers return goldenRecords.
func checkGoldenDecode(t *testing.T, path string, version uint32, modelHash string) {
	t.Helper()
	var scanned []Record
	info, err := ScanSegment(path, func(_ Position, rec Record) error {
		scanned = append(scanned, rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn || info.Version != version || info.ModelHash != modelHash ||
		info.Records != len(goldenRecords()) || info.ValidBytes != st.Size() {
		t.Errorf("scan info = %+v, want version %d, hash %q, %d records, %d valid bytes, not torn",
			info, version, modelHash, len(goldenRecords()), st.Size())
	}
	if !reflect.DeepEqual(scanned, goldenRecords()) {
		t.Errorf("scanned records = %+v, want %+v", scanned, goldenRecords())
	}

	var replayed []Record
	var last Position
	stats, err := Replay(filepath.Dir(path), Position{}, func(pos Position, rec Record) error {
		replayed, last = append(replayed, rec), pos
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || stats.Records != len(goldenRecords()) || last != (Position{Seg: 1, Off: st.Size()}) {
		t.Errorf("replay stats = %+v ending at %+v", stats, last)
	}
	if !reflect.DeepEqual(replayed, goldenRecords()) {
		t.Errorf("replayed records = %+v, want %+v", replayed, goldenRecords())
	}
}

func TestGoldenJournalV2(t *testing.T) {
	path := filepath.Join("testdata", "journal-v2", "journal-00000001.wal")
	checkGolden(t, path, writeGoldenSegment(t))
	h := goldenModelHash()
	checkGoldenDecode(t, path, 2, hex.EncodeToString(h[:]))
}

func TestGoldenJournalV1(t *testing.T) {
	// A version-1 segment is the 8-byte magic+version prefix followed by
	// the same record frames a version-2 segment carries after its hash.
	v2 := writeGoldenSegment(t)
	v1 := append([]byte("ACWL"), binary.LittleEndian.AppendUint32(nil, 1)...)
	v1 = append(v1, v2[8+modelHashSize:]...)
	path := filepath.Join("testdata", "journal-v1", "journal-00000001.wal")
	checkGolden(t, path, v1)
	checkGoldenDecode(t, path, 1, "")
}
