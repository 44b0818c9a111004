package wal

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// flipPayloadByte corrupts one byte inside the payload of the record
// ending at ends[rec] in the segment at path, returning the frame's
// start offset.
func flipPayloadByte(t *testing.T, path string, ends []int64, rec int) int64 {
	t.Helper()
	start := int64(headerSize)
	if rec > 0 {
		start = ends[rec-1]
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[start+frameSize+1] ^= 0x40 // a payload byte, leaving the frame header intact
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return start
}

func TestScrubDirRepairsBadFrame(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 6)
	badOff := flipPayloadByte(t, segPath, ends, 2)

	// Report-only first: damage found, nothing touched.
	reports, err := ScrubDir(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 1 || reports[0].BadFrames != 1 || reports[0].Records != 5 {
		t.Fatalf("report = %+v, want 1 bad frame, 5 records", reports)
	}
	if reports[0].FirstBadOff != badOff {
		t.Errorf("first bad offset = %d, want %d", reports[0].FirstBadOff, badOff)
	}
	if reports[0].Repaired {
		t.Error("report-only scrub repaired the segment")
	}

	// Repairing scrub: bad frame dropped, original quarantined.
	reports, err = ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Repaired {
		t.Fatalf("segment not repaired: %+v", reports[0])
	}
	if _, err := os.Stat(segPath + ".corrupt"); err != nil {
		t.Errorf("quarantine file missing: %v", err)
	}
	got := 0
	stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Errorf("repaired segment still scans torn: %+v", stats)
	}
	if got != 5 {
		t.Errorf("replayed %d records after repair, want 5", got)
	}

	// A clean follow-up scrub finds nothing.
	reports, err = ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Damaged() {
		t.Errorf("repaired segment still reports damage: %+v", reports[0])
	}
}

func TestScrubDirLeavesTornTail(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 3)
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, full[:ends[2]-3], 0o644); err != nil {
		t.Fatal(err)
	}
	reports, err := ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].TornTail || reports[0].Repaired {
		t.Fatalf("torn tail handled wrong: %+v", reports[0])
	}
	if reports[0].Records != 2 {
		t.Errorf("records = %d, want 2", reports[0].Records)
	}
}

func TestScrubDirRespectsCheckpoint(t *testing.T) {
	dir, segPath, ends := buildJournal(t, 6)
	seq, _ := parseSegmentName(filepath.Base(segPath))
	// Checkpoint covering the first four records; damage before its
	// offset must not be repaired (replay-from-checkpoint would land
	// mid-record after the shift).
	if _, err := SaveCheckpoint(dir, Position{Seg: seq, Off: ends[3]}, time.Now(), "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	flipPayloadByte(t, segPath, ends, 1)
	reports, err := ScrubDir(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	if reports[0].Repaired || !strings.Contains(reports[0].SkipReason, "checkpoint") {
		t.Fatalf("repair not skipped for checkpointed region: %+v", reports[0])
	}
	// Damage past the checkpoint offset is repairable.
	dir2, segPath2, ends2 := buildJournal(t, 6)
	seq2, _ := parseSegmentName(filepath.Base(segPath2))
	if _, err := SaveCheckpoint(dir2, Position{Seg: seq2, Off: ends2[1]}, time.Now(), "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	flipPayloadByte(t, segPath2, ends2, 4)
	reports, err = ScrubDir(dir2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reports[0].Repaired {
		t.Fatalf("repair skipped for post-checkpoint damage: %+v", reports[0])
	}
}

func TestJournalScrubRepairsSealedSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 4; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	sealedSeq := uint64(2)
	path := segmentPath(dir, sealedSeq)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+frameSize+1] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	// Without a PreRepair hook, un-checkpointed damage is only reported.
	sum, err := j.Scrub(ScrubConfig{MaxSegments: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Damaged) != 1 || sum.Damaged[0].Repaired {
		t.Fatalf("un-checkpointed damage was repaired: %+v", sum.Damaged)
	}

	// With the hook (the server's checkpoint-first contract), repair runs.
	var hookSeq uint64
	var hookUnchk bool
	sum, err = j.Scrub(ScrubConfig{MaxSegments: 10, PreRepair: func(seq uint64, unchk bool) error {
		hookSeq, hookUnchk = seq, unchk
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Damaged) != 1 || !sum.Damaged[0].Repaired {
		t.Fatalf("damage not repaired: %+v", sum.Damaged)
	}
	if hookSeq != sealedSeq || !hookUnchk {
		t.Errorf("hook saw seq %d unchk %v, want %d true", hookSeq, hookUnchk, sealedSeq)
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("quarantine missing: %v", err)
	}
	st := j.Stats()
	if st.ScrubRepairedSegments != 1 || st.ScrubLostRecords != 1 || st.ScrubQuarantined != 1 {
		t.Errorf("scrub stats = %+v", st)
	}
	if st.ScrubScans == 0 {
		t.Error("no scans counted")
	}

	// The journal stays usable and the damaged record is the only loss.
	if _, err := j.AppendBatch("vm", testSnaps("vm", 2, 3, 9)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got := 0
	stats, err := Replay(dir, Position{}, func(pos Position, rec Record) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated || len(stats.MissingSegments) != 0 {
		t.Errorf("replay after repair: %+v", stats)
	}
	if got != 4 { // 5 appended, 1 lost to the flipped frame
		t.Errorf("replayed %d records, want 4", got)
	}
}

func TestJournalScrubCursorCycles(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 5; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// 5 sealed segments; one-at-a-time passes must cover all of them
	// and wrap.
	for pass := 0; pass < 7; pass++ {
		if _, err := j.Scrub(ScrubConfig{}); err != nil {
			t.Fatal(err)
		}
	}
	if st := j.Stats(); st.ScrubScans != 7 {
		t.Errorf("scans = %d, want 7", st.ScrubScans)
	}
}

// TestJournalScrubSkipsPrunedSegment: a sealed segment that disappears
// between the scrub's snapshot of the segment list and its read (as
// retention pruning does) is skipped, not reported as an error or as
// damage.
func TestJournalScrubSkipsPrunedSegment(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(Config{Dir: dir, Fsync: FsyncNever, SegmentBytes: 1}) // rotate after every record
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i := 0; i < 3; i++ {
		if _, err := j.AppendBatch("vm", testSnaps("vm", 1, 2, float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Remove(segmentPath(dir, 1)); err != nil {
		t.Fatal(err)
	}
	sum, err := j.Scrub(ScrubConfig{MaxSegments: 10})
	if err != nil {
		t.Fatalf("scrub over a pruned segment: %v", err)
	}
	if len(sum.Damaged) != 0 {
		t.Errorf("pruned segment reported as damage: %+v", sum.Damaged)
	}
	if st := j.Stats(); st.ScrubRepairedSegments != 0 || st.ScrubQuarantined != 0 {
		t.Errorf("scrub repaired something: %+v", st)
	}
}
