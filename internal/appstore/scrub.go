package appstore

import (
	"fmt"
	"os"
	"sort"

	"repro/internal/seglog"
)

// Scrubbing re-verifies closed segments frame-by-frame so latent
// corruption is found on the scrubber's schedule instead of at the
// read that needed the record. A damaged segment is repaired with the
// compaction machinery run against a single victim: surviving live
// records are copied forward into a fresh segment, and the damaged
// original is renamed to <segment>.corrupt — the same quarantine idiom
// load() applies to unreadable headers — instead of deleted, so the
// rotten bytes stay available for inspection. Only the records inside
// damaged frames are lost; everything else survives the repair. A
// crash anywhere mid-repair is safe for the same reason compaction is:
// before the rename the fresh segment is an invisible temp file, after
// it duplicated sequence numbers are resolved at open.

// ScrubReport describes one damaged segment found by Scrub.
type ScrubReport struct {
	// Seg is the segment number.
	Seg uint64 `json:"seg"`
	// BadFrames counts frames whose bytes no longer match their CRC.
	BadFrames int `json:"bad_frames"`
	// LostRecords counts live records inside those frames — the
	// records the repair could not save.
	LostRecords int `json:"lost_records"`
	// Repaired reports that the segment was rewritten without the
	// damage.
	Repaired bool `json:"repaired,omitempty"`
	// SkipReason says why a damaged segment was left alone.
	SkipReason string `json:"skip_reason,omitempty"`
	// Quarantined is the path the damaged original was preserved at.
	Quarantined string `json:"quarantined,omitempty"`
}

// ScrubSummary aggregates one Scrub call.
type ScrubSummary struct {
	// Scanned is how many segments were examined.
	Scanned int
	// Damaged holds a report per damaged segment.
	Damaged []ScrubReport
}

// Scrub examines up to maxSegments closed segments (0 means 1),
// verifying every indexed frame against its checksum, and repairs any
// damage it finds. A cursor persists across calls so successive
// low-rate passes cycle the whole store. The verification reads run
// off the store locks — closed segments are immutable — and only the
// repair itself takes the write lock.
func (s *Store) Scrub(maxSegments int) (ScrubSummary, error) {
	if maxSegments <= 0 {
		maxSegments = 1
	}
	var sum ScrubSummary

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return sum, fmt.Errorf("appstore: store is closed")
	}
	var nos []uint64
	for no := range s.segs {
		if no != s.seg {
			nos = append(nos, no)
		}
	}
	cursor := s.scrubNext
	s.mu.RUnlock()
	if len(nos) == 0 {
		return sum, nil
	}
	sort.Slice(nos, func(a, b int) bool { return nos[a] < nos[b] })
	picks := seglog.RoundRobin(nos, func(no uint64) uint64 { return no }, cursor, maxSegments)

	var firstErr error
	for _, no := range picks {
		rep, err := s.scrubSegment(no)
		if err != nil && firstErr == nil {
			firstErr = err
		}
		if rep != nil {
			sum.Damaged = append(sum.Damaged, *rep)
		}
	}
	sum.Scanned = len(picks)

	s.mu.Lock()
	s.stats.ScrubScans += int64(len(picks))
	s.scrubNext = picks[len(picks)-1] + 1
	s.mu.Unlock()
	return sum, firstErr
}

// scrubSegment verifies one closed segment and repairs it when
// damaged, returning a report only when damage was found.
func (s *Store) scrubSegment(no uint64) (*ScrubReport, error) {
	data, err := os.ReadFile(segName.Path(s.dir, no))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil // compacted away between snapshot and read
		}
		return nil, fmt.Errorf("appstore: scrub read segment %d: %w", no, err)
	}

	// Snapshot the segment's indexed frame extents, then verify them
	// against the raw bytes without holding any lock.
	type ext struct {
		seq  uint64
		off  int64
		n    int64
		dead bool
	}
	s.mu.RLock()
	var exts []ext
	for i := range s.entries {
		if e := &s.entries[i]; e.seg == no {
			exts = append(exts, ext{seq: e.seq, off: e.off, n: e.n, dead: e.dead})
		}
	}
	s.mu.RUnlock()

	badSeqs := make(map[uint64]bool)
	rep := &ScrubReport{Seg: no}
	for _, x := range exts {
		ok := x.off >= 0 && x.off+x.n <= int64(len(data))
		if ok {
			_, rest, err := seglog.Split(data[x.off:x.off+x.n], maxPayload)
			ok = err == nil && len(rest) == 0
		}
		if !ok {
			badSeqs[x.seq] = true
			rep.BadFrames++
			if !x.dead {
				rep.LostRecords++
			}
		}
	}
	if rep.BadFrames == 0 {
		return nil, nil
	}
	s.opt.Logf("appstore: scrub found %d bad frame(s) in segment %d (%d live record(s) lost)",
		rep.BadFrames, no, rep.LostRecords)

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.repairScrubLocked(no, badSeqs, rep); err != nil {
		rep.SkipReason = fmt.Sprintf("repair failed: %v", err)
		return rep, err
	}
	return rep, nil
}

// repairScrubLocked rewrites segment no without its damaged frames —
// compaction's copy-forward against a single victim, with the victim
// quarantined rather than deleted. Caller holds the write lock.
func (s *Store) repairScrubLocked(no uint64, badSeqs map[uint64]bool, rep *ScrubReport) error {
	if s.segs[no] == nil || no == s.seg {
		rep.SkipReason = "segment vanished before repair"
		return nil
	}
	// Damaged live records are unreadable; tombstone them so the copy
	// skips them and readers stop being offered them.
	for i := range s.entries {
		e := &s.entries[i]
		if e.seg == no && badSeqs[e.seq] && !e.dead {
			s.markDeadLocked(e)
		}
	}
	copies, _, err := s.copyForwardLocked(map[uint64]bool{no: true}, true)
	if err != nil {
		return err
	}
	s.stats.ScrubRepairedSegments++
	s.stats.ScrubLostRecords += int64(rep.LostRecords)
	s.stats.ScrubQuarantined++
	rep.Repaired = true
	rep.Quarantined = segName.Path(s.dir, no) + seglog.QuarantineSuffix
	s.opt.Logf("appstore: scrub repaired segment %d: quarantined original, carried %d live record(s), lost %d to damage",
		no, copies, rep.LostRecords)
	return s.persistTombstonesLocked()
}
