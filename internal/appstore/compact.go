package appstore

import (
	"fmt"
	"io"
	"os"

	"repro/internal/seglog"
)

// Prune keeps at most keep most-recent records per application,
// returning the number of records dropped — the same contract as the
// in-memory engine. An explicit Prune is an operator decision, so the
// retention floor does not apply. A keep of zero or less removes
// nothing.
func (s *Store) Prune(keep int) (int, error) {
	if keep <= 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, fmt.Errorf("appstore: store is closed")
	}
	dropped := 0
	for _, idxs := range s.byApp {
		live := 0
		for _, i := range idxs {
			if !s.entries[i].dead {
				live++
			}
		}
		excess := live - keep
		for _, i := range idxs {
			if excess <= 0 {
				break
			}
			if e := &s.entries[i]; !e.dead {
				s.markDeadLocked(e)
				dropped++
				excess--
			}
		}
	}
	if dropped == 0 {
		return 0, nil
	}
	s.stats.PrunedRecords += int64(dropped)
	if err := s.persistTombstonesLocked(); err != nil {
		return dropped, err
	}
	return dropped, s.compactLocked()
}

// markDeadLocked tombstones e in the index. It is the one place Prune,
// retention and scrub repair kill a record, so it also keeps the
// fingerprint dictionary current.
func (s *Store) markDeadLocked(e *entry) {
	s.dictKillLocked(e)
	e.dead = true
	s.segs[e.seg].live--
	s.segs[e.seg].dead++
}

// maybeRetainLocked applies the retention policy — expire by age, then
// cap total bytes — marking victims dead and compacting. The pruning
// floor protects every application's newest records and its newest
// fingerprinted record (the dictionary entry), so the fingerprint
// dictionary and the per-application retraining reservoirs never lose
// records still referenced. Called on segment rotation; errors are
// logged, not returned, because retention must never fail an append.
func (s *Store) maybeRetainLocked() {
	if s.opt.RetainAge <= 0 && s.opt.MaxBytes <= 0 {
		return
	}
	floor := s.opt.PruneFloor
	if floor < 0 {
		floor = 0
	}
	protected := make(map[int]bool)
	for _, idxs := range s.byApp {
		kept := 0
		fpSeen := false
		for i := len(idxs) - 1; i >= 0; i-- {
			e := &s.entries[idxs[i]]
			if e.dead {
				continue
			}
			if kept < floor {
				protected[idxs[i]] = true
				kept++
			}
			if !fpSeen && e.hasFP {
				protected[idxs[i]] = true
				fpSeen = true
			}
		}
	}
	marked := 0
	if s.opt.RetainAge > 0 {
		cutoff := s.opt.Now().Add(-s.opt.RetainAge).UnixNano()
		for i := range s.entries {
			e := &s.entries[i]
			// Records without a finalize stamp have unknown age; keep them.
			if !e.dead && !protected[i] && e.at > 0 && e.at < cutoff {
				s.markDeadLocked(e)
				marked++
			}
		}
	}
	if s.opt.MaxBytes > 0 {
		var total, deadBytes int64
		for _, info := range s.segs {
			total += info.size
		}
		for i := range s.entries {
			if s.entries[i].dead {
				deadBytes += s.entries[i].n
			}
		}
		// Oldest-first until the live remainder fits the cap.
		for i := range s.entries {
			if total-deadBytes <= s.opt.MaxBytes {
				break
			}
			e := &s.entries[i]
			if e.dead || protected[i] {
				continue
			}
			s.markDeadLocked(e)
			deadBytes += e.n
			marked++
		}
	}
	if marked == 0 {
		return
	}
	s.stats.PrunedRecords += int64(marked)
	s.opt.Logf("appstore: retention marked %d record(s) for removal", marked)
	if err := s.persistTombstonesLocked(); err != nil {
		s.opt.Logf("appstore: persist tombstones: %v", err)
		return
	}
	if err := s.compactLocked(); err != nil {
		s.opt.Logf("appstore: compaction: %v", err)
	}
}

// Compact rewrites closed segments that carry dead records, physically
// dropping them.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("appstore: store is closed")
	}
	return s.compactLocked()
}

// compactLocked rewrites every closed segment that carries dead
// records without them (see copyForwardLocked), deleting the victims.
func (s *Store) compactLocked() error {
	victims := make(map[uint64]bool)
	for no, info := range s.segs {
		if no != s.seg && info.dead > 0 {
			victims[no] = true
		}
	}
	if len(victims) == 0 {
		return nil
	}
	copies, removed, err := s.copyForwardLocked(victims, false)
	if err != nil {
		return err
	}
	s.stats.Compactions++
	s.opt.Logf("appstore: compacted %d segment(s): dropped %d dead record(s), carried %d live", len(victims), removed, copies)
	return s.persistTombstonesLocked()
}

// copyForwardLocked copies the live records of the victim segments into
// one fresh segment — raw frame bytes, since payloads are immutable —
// published atomically, then removes the victims: deleted, or with
// quarantine moved aside as <segment>.corrupt. The index is repointed
// at the copies and the victims' dead records dropped. A crash anywhere
// is safe: before the publish the new segment is an invisible temp
// file (swept at open); after it, records present both there and in a
// surviving victim are deduplicated by sequence number at open. It
// returns how many live records were carried and dead ones dropped.
// Caller holds the write lock.
func (s *Store) copyForwardLocked(victims map[uint64]bool, quarantine bool) (copies, removed int, err error) {
	for no := range victims {
		copies += s.segs[no].live
	}
	var newSeg uint64
	newOff := make(map[uint64]int64) // seq -> offset in the new segment
	if copies > 0 {
		newSeg = s.nextSegNoLocked()
		var size int64
		err = seglog.Publish(segName.Path(s.dir, newSeg), func(w io.Writer) error {
			hdr := seglog.AppendHeader(nil, segMagic, segVersion)
			if _, err := w.Write(hdr); err != nil {
				return err
			}
			size = int64(len(hdr))
			for i := range s.entries {
				e := &s.entries[i]
				if e.dead || !victims[e.seg] {
					continue
				}
				rd, err := s.readHandle(e.seg, s.segs[e.seg])
				if err != nil {
					return err
				}
				if _, err := io.CopyN(w, io.NewSectionReader(rd, e.off, e.n), e.n); err != nil {
					return fmt.Errorf("copy record %d: %w", e.seq, err)
				}
				newOff[e.seq] = size
				size += e.n
			}
			return nil
		})
		if err != nil {
			return 0, 0, fmt.Errorf("appstore: write segment %d: %w", newSeg, err)
		}
		s.segs[newSeg] = &segInfo{size: size}
	}
	// The new segment is durable; removing the victims is now safe (a
	// crash mid-removal leaves duplicates, deduplicated by seq at open).
	for no := range victims {
		if rd := s.segs[no].rd; rd != nil {
			rd.Close()
		}
		path := segName.Path(s.dir, no)
		if quarantine {
			if _, err := seglog.Quarantine(path, false); err != nil {
				return 0, 0, fmt.Errorf("appstore: %w", err)
			}
		} else if err := os.Remove(path); err != nil {
			s.opt.Logf("appstore: delete compacted segment %d: %v", no, err)
		}
		delete(s.segs, no)
	}
	if err := seglog.SyncDir(s.dir); err != nil {
		return 0, 0, fmt.Errorf("appstore: %w", err)
	}
	kept := s.entries[:0]
	for i := range s.entries {
		e := s.entries[i]
		if victims[e.seg] {
			if e.dead {
				removed++
				continue
			}
			e.seg = newSeg
			e.off = newOff[e.seq]
		}
		kept = append(kept, e)
	}
	s.entries = kept
	s.rebuildIndexLocked()
	if copies > 0 {
		s.segs[newSeg].live = copies
	}
	s.stats.DroppedRecords += int64(removed)
	return copies, removed, nil
}
