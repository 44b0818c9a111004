package wal

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/seglog"
)

// Scrubbing proactively re-verifies sealed segments frame-by-frame, so
// latent corruption (bit rot, a bad sector, a partial page write that
// slipped past the rotation fsync) is found on the scrubber's schedule
// instead of at the next recovery, when the damaged record is the one
// replay needs. A damaged segment is repaired by copy-forward: the
// surviving frames are rewritten into a fresh file under the original
// name, and the damaged original is kept hard-linked as
// <segment>.corrupt for forensics — the same quarantine idiom the
// application store uses.
//
// Repair rewrites byte offsets after the first dropped frame, so it is
// only safe once no checkpoint still points into the damaged region;
// the live journal enforces that through ScrubConfig.PreRepair (the
// server checkpoints first), the offline ScrubDir by consulting the
// newest checkpoint on disk.

// ScrubReport describes one scanned segment.
type ScrubReport struct {
	// Seq is the segment sequence number.
	Seq uint64 `json:"seq"`
	// Path is the segment file path.
	Path string `json:"path"`
	// Records is the number of intact records in the segment.
	Records int `json:"records"`
	// BadFrames counts CRC-mismatched or undecodable frames whose
	// extent is still walkable — each one is a lost record the repair
	// drops.
	BadFrames int `json:"bad_frames,omitempty"`
	// FirstBadOff is the offset of the first bad frame (meaningful only
	// when BadFrames > 0).
	FirstBadOff int64 `json:"first_bad_off,omitempty"`
	// TornTail reports bytes at the end that do not form a walkable
	// frame (torn write, or a corrupted length field that makes the
	// remainder unwalkable). A torn tail is not repaired — replay
	// already stops cleanly at it, and TruncateAtCorruption exists for
	// operators who want it gone.
	TornTail bool `json:"torn_tail,omitempty"`
	// TornReason says what ended the walk when TornTail.
	TornReason string `json:"torn_reason,omitempty"`
	// Repaired reports that the segment was rewritten without its bad
	// frames.
	Repaired bool `json:"repaired,omitempty"`
	// SkipReason says why a damaged segment was not repaired.
	SkipReason string `json:"skip_reason,omitempty"`
	// Quarantined is the path of the preserved damaged original ("" if
	// no repair happened).
	Quarantined string `json:"quarantined,omitempty"`
	// OldSize and NewSize are the file sizes before and after repair
	// (equal when no repair happened).
	OldSize int64 `json:"old_size"`
	NewSize int64 `json:"new_size"`
}

// Damaged reports whether the scan found anything wrong at all.
func (r ScrubReport) Damaged() bool { return r.BadFrames > 0 || r.TornTail }

// frameSpan is one extent of a segment file a repair copies forward.
type frameSpan struct {
	off int64
	n   int64
}

// scrubSegment walks every frame of the segment at path, stepping over
// bad frames: a frame whose CRC mismatches but whose extent still fits
// the file is counted bad and skipped, so one flipped bit does not
// hide the records behind it. A frame whose length field is
// implausible or runs past EOF ends the walk as a torn tail — the
// length cannot be trusted, so nothing after it can be located.
//
// Without full this is the live scrubber's fast path, cheap enough to
// run next to hot ingest: it checks CRCs without decoding payloads.
// CRC-valid frames whose payload would not decode are not flagged
// there (the encoder wrote them, so they cannot occur from bit rot);
// with full they count as bad too, and the extents worth keeping — the
// header and every intact frame — are returned for the repair.
func scrubSegment(path string, seq uint64, full bool) (ScrubReport, []frameSpan, error) {
	rep := ScrubReport{Seq: seq, Path: path}
	var info SegmentInfo
	f, sc, err := openSegmentFrames(path, 0, &info)
	rep.OldSize, rep.NewSize = info.Size, info.Size
	if err != nil || sc == nil {
		rep.TornTail, rep.TornReason = info.Torn, info.TornReason
		return rep, nil, err
	}
	defer f.Close()
	var spans []frameSpan
	if full {
		spans = append(spans, frameSpan{off: 0, n: info.ValidBytes})
	}
	for sc.Next() {
		ok := sc.OK()
		if ok && full {
			_, derr := decodePayload(sc.Payload())
			ok = derr == nil
		}
		if !ok {
			if rep.BadFrames == 0 {
				rep.FirstBadOff = sc.Off()
			}
			rep.BadFrames++
			continue
		}
		rep.Records++
		if full {
			spans = append(spans, frameSpan{off: sc.Off(), n: sc.End() - sc.Off()})
		}
	}
	if reason := sc.Torn(); reason != "" {
		rep.TornTail, rep.TornReason = true, reason
	}
	if err := sc.Err(); err != nil {
		return rep, nil, fmt.Errorf("wal: read segment %s: %w", path, err)
	}
	return rep, spans, nil
}

// repairSegmentFile rewrites the segment at path as just the given
// spans of itself. The damaged original is first preserved as
// path+".corrupt" through a hard link, then the repaired file is
// published over the original name. A crash anywhere leaves either the
// damaged original in place (re-detected next scrub) or the repaired
// file published; never a missing segment.
func repairSegmentFile(path string, spans []frameSpan) (int64, string, error) {
	src, err := os.Open(path)
	if err != nil {
		return 0, "", fmt.Errorf("wal: open %s: %w", path, err)
	}
	defer src.Close()
	quarantine, err := seglog.Quarantine(path, true)
	if err != nil {
		return 0, "", fmt.Errorf("wal: %w", err)
	}
	var size int64
	err = seglog.Publish(path, func(w io.Writer) error {
		for _, sp := range spans {
			if _, err := io.CopyN(w, io.NewSectionReader(src, sp.off, sp.n), sp.n); err != nil {
				return err
			}
			size += sp.n
		}
		return nil
	})
	if err != nil {
		os.Remove(quarantine)
		return 0, "", fmt.Errorf("wal: repair: %w", err)
	}
	return size, quarantine, nil
}

// ScrubConfig parameterizes one live-journal scrub pass.
type ScrubConfig struct {
	// MaxSegments caps how many sealed segments one call examines; the
	// journal keeps a cursor so successive calls cycle through all of
	// them. Zero means 1 — the low-rate default.
	MaxSegments int
	// PreRepair, when set, runs after damage is found and before the
	// repair rewrites the segment. uncheckpointed reports that the
	// segment holds records not yet covered by a checkpoint — the
	// caller must take one before the repair shifts offsets (the server
	// does exactly that). Returning an error skips the repair; the
	// damage is re-detected on a later pass.
	PreRepair func(seq uint64, uncheckpointed bool) error
}

// ScrubSummary aggregates one Scrub call.
type ScrubSummary struct {
	// Scanned is how many segments were examined.
	Scanned int
	// Damaged holds the report of every segment with damage, repaired
	// or not.
	Damaged []ScrubReport
}

// Scrub examines up to MaxSegments sealed segments for latent
// corruption, repairing damaged ones in place (quarantining the
// original as .corrupt). The scan runs off the journal lock — sealed
// segments are immutable — and only the repair's metadata swap holds
// it, so appends are not stalled. The active segment is never
// scrubbed.
func (j *Journal) Scrub(cfg ScrubConfig) (ScrubSummary, error) {
	max := cfg.MaxSegments
	if max <= 0 {
		max = 1
	}
	var sum ScrubSummary

	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return sum, fmt.Errorf("wal: journal is closed")
	}
	sealed := append([]closedSegment(nil), j.closed...)
	cursor := j.scrubNext
	j.mu.Unlock()
	if len(sealed) == 0 {
		return sum, nil
	}

	// Pick the next run of segments at or after the cursor, wrapping.
	start := 0
	for start < len(sealed) && sealed[start].seq < cursor {
		start++
	}
	if start == len(sealed) {
		start = 0
	}
	picks := sealed[start:]
	if len(picks) > max {
		picks = picks[:max]
	}

	var firstErr error
	for _, seg := range picks {
		quick, _, err := scrubSegment(segmentPath(j.cfg.Dir, seg.seq), seg.seq, false)
		j.mu.Lock()
		j.stats.ScrubScans++
		j.mu.Unlock()
		if err != nil {
			// The segment may have been pruned between the snapshot and
			// the read; that is not damage.
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !quick.Damaged() {
			continue
		}
		// Damage confirmed: now pay for the materializing scan, which
		// also re-checks payload decodability and yields the intact
		// spans the repair copies forward.
		rep, spans, err := scrubSegment(segmentPath(j.cfg.Dir, seg.seq), seg.seq, true)
		if err != nil {
			if errors.Is(err, fs.ErrNotExist) {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !rep.Damaged() {
			continue
		}
		if rep.BadFrames == 0 {
			// Torn tail only: report, never rewrite (see ScrubReport).
			rep.SkipReason = "torn tail is not repaired"
			sum.Damaged = append(sum.Damaged, rep)
			j.cfg.Logf("wal: scrub found torn tail in sealed segment %d: %s", rep.Seq, rep.TornReason)
			continue
		}
		j.cfg.Logf("wal: scrub found %d bad frame(s) in sealed segment %d (first at offset %d)",
			rep.BadFrames, rep.Seq, rep.FirstBadOff)
		j.mu.Lock()
		uncheckpointed := !j.retainSet || seg.seq >= j.retainSeg
		j.mu.Unlock()
		if cfg.PreRepair != nil {
			if err := cfg.PreRepair(seg.seq, uncheckpointed); err != nil {
				rep.SkipReason = fmt.Sprintf("pre-repair hook: %v", err)
				sum.Damaged = append(sum.Damaged, rep)
				j.cfg.Logf("wal: scrub skipping repair of segment %d: %v", seg.seq, err)
				continue
			}
		} else if uncheckpointed {
			rep.SkipReason = "segment holds un-checkpointed records and no PreRepair hook is set"
			sum.Damaged = append(sum.Damaged, rep)
			j.cfg.Logf("wal: scrub skipping repair of un-checkpointed segment %d", seg.seq)
			continue
		}
		// The swap holds j.mu so retention cannot prune the segment out
		// from under the rename.
		j.mu.Lock()
		idx := -1
		for i := range j.closed {
			if j.closed[i].seq == seg.seq {
				idx = i
				break
			}
		}
		if idx < 0 {
			j.mu.Unlock()
			continue // pruned while we scanned
		}
		newSize, quarantine, rerr := repairSegmentFile(segmentPath(j.cfg.Dir, seg.seq), spans)
		if rerr != nil {
			j.mu.Unlock()
			if firstErr == nil {
				firstErr = rerr
			}
			rep.SkipReason = fmt.Sprintf("repair failed: %v", rerr)
			sum.Damaged = append(sum.Damaged, rep)
			continue
		}
		j.closed[idx].size = newSize
		j.stats.ScrubRepairedSegments++
		j.stats.ScrubLostRecords += int64(rep.BadFrames)
		j.stats.ScrubQuarantined++
		j.mu.Unlock()
		rep.Repaired = true
		rep.Quarantined = quarantine
		rep.NewSize = newSize
		sum.Damaged = append(sum.Damaged, rep)
		j.cfg.Logf("wal: scrub repaired segment %d: dropped %d bad frame(s), kept %d record(s), quarantined original as %s",
			rep.Seq, rep.BadFrames, rep.Records, filepath.Base(quarantine))
	}
	sum.Scanned = len(picks)

	j.mu.Lock()
	j.scrubNext = picks[len(picks)-1].seq + 1
	j.mu.Unlock()
	return sum, firstErr
}

// ScrubDir scrubs every segment in a journal directory offline (the
// daemon must not have it open). With repair set, damaged segments are
// rewritten without their bad frames and the originals quarantined as
// .corrupt — except where the newest checkpoint still points into the
// region a repair would shift, which is reported and skipped. Without
// repair it is a pure report.
func ScrubDir(dir string, repair bool) ([]ScrubReport, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	cp, err := LatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	var out []ScrubReport
	for _, seg := range segs {
		rep, spans, err := scrubSegment(segmentPath(dir, seg.seq), seg.seq, true)
		if err != nil {
			return out, err
		}
		switch {
		case rep.BadFrames > 0 && !repair:
			rep.SkipReason = "repair not requested"
		case rep.BadFrames > 0 && cp != nil && seg.seq == cp.Pos.Seg && rep.FirstBadOff < cp.Pos.Off:
			rep.SkipReason = fmt.Sprintf("newest checkpoint replays from offset %d, past the first bad frame at %d", cp.Pos.Off, rep.FirstBadOff)
		case rep.BadFrames > 0:
			newSize, quarantine, rerr := repairSegmentFile(rep.Path, spans)
			if rerr != nil {
				return out, rerr
			}
			rep.Repaired = true
			rep.Quarantined = quarantine
			rep.NewSize = newSize
		case rep.TornTail:
			rep.SkipReason = "torn tail is not repaired"
		}
		out = append(out, rep)
	}
	return out, nil
}
