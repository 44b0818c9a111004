package wal

import (
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/seglog"
)

// SegmentInfo describes one scanned segment file.
type SegmentInfo struct {
	// Seq is the segment sequence number.
	Seq uint64
	// Path is the segment file path.
	Path string
	// Size is the file size on disk.
	Size int64
	// Records is the number of valid records scanned.
	Records int
	// ValidBytes is the offset just past the last valid record (at
	// least the header size for a well-headed segment); truncating the
	// file here discards exactly the torn tail.
	ValidBytes int64
	// Torn reports whether the segment ends in bytes that do not form a
	// complete valid record — the signature of a crash mid-write or of
	// on-disk corruption.
	Torn bool
	// TornReason says what the scanner hit when Torn (short frame,
	// CRC mismatch, bad header, ...).
	TornReason string
	// Version is the segment's on-disk format version.
	Version uint32
	// ModelHash is the hex model compatibility hash from the segment
	// header; empty for version-1 segments, which predate model
	// stamping.
	ModelHash string
}

// ReplayStats summarizes one Replay pass.
type ReplayStats struct {
	// Segments is how many segment files were scanned.
	Segments int
	// Records is how many valid records were delivered.
	Records int
	// Snapshots is the total snapshot count across delivered batches.
	Snapshots int
	// Truncated reports that a segment ended in a torn or corrupt
	// record; replay stopped cleanly at the last valid record.
	Truncated bool
	// TruncatedAt is where scanning stopped when Truncated.
	TruncatedAt Position
	// MissingSegments lists sequence numbers that should exist between
	// the replay start and the newest segment but are not on disk —
	// records in them are gone (retention pruned past a checkpoint, or
	// files were deleted out of band). Replay still delivers what
	// remains; callers must surface the gap loudly, because the stream
	// is no longer contiguous.
	MissingSegments []uint64
}

// Replay scans the journal directory from position `from`, decoding
// every valid record in order and passing it to fn along with the
// position just past it (the value to store in a checkpoint covering
// the record). Scanning a segment stops cleanly at the first torn or
// corrupt record: the partial record is dropped, no error is returned,
// and ReplayStats.Truncated is set. A torn record in a non-final
// segment also stops the whole replay — later records cannot be
// trusted to belong to the stream — which Replay reports the same way.
// fn returning an error aborts the replay with that error.
func Replay(dir string, from Position, fn func(pos Position, rec Record) error) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		return stats, err
	}
	// Expected next sequence number, for gap detection. A checkpointed
	// start pins it to from.Seg — that segment must still exist. With no
	// checkpoint (from.Seg 0) the oldest surviving segment is the
	// legitimate start (retention may have pruned older ones), and only
	// gaps between surviving segments are reportable.
	expect := from.Seg
	for _, seg := range segs {
		if seg.seq < from.Seg {
			continue
		}
		if expect == 0 {
			expect = seg.seq
		}
		for ; expect < seg.seq; expect++ {
			stats.MissingSegments = append(stats.MissingSegments, expect)
		}
		expect = seg.seq + 1
		var startOff int64
		if seg.seq == from.Seg {
			startOff = from.Off
		}
		info, err := scanSegment(segmentName.Path(dir, seg.seq), seg.seq, startOff, func(end Position, rec Record) error {
			stats.Records++
			stats.Snapshots += len(rec.Snaps)
			return fn(end, rec)
		})
		if err != nil {
			return stats, err
		}
		stats.Segments++
		if info.Torn {
			stats.Truncated = true
			stats.TruncatedAt = Position{Seg: seg.seq, Off: info.ValidBytes}
			break
		}
	}
	return stats, nil
}

// ScanSegment scans one segment file, calling fn (when non-nil) for
// every valid record with the position just past it. It never returns
// an error for torn or corrupt data — that is reported in the
// SegmentInfo — only for I/O failures or a non-segment path.
func ScanSegment(path string, fn func(pos Position, rec Record) error) (SegmentInfo, error) {
	seq, ok := segmentName.Parse(filepath.Base(path))
	if !ok {
		return SegmentInfo{}, fmt.Errorf("wal: %s is not a journal segment", path)
	}
	return scanSegment(path, seq, 0, fn)
}

// scanSegment walks records from startOff (0 means just past the
// header, whose size depends on the segment's format version) to the
// first invalid frame or EOF.
func scanSegment(path string, seq uint64, startOff int64, fn func(pos Position, rec Record) error) (SegmentInfo, error) {
	info := SegmentInfo{Seq: seq, Path: path}
	f, sc, err := openSegmentFrames(path, startOff, &info)
	if err != nil || sc == nil {
		return info, err
	}
	defer f.Close()
	for sc.Next() {
		if !sc.OK() {
			info.Torn, info.TornReason = true, fmt.Sprintf("CRC mismatch at offset %d", sc.Off())
			break
		}
		rec, err := decodePayload(sc.Payload())
		if err != nil {
			info.Torn, info.TornReason = true, fmt.Sprintf("undecodable record at offset %d: %v", sc.Off(), err)
			break
		}
		info.Records++
		if fn != nil {
			if err := fn(Position{Seg: seq, Off: sc.End()}, rec); err != nil {
				info.ValidBytes = sc.End()
				return info, err
			}
		}
	}
	info.ValidBytes = sc.Valid()
	if reason := sc.Torn(); reason != "" {
		info.Torn, info.TornReason = true, reason
	}
	if err := sc.Err(); err != nil {
		return info, fmt.Errorf("wal: read segment %s: %w", path, err)
	}
	return info, nil
}

// openSegmentFrames opens the segment at path, validates its header
// into info and returns the open file (the caller closes it) with a
// frame scanner positioned at startOff, or just past the header when
// startOff is smaller. An unusable header sets info.Torn and returns
// no file or scanner.
func openSegmentFrames(path string, startOff int64, info *SegmentInfo) (*os.File, *seglog.Scanner, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open segment %s: %w", path, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: stat segment %s: %w", path, err)
	}
	info.Size = st.Size()
	off := readSegmentHeader(f, info)
	if info.Torn {
		f.Close()
		return nil, nil, nil
	}
	if startOff > off {
		if _, err := f.Seek(startOff, io.SeekStart); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("wal: seek segment %s: %w", path, err)
		}
		off = startOff
	}
	info.ValidBytes = off
	return f, seglog.NewScanner(f, off, info.Size, maxPayload), nil
}

// readSegmentHeader validates a segment's header, filling the info's
// Version/ModelHash, and returns the header size (where records start).
// A torn or unsupported header is reported via info.Torn with
// ValidBytes 0, never as an error.
func readSegmentHeader(r io.Reader, info *SegmentInfo) int64 {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:headerPrefixSize]); err != nil {
		info.Torn, info.TornReason = true, "short segment header"
		return 0
	}
	v, err := seglog.ParseHeader(hdr[:], segmentMagic)
	if err != nil {
		info.Torn, info.TornReason = true, err.Error()
		return 0
	}
	info.Version = v
	switch v {
	case segmentVersionV1:
		// Pre-model-hash format: records start right after the prefix.
		return headerPrefixSize
	case segmentVersion:
		if _, err := io.ReadFull(r, hdr[headerPrefixSize:]); err != nil {
			info.Torn, info.TornReason = true, "short segment header"
			return 0
		}
		info.ModelHash = hex.EncodeToString(hdr[headerPrefixSize:])
		return headerSize
	}
	info.Torn, info.TornReason = true, fmt.Sprintf("unsupported segment version %d", v)
	return 0
}

// VerifyDir scans every segment in dir and returns their infos, oldest
// first.
func VerifyDir(dir string) ([]SegmentInfo, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := make([]SegmentInfo, 0, len(segs))
	for _, seg := range segs {
		info, err := scanSegment(segmentName.Path(dir, seg.seq), seg.seq, 0, nil)
		if err != nil {
			return out, err
		}
		out = append(out, info)
	}
	return out, nil
}

// SegmentHashes reads only the headers of every segment with seq >=
// from and returns seq → hex model hash ("" for version-1 segments).
// Torn-headed segments are skipped — they carry no replayable records.
// Recovery uses this to refuse replaying records written under a model
// other than the one it loaded.
func SegmentHashes(dir string, from uint64) (map[uint64]string, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	out := make(map[uint64]string, len(segs))
	for _, seg := range segs {
		if seg.seq < from {
			continue
		}
		path := segmentName.Path(dir, seg.seq)
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("wal: open segment %s: %w", path, err)
		}
		var info SegmentInfo
		readSegmentHeader(f, &info)
		f.Close()
		if info.Torn {
			continue
		}
		out[seg.seq] = info.ModelHash
	}
	return out, nil
}

// TruncateAtCorruption truncates every torn segment in dir at its last
// valid record boundary, dropping the partial tail so subsequent scans
// are clean. A segment with a bad header (ValidBytes == 0) is removed
// entirely. It returns the segments that were modified.
func TruncateAtCorruption(dir string) ([]SegmentInfo, error) {
	infos, err := VerifyDir(dir)
	if err != nil {
		return nil, err
	}
	var fixed []SegmentInfo
	for _, info := range infos {
		if !info.Torn {
			continue
		}
		if info.ValidBytes <= 0 {
			if err := os.Remove(info.Path); err != nil {
				return fixed, fmt.Errorf("wal: remove headerless segment %s: %w", info.Path, err)
			}
		} else if err := os.Truncate(info.Path, info.ValidBytes); err != nil {
			return fixed, fmt.Errorf("wal: truncate %s at %d: %w", info.Path, info.ValidBytes, err)
		}
		fixed = append(fixed, info)
	}
	return fixed, nil
}
