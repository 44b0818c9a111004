// Package wal implements the durable-ingest substrate of the
// classification daemon: an append-only, segment-rotated write-ahead
// journal of the profiler stream plus atomically written session
// checkpoints, so that recovery after a crash is "load the latest
// checkpoint, replay the journal tail". Records are internal/seglog
// frames, length-prefixed and CRC32C-protected; a torn write at the
// tail (the normal crash shape) is detected and replay stops cleanly at
// the last valid record.
package wal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/seglog"
)

// Policy selects when the journal calls fsync.
type Policy int

const (
	// FsyncInterval syncs from a background ticker (Config.FsyncEvery):
	// bounded data loss, near-zero append latency. The default.
	FsyncInterval Policy = iota
	// FsyncAlways makes every append durable before it returns: no
	// acknowledged record is ever lost. Appends are group-committed —
	// concurrently arriving records share one fsync, issued by the first
	// waiter outside the journal lock (see waitDurable) — so a lone
	// writer pays one fsync per append and concurrent writers amortize
	// it.
	FsyncAlways
	// FsyncNever leaves syncing to the operating system's writeback:
	// fastest, loses up to the dirty page cache on power failure (an
	// ordinary process crash loses nothing — the pages are already in
	// the kernel).
	FsyncNever
)

// ParsePolicy maps the appclassd -fsync flag values onto policies.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval":
		return FsyncInterval, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown fsync policy %q (want always, interval, or never)", s)
}

// String returns the flag spelling of the policy.
func (p Policy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncNever:
		return "never"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Position addresses a byte boundary in the journal: the segment
// sequence number and the offset within it. Append returns the position
// after the appended record; a checkpoint stores the position its state
// covers, and replay resumes from it.
type Position struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Less orders positions by segment, then offset.
func (p Position) Less(o Position) bool {
	if p.Seg != o.Seg {
		return p.Seg < o.Seg
	}
	return p.Off < o.Off
}

// Config parameterizes a journal.
type Config struct {
	// Dir is the journal directory (required; created if absent).
	Dir string
	// SegmentBytes rotates the active segment once it exceeds this many
	// bytes. Zero means 8 MiB.
	SegmentBytes int64
	// MaxBytes caps the total size of closed segments; once exceeded,
	// the oldest closed segments are deleted (observable via
	// Stats.TruncatedSegments). Zero means unlimited. The active segment
	// is never deleted.
	MaxBytes int64
	// Fsync selects the sync policy. The zero value is FsyncInterval.
	Fsync Policy
	// FsyncEvery is the FsyncInterval cadence. Zero means 1 second.
	FsyncEvery time.Duration
	// Now supplies wall-clock time; tests inject fake clocks. Nil means
	// time.Now.
	Now func() time.Time
	// Logf receives operational log lines. Nil discards them.
	Logf func(format string, args ...any)
	// OpenSegmentFile creates active segment files. Nil means os.OpenFile.
	// Fault-injection harnesses substitute an opener whose files fail
	// writes or fsyncs on command (transient ENOSPC being the canonical
	// scenario) to drive the daemon's degraded-durability path.
	OpenSegmentFile func(name string, flag int, perm os.FileMode) (SegmentFile, error)
}

// SegmentFile is the subset of *os.File the journal needs from its
// active segment. Production journals use real files; chaos tests
// substitute failing ones via Config.OpenSegmentFile.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// Stats is a point-in-time view of the journal's depth and activity,
// rendered as gauges in the daemon's /metricsz.
type Stats struct {
	// Segments counts segment files on disk, including the active one.
	Segments int
	// Bytes is the total size of all segments on disk.
	Bytes int64
	// ActiveSeg is the sequence number of the segment being appended to.
	ActiveSeg uint64
	// Appends counts records appended since Open.
	Appends int64
	// Syncs counts fsync calls since Open.
	Syncs int64
	// Rotations counts segment rotations since Open.
	Rotations int64
	// TruncatedSegments counts closed segments deleted by the MaxBytes
	// retention cap since Open — nonzero means the journal no longer
	// holds the full history since the last checkpoint.
	TruncatedSegments int64
	// LastSync is when the journal last fsynced (zero if never).
	LastSync time.Time
	// ScrubScans counts sealed segments examined by Scrub since Open.
	ScrubScans int64
	// ScrubRepairedSegments counts segments Scrub rewrote to drop
	// damaged frames.
	ScrubRepairedSegments int64
	// ScrubLostRecords counts records dropped with those frames — the
	// only records lost to the detected corruption.
	ScrubLostRecords int64
	// ScrubQuarantined counts damaged originals preserved as .corrupt.
	ScrubQuarantined int64
}

// closedSegment is one immutable, fully written segment on disk.
type closedSegment struct {
	seq  uint64
	size int64
}

// Journal is an append-only write-ahead log. It is safe for concurrent
// use; appends from many ingest goroutines serialize on one mutex, with
// the encoding done into a reused buffer so the fsync=never append path
// is allocation-free at steady state.
type Journal struct {
	cfg Config

	mu     sync.Mutex
	f      SegmentFile
	seq    uint64 // active segment sequence
	size   int64  // active segment size, including header
	closed []closedSegment
	buf    []byte // reused record encode buffer
	dirty  bool   // unsynced bytes in the active segment
	// syncedThrough is the append count covered by the last successful
	// sync. Closed segments are always synced before close, so one
	// successful syncLocked makes every append so far durable.
	syncedThrough int64
	stats         Stats
	done          bool
	// failed poisons the journal: set when a segment write failed and a
	// fresh segment could not be opened, so the file offset may no longer
	// match size and further appends would land after garbage bytes.
	failed error
	// retainSeg is the retention floor: prune never deletes a segment
	// with seq >= retainSeg, so every record at or after the newest
	// checkpoint's position survives the MaxBytes cap. Unset (retainSet
	// false) means no checkpoint has been seen and prune is unrestricted.
	retainSeg uint64
	retainSet bool
	// scrubNext is the scrub cursor: the next sealed segment sequence
	// Scrub examines, so successive low-rate passes cycle the journal.
	scrubNext uint64
	// modelHash is stamped into every segment header (see SetModelHash).
	modelHash [modelHashSize]byte

	// gc is the FsyncAlways group-commit ticket state (see
	// waitDurable): durable is the append count known to be on stable
	// storage, syncing marks the in-flight leader. Guarded by gc.mu,
	// never held together with j.mu — the leader drops gc.mu before
	// taking j.mu to sync, so appends keep flowing (and coalescing)
	// while the fsync is in flight.
	gc struct {
		mu      sync.Mutex
		cond    *sync.Cond
		syncing bool
		durable int64
	}

	stopc chan struct{}
	wg    sync.WaitGroup
}

// Open creates or opens a journal directory and starts a fresh active
// segment after any existing ones. Existing segments are never appended
// to (their tails may be torn from a previous crash); they remain
// readable for Replay until retention deletes them.
func Open(cfg Config) (*Journal, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("wal: empty journal directory")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 8 << 20
	}
	if cfg.FsyncEvery <= 0 {
		cfg.FsyncEvery = time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.OpenSegmentFile == nil {
		cfg.OpenSegmentFile = func(name string, flag int, perm os.FileMode) (SegmentFile, error) {
			return os.OpenFile(name, flag, perm)
		}
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create %s: %w", cfg.Dir, err)
	}
	sweepTemps(cfg.Dir, cfg.Logf)
	segs, err := listSegments(cfg.Dir)
	if err != nil {
		return nil, err
	}
	j := &Journal{cfg: cfg, stopc: make(chan struct{})}
	j.gc.cond = sync.NewCond(&j.gc.mu)
	next := uint64(1)
	for _, s := range segs {
		j.closed = append(j.closed, s)
		if s.seq >= next {
			next = s.seq + 1
		}
	}
	// Seed the retention floor from the newest checkpoint so MaxBytes
	// pruning never deletes segments the next recovery still needs.
	if cp, err := LatestCheckpoint(cfg.Dir); err != nil {
		return nil, err
	} else if cp != nil {
		j.retainSeg, j.retainSet = cp.Pos.Seg, true
	}
	if err := j.openSegment(next); err != nil {
		return nil, err
	}
	if cfg.Fsync == FsyncInterval {
		j.wg.Add(1)
		go j.syncLoop()
	}
	return j, nil
}

// Dir returns the journal directory.
func (j *Journal) Dir() string { return j.cfg.Dir }

// segmentName is the journal's segment file family:
// journal-00000001.wal, journal-00000002.wal, ...
var segmentName = seglog.Name{Prefix: "journal", Ext: "wal"}

// listSegments returns the existing segments in dir, oldest first.
func listSegments(dir string) ([]closedSegment, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: read %s: %w", dir, err)
	}
	var out []closedSegment
	for _, e := range entries {
		seq, ok := segmentName.Parse(e.Name())
		if !ok {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("wal: stat %s: %w", e.Name(), err)
		}
		out = append(out, closedSegment{seq: seq, size: info.Size()})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, nil
}

// sweepTemps deletes the temp files a crash mid-publish leaves next to
// segments and checkpoints — a half-written scrub repair or checkpoint
// never became visible, so nothing in it is lost — along with the
// <segment>.scrub repair temps of journals written before repairs went
// through seglog.Publish. Left in place they would hold disk forever,
// invisible to Stats.Bytes and the MaxBytes cap.
func sweepTemps(dir string, logf func(string, ...any)) {
	entries, _ := os.ReadDir(dir) // listSegments reports an unreadable directory
	for _, e := range entries {
		base, ok := seglog.TempBase(e.Name())
		if !ok {
			base, ok = strings.CutSuffix(e.Name(), ".scrub")
		}
		if !ok {
			continue
		}
		_, seg := segmentName.Parse(base)
		_, ckpt := checkpointName.Parse(base)
		if seg || ckpt {
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				logf("wal: remove stale temp file: %v", err)
			}
		}
	}
}

// openSegment creates and headers a new active segment. Caller holds
// j.mu (or is the constructor).
func (j *Journal) openSegment(seq uint64) error {
	path := segmentName.Path(j.cfg.Dir, seq)
	f, err := j.cfg.OpenSegmentFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	hdr := seglog.AppendHeader(make([]byte, 0, headerSize), segmentMagic, segmentVersion)
	if _, err := f.Write(append(hdr, j.modelHash[:]...)); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("wal: write segment header %s: %w", path, err)
	}
	j.f = f
	j.seq = seq
	j.size = headerSize
	j.dirty = true
	return nil
}

// ModelHash returns the model compatibility hash stamped into segment
// headers (all zero if never set).
func (j *Journal) ModelHash() [modelHashSize]byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.modelHash
}

// SetModelHash changes the model compatibility hash stamped into
// segment headers — the serving layer calls it at startup and on every
// hot swap. Because one segment never mixes models, a change rotates to
// a fresh segment immediately; if the active segment is still empty
// (the startup case) its header is rewritten in place instead, avoiding
// a zero-hash segment littering every journal directory. A no-op when
// the hash is unchanged.
func (j *Journal) SetModelHash(h [modelHashSize]byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if h == j.modelHash {
		return nil
	}
	j.modelHash = h
	if j.done || j.failed != nil {
		// No active segment to stamp; the next openSegment (Revive, or a
		// fresh Open) picks the hash up.
		return nil
	}
	if j.size == headerSize {
		// Empty active segment: replace it in place under the same
		// sequence number rather than burning a rotation.
		if err := j.f.Close(); err != nil {
			return fmt.Errorf("wal: close empty segment %d: %w", j.seq, err)
		}
		path := segmentName.Path(j.cfg.Dir, j.seq)
		if err := os.Remove(path); err != nil {
			return fmt.Errorf("wal: remove empty segment %s: %w", path, err)
		}
		return j.openSegment(j.seq)
	}
	return j.rotateLocked()
}

// AppendBatch appends one validated ingest batch for vm and returns the
// position after the record. Depending on the fsync policy the record
// is durable on return (always), within FsyncEvery (interval), or at
// the kernel's leisure (never).
func (j *Journal) AppendBatch(vm string, snaps []metrics.Snapshot) (Position, error) {
	return j.append(func(buf []byte) ([]byte, error) {
		return appendBatchPayload(buf, vm, snaps)
	})
}

// AppendBatchDeferred is AppendBatch for callers that make several
// appends per acknowledgement: the record is written (and any write
// error surfaces immediately), but under FsyncAlways the durability
// wait is deferred — the returned token must be passed to WaitDurable
// before the batch is acknowledged. Tokens are monotone, so a caller
// appending many records waits once on the largest. A zero token needs
// no wait (the record is already as durable as the policy promises).
func (j *Journal) AppendBatchDeferred(vm string, snaps []metrics.Snapshot) (Position, int64, error) {
	j.mu.Lock()
	pos, target, err := j.appendLocked(func(buf []byte) ([]byte, error) {
		return appendBatchPayload(buf, vm, snaps)
	})
	j.mu.Unlock()
	if err != nil {
		return Position{}, 0, err
	}
	return pos, target, nil
}

// WaitDurable blocks until every record appended at or before token
// (from AppendBatchDeferred) is on stable storage. Zero tokens return
// immediately.
func (j *Journal) WaitDurable(token int64) error {
	if token == 0 {
		return nil
	}
	return j.waitDurable(token)
}

// AppendFinalize appends a finalize marker for vm: replay stops feeding
// the VM's session and finalizes it instead.
func (j *Journal) AppendFinalize(vm string) (Position, error) {
	return j.append(func(buf []byte) ([]byte, error) {
		return appendFinalizePayload(buf, vm)
	})
}

// append frames and writes one record payload produced by encode. The
// write happens under j.mu but any fsync wait happens outside it, so
// concurrent FsyncAlways appenders stack their records behind one
// fsync instead of each paying their own.
func (j *Journal) append(encode func([]byte) ([]byte, error)) (Position, error) {
	j.mu.Lock()
	pos, target, err := j.appendLocked(encode)
	j.mu.Unlock()
	if err != nil || target == 0 {
		return pos, err
	}
	if err := j.waitDurable(target); err != nil {
		return Position{}, err
	}
	return pos, nil
}

// appendLocked does the encode + write under j.mu. A nonzero target
// means the record still needs an fsync covering append count target
// (waitDurable) before it may be acknowledged. Caller holds j.mu.
func (j *Journal) appendLocked(encode func([]byte) ([]byte, error)) (pos Position, target int64, err error) {
	if j.done {
		return Position{}, 0, fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return Position{}, 0, j.failed
	}
	// Frame placeholder first so payload bytes land at their final
	// offset in the shared buffer and one Write emits the whole record.
	buf, _ := seglog.Begin(j.buf[:0])
	buf, err = encode(buf)
	if err != nil {
		return Position{}, 0, err
	}
	if n := len(buf) - frameSize; n > maxPayload {
		return Position{}, 0, fmt.Errorf("wal: record payload %d bytes exceeds cap %d", n, maxPayload)
	}
	seglog.Seal(buf, 0)
	j.buf = buf
	if _, err := j.f.Write(buf); err != nil {
		// A failed (possibly partial) write leaves the file offset ahead
		// of j.size — the segments are not O_APPEND — so continuing to
		// append here would land records after garbage bytes and replay
		// would stop at the corruption, losing acknowledged records.
		// Abandon the segment for a fresh one; if even that fails, poison
		// the journal so every later append fails fast instead of
		// corrupting the stream.
		if aerr := j.abandonSegmentLocked(); aerr != nil {
			j.failed = fmt.Errorf("wal: journal poisoned by failed append to segment %d: %w", j.seq, aerr)
			j.cfg.Logf("%v", j.failed)
		}
		return Position{}, 0, fmt.Errorf("wal: append to segment %d: %w", j.seq, err)
	}
	j.size += int64(len(buf))
	j.dirty = true
	j.stats.Appends++
	if j.cfg.Fsync == FsyncAlways {
		// The fsync is deferred to waitDurable, outside j.mu: the record
		// must not be acknowledged until the durable append count
		// reaches what it is now.
		target = j.stats.Appends
	}
	pos = Position{Seg: j.seq, Off: j.size}
	if j.size >= j.cfg.SegmentBytes {
		// Rotation syncs the outgoing segment before closing it, so a
		// record that triggers rotation is already durable; the later
		// waitDurable no-ops via the dirty check.
		if err := j.rotateLocked(); err != nil {
			return Position{}, 0, err
		}
	}
	return pos, target, nil
}

// waitDurable blocks until the journal's durable append count covers
// target, electing the calling goroutine fsync leader if nobody is
// syncing: the leader captures the segment file and append count under
// j.mu, then fsyncs OUTSIDE both locks — so appends keep flowing into
// the segment while the disk works, stacking behind the next fsync
// instead of each paying their own. A follower whose leader failed
// self-elects and surfaces its own error, so every failed append
// reports its own fsync failure.
func (j *Journal) waitDurable(target int64) error {
	gc := &j.gc
	gc.mu.Lock()
	for {
		if gc.durable >= target {
			gc.mu.Unlock()
			return nil
		}
		if !gc.syncing {
			break
		}
		gc.cond.Wait()
	}
	gc.syncing = true
	gc.mu.Unlock()

	j.mu.Lock()
	var (
		synced int64
		seq    uint64
		f      SegmentFile
		err    error
	)
	switch {
	case j.done:
		err = fmt.Errorf("wal: journal is closed")
	case j.failed != nil:
		err = j.failed
	case !j.dirty:
		// Nothing unsynced anywhere (rotation syncs outgoing segments
		// before closing them), so every append so far is durable.
		synced = j.stats.Appends
		j.syncedThrough = synced
	default:
		synced, seq, f = j.stats.Appends, j.seq, j.f
	}
	j.mu.Unlock()

	if f != nil {
		serr := f.Sync()
		j.mu.Lock()
		switch {
		case serr == nil:
			j.stats.Syncs++
			j.stats.LastSync = j.cfg.Now()
			if synced > j.syncedThrough {
				j.syncedThrough = synced
			}
			// Appends that landed while the fsync was in flight are not
			// covered; the segment stays dirty for the next leader.
			if j.seq == seq && j.stats.Appends == synced {
				j.dirty = false
			}
		case j.syncedThrough >= synced:
			// The segment rotated away mid-fsync and its close raced our
			// Sync; the rotation's own sync already covered every record
			// in this group, so the error is moot.
		default:
			err = fmt.Errorf("wal: fsync segment %d: %w", seq, serr)
		}
		j.mu.Unlock()
	}

	gc.mu.Lock()
	gc.syncing = false
	if err == nil && synced > gc.durable {
		gc.durable = synced
	}
	gc.cond.Broadcast()
	gc.mu.Unlock()
	return err
}

// abandonSegmentLocked retires an active segment whose tail is suspect
// after a failed write: the valid prefix is synced and closed
// best-effort (its records up to j.size replay fine; the garbage tail
// is dropped like any torn tail), and a fresh segment takes over so
// later appends start at a known-good offset. Caller holds j.mu.
func (j *Journal) abandonSegmentLocked() error {
	if j.dirty {
		if err := j.f.Sync(); err != nil {
			j.cfg.Logf("wal: sync abandoned segment %d: %v", j.seq, err)
		} else {
			j.dirty = false
			j.stats.Syncs++
			j.stats.LastSync = j.cfg.Now()
		}
	}
	if err := j.f.Close(); err != nil {
		j.cfg.Logf("wal: close abandoned segment %d: %v", j.seq, err)
	}
	j.closed = append(j.closed, closedSegment{seq: j.seq, size: j.size})
	j.stats.Rotations++
	j.cfg.Logf("wal: abandoned segment %d after failed append (valid to %d bytes)", j.seq, j.size)
	return j.openSegment(j.seq + 1)
}

// Sync flushes the active segment to stable storage.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return j.failed
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if !j.dirty {
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: fsync segment %d: %w", j.seq, err)
	}
	j.dirty = false
	j.syncedThrough = j.stats.Appends
	j.stats.Syncs++
	j.stats.LastSync = j.cfg.Now()
	return nil
}

// Rotate closes the active segment and starts a new one, then enforces
// retention in the background.
func (j *Journal) Rotate() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed != nil {
		return j.failed
	}
	return j.rotateLocked()
}

// Failed returns the poisoning error, if the journal is poisoned: a
// segment write failed and no fresh segment could be opened, so every
// append fails fast until Revive succeeds.
func (j *Journal) Failed() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.failed
}

// Revive attempts to clear a poisoned journal by opening a fresh
// active segment — the probe the daemon's degraded-durability mode
// runs to re-arm once a transient fault (ENOSPC, a flaky disk) heals.
// It is a no-op on a healthy journal and returns the open error while
// the fault persists, leaving the journal poisoned.
func (j *Journal) Revive() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.done {
		return fmt.Errorf("wal: journal is closed")
	}
	if j.failed == nil {
		return nil
	}
	// The poisoned active segment was already retired by
	// abandonSegmentLocked; only a fresh segment is needed.
	if err := j.openSegment(j.seq + 1); err != nil {
		return fmt.Errorf("wal: revive: %w", err)
	}
	j.failed = nil
	j.cfg.Logf("wal: revived with fresh segment %d", j.seq)
	return nil
}

// SetRetainFloor raises the retention floor: segments with seq >= seg
// are never deleted by the MaxBytes cap. Callers advance it to the
// newest checkpoint's Position.Seg after every successful checkpoint,
// so retention can only discard segments whose records are already
// folded into a checkpoint. The floor is monotonic; a lower value is
// ignored.
func (j *Journal) SetRetainFloor(seg uint64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.retainSet || seg > j.retainSeg {
		j.retainSeg, j.retainSet = seg, true
	}
}

func (j *Journal) rotateLocked() error {
	// A rotation is the last write to the outgoing segment; sync it
	// regardless of policy so a closed segment is always fully durable.
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment %d: %w", j.seq, err)
	}
	j.closed = append(j.closed, closedSegment{seq: j.seq, size: j.size})
	j.stats.Rotations++
	if err := j.openSegment(j.seq + 1); err != nil {
		return err
	}
	if j.cfg.MaxBytes > 0 {
		// Prune off the append path; deletions only touch closed
		// segments, which no appender writes to.
		j.wg.Add(1)
		go func() {
			defer j.wg.Done()
			j.prune()
		}()
	}
	return nil
}

// prune deletes the oldest closed segments until their total size fits
// under MaxBytes, but never a segment at or above the retention floor:
// deleting a segment the newest checkpoint still points into would
// leave a silent gap in the stream and lose acknowledged records at
// the next recovery.
func (j *Journal) prune() {
	j.mu.Lock()
	defer j.mu.Unlock()
	var total int64
	for _, s := range j.closed {
		total += s.size
	}
	for len(j.closed) > 0 && total > j.cfg.MaxBytes {
		victim := j.closed[0]
		if j.retainSet && victim.seq >= j.retainSeg {
			j.cfg.Logf("wal: retention over cap by %d bytes but segment %d is needed by the newest checkpoint; not pruning",
				total-j.cfg.MaxBytes, victim.seq)
			return
		}
		path := segmentName.Path(j.cfg.Dir, victim.seq)
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			j.cfg.Logf("wal: retention: remove %s: %v", path, err)
			return
		}
		j.cfg.Logf("wal: retention dropped segment %d (%d bytes)", victim.seq, victim.size)
		total -= victim.size
		j.closed = j.closed[1:]
		j.stats.TruncatedSegments++
	}
}

// syncLoop is the FsyncInterval background syncer.
func (j *Journal) syncLoop() {
	defer j.wg.Done()
	t := time.NewTicker(j.cfg.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-j.stopc:
			return
		case <-t.C:
			j.mu.Lock()
			if !j.done {
				if err := j.syncLocked(); err != nil {
					j.cfg.Logf("wal: interval sync: %v", err)
				}
			}
			j.mu.Unlock()
		}
	}
}

// Pos returns the position after the last appended record.
func (j *Journal) Pos() Position {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Position{Seg: j.seq, Off: j.size}
}

// Stats returns a snapshot of the journal's depth and activity.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := j.stats
	st.ActiveSeg = j.seq
	st.Segments = len(j.closed) + 1
	st.Bytes = j.size
	for _, s := range j.closed {
		st.Bytes += s.size
	}
	if j.done {
		st.Segments--
		st.Bytes -= j.size
	}
	return st
}

// Close syncs and closes the active segment and stops background
// loops. The journal cannot be used afterwards; a later Open on the
// same directory starts a new segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.done {
		j.mu.Unlock()
		return nil
	}
	err := j.failed
	if err == nil {
		// A poisoned journal's active file was already retired by
		// abandonSegmentLocked; only a healthy one needs the final
		// sync-and-close.
		err = j.syncLocked()
		if cerr := j.f.Close(); err == nil && cerr != nil {
			err = fmt.Errorf("wal: close segment %d: %w", j.seq, cerr)
		}
		j.closed = append(j.closed, closedSegment{seq: j.seq, size: j.size})
	}
	j.done = true
	close(j.stopc)
	j.mu.Unlock()
	j.wg.Wait()
	return err
}
