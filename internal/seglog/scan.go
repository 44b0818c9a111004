package seglog

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// scanBuf is the most a Scanner reads ahead; a larger frame grows the
// buffer to fit it.
const scanBuf = 256 << 10

// Scanner walks the frames of a segment body in order, reading through
// one reused buffer. Each call to Next yields one walkable frame —
// one whose length is plausible and whose bytes fit the file — with
// its offset and whether its CRC matched; the caller decides whether a
// bad frame ends its walk (replay, store open) or is stepped over
// (scrub). The walk ends at the end of the body, at a tail that cannot
// be walked (Torn), or at a read error (Err).
type Scanner struct {
	r    io.Reader
	max  int64
	buf  []byte
	lo   int   // buf[lo:hi] holds unread bytes,
	hi   int   // starting at file offset end
	size int64 // file offset where the body ends

	off, end int64 // current frame's extent
	payload  []byte
	ok       bool
	valid    int64
	torn     string
	err      error
}

// NewScanner walks the frames in r, which is positioned at file offset
// off of a segment size bytes long; payloads may be at most maxPayload
// bytes.
func NewScanner(r io.Reader, off, size int64, maxPayload int) *Scanner {
	return &Scanner{
		r:    io.LimitReader(r, max(size-off, 0)),
		max:  int64(maxPayload),
		buf:  make([]byte, min(scanBuf, max(size-off, FrameSize))),
		size: size, off: off, end: off, valid: off,
	}
}

// Next advances to the next walkable frame, reporting false once the
// walk has ended.
func (s *Scanner) Next() bool {
	if s.ok && s.valid == s.off {
		// The caller moved past an intact frame with no bad one before it.
		s.valid = s.end
	}
	s.off, s.payload, s.ok = s.end, nil, false
	if s.torn != "" || s.err != nil || s.off >= s.size {
		return false
	}
	left := s.size - s.off
	if left < FrameSize {
		s.torn = fmt.Sprintf("torn frame header (%d of %d bytes) at offset %d", left, FrameSize, s.off)
		return false
	}
	hdr := s.fill(FrameSize)
	if hdr == nil {
		return false
	}
	n := int64(binary.LittleEndian.Uint32(hdr))
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > s.max {
		s.torn = fmt.Sprintf("implausible frame length %d at offset %d", n, s.off)
		return false
	}
	if left-FrameSize < n {
		s.torn = fmt.Sprintf("torn payload at offset %d (frame length %d, %d bytes left)", s.off, n, left-FrameSize)
		return false
	}
	frame := s.fill(FrameSize + n)
	if frame == nil {
		return false
	}
	s.payload = frame[FrameSize:]
	s.ok = crc32.Checksum(s.payload, castagnoli) == crc
	s.lo += int(FrameSize + n)
	s.end = s.off + FrameSize + n
	return true
}

// fill returns the next n unread bytes without consuming them, reading
// more as needed; nil means the walk ended (Torn or Err is set).
func (s *Scanner) fill(n int64) []byte {
	if int64(s.hi-s.lo) < n {
		if int64(len(s.buf)) < n {
			s.buf = append(make([]byte, 0, n), s.buf[s.lo:s.hi]...)[:n]
		} else {
			copy(s.buf, s.buf[s.lo:s.hi])
		}
		s.hi -= s.lo
		s.lo = 0
		for int64(s.hi) < n {
			m, err := s.r.Read(s.buf[s.hi:])
			s.hi += m
			if err == io.EOF {
				s.torn = fmt.Sprintf("segment shrank to %d bytes while frame at offset %d was read", s.off+int64(s.hi), s.off)
				return nil
			}
			if err != nil {
				s.err = err
				return nil
			}
		}
	}
	return s.buf[s.lo : s.lo+int(n)]
}

// Off returns the file offset of the current frame's header; once the
// walk has ended, where it ended.
func (s *Scanner) Off() int64 { return s.off }

// End returns the file offset just past the current frame.
func (s *Scanner) End() int64 { return s.end }

// Payload returns the current frame's payload. It aliases the
// scanner's buffer and is valid only until the next call to Next.
func (s *Scanner) Payload() []byte { return s.payload }

// OK reports whether the current frame's CRC matched its payload.
func (s *Scanner) OK() bool { return s.ok }

// Valid returns the offset just past the last intact frame of the
// unbroken run the caller has moved past: truncating the file there
// keeps every frame before the first bad or rejected one. A frame the
// caller stops at without calling Next again is not included.
func (s *Scanner) Valid() int64 { return s.valid }

// Torn says why the tail from Off on cannot be walked ("" when the
// walk has not hit such a tail).
func (s *Scanner) Torn() string { return s.torn }

// Err returns the read error that ended the walk, if any.
func (s *Scanner) Err() error { return s.err }
