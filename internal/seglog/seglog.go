// Package seglog owns the framed-segment format shared by the
// write-ahead journal (internal/wal), the application store
// (internal/appstore) and the binary ingest protocol (internal/wire),
// together with the file operations that keep such segments
// crash-safe. It is the only code that knows the frame layout, the
// checksum, or how a file is published atomically.
//
// # Frames
//
// Every record is one frame, all integers little-endian:
//
//	u32 payload length | u32 CRC32C (Castagnoli) of payload | payload
//
// The CRC covers the payload only. A torn frame header reads as a
// garbage length/CRC pair and a torn payload as a CRC mismatch, so a
// crash mid-write is detected, never decoded. A zero length, or one
// above the owner's cap, is never valid: garbage lengths are rejected
// before anything is allocated for them. Writers append an empty
// header with Begin, append the payload, then call Seal; Split checks
// one frame held in memory, and Scanner walks the frames of a file.
//
// # Segment header
//
// A segment file starts with the 8-byte prefix
//
//	magic[4] | u32 format version
//
// which its owner may extend: the journal's version 2 appends the
// 32-byte model compatibility hash, the store's version 1 appends
// nothing. Frames follow the full header back to back to the end of
// the file.
//
// # Files
//
// Publish writes a whole file atomically (temp file, write, fsync,
// close, rename, directory fsync), so a crash leaves either the old
// file or all of the new one; TempBase recognizes the temp files a
// crash mid-publish leaves behind. Quarantine keeps a damaged file
// aside as <name>.corrupt for inspection. Name formats and parses the
// numbered file names (journal-00000001.wal), and RoundRobin picks the
// next run of segments a rate-limited scrubber examines.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

const (
	// FrameSize is the frame header length: payload length + CRC.
	FrameSize = 8
	// PrefixSize is the segment header prefix length: magic + version.
	PrefixSize = 8
)

// castagnoli is the CRC32C table; Castagnoli has hardware support on
// amd64/arm64, which keeps the checksum off the append path's profile.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Begin appends an empty frame header to dst and returns the extended
// buffer and the header's offset, for Seal once the payload follows it.
func Begin(dst []byte) ([]byte, int) {
	start := len(dst)
	return append(dst, 0, 0, 0, 0, 0, 0, 0, 0), start
}

// Seal fills in the length and CRC of the frame whose header Begin
// placed at buf[start]; its payload is everything after the header.
func Seal(buf []byte, start int) {
	payload := buf[start+FrameSize:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
}

// Split checks the frame at the front of buf, whose payload may be at
// most max bytes, and returns its payload and the bytes after it. The
// payload aliases buf; nothing is copied or allocated on success.
func Split(buf []byte, max int) (payload, rest []byte, err error) {
	if len(buf) < FrameSize {
		return nil, nil, fmt.Errorf("truncated frame header (%d bytes)", len(buf))
	}
	n := int64(binary.LittleEndian.Uint32(buf))
	if n == 0 || n > int64(max) {
		return nil, nil, fmt.Errorf("frame payload length %d outside (0,%d]", n, max)
	}
	if int64(len(buf)-FrameSize) < n {
		return nil, nil, fmt.Errorf("frame payload truncated: have %d of %d bytes", len(buf)-FrameSize, n)
	}
	payload = buf[FrameSize : FrameSize+n]
	if got, want := crc32.Checksum(payload, castagnoli), binary.LittleEndian.Uint32(buf[4:]); got != want {
		return nil, nil, fmt.Errorf("frame CRC mismatch (got %08x, want %08x)", got, want)
	}
	return payload, buf[FrameSize+n:], nil
}

// AppendHeader appends the segment header prefix for magic and version.
func AppendHeader(dst []byte, magic [4]byte, version uint32) []byte {
	return binary.LittleEndian.AppendUint32(append(dst, magic[:]...), version)
}

// ParseHeader checks the segment header prefix at the front of b
// against magic and returns the format version; the owner decides
// which versions it reads.
func ParseHeader(b []byte, magic [4]byte) (uint32, error) {
	if len(b) < PrefixSize {
		return 0, errors.New("short segment header")
	}
	if [4]byte(b[:4]) != magic {
		return 0, errors.New("bad segment magic")
	}
	return binary.LittleEndian.Uint32(b[4:PrefixSize]), nil
}
