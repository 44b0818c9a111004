package seglog

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// tempMark separates a published name from a temp file's random suffix.
const tempMark = ".tmp"

// QuarantineSuffix is appended to a damaged file's name by Quarantine.
const QuarantineSuffix = ".corrupt"

// Publish atomically replaces path with the bytes write produces: they
// go to a temp file in the same directory through a buffer, which is
// fsynced, closed and renamed over path before the directory itself is
// fsynced. After a crash path holds either its old content or all of
// the new; on any error the temp file is removed and path is untouched.
func Publish(path string, write func(w io.Writer) error) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+tempMark+"*")
	if err != nil {
		return fmt.Errorf("create temp for %s: %w", path, err)
	}
	bw := bufio.NewWriterSize(f, 64<<10)
	err = write(bw)
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.Name(), path)
	}
	if err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("publish %s: %w", path, err)
	}
	return SyncDir(dir)
}

// TempBase reports whether name is a temp file Publish creates and, if
// so, the name it was to be published as. A temp file still present
// when its directory is opened is the leftover of a crash mid-publish:
// it never became visible, so deleting it loses nothing.
func TempBase(name string) (string, bool) {
	i := strings.LastIndex(name, tempMark)
	if i <= 0 {
		return "", false
	}
	for _, c := range name[i+len(tempMark):] {
		if c < '0' || c > '9' {
			return "", false
		}
	}
	return name[:i], true
}

// Quarantine preserves the damaged file at path as path+QuarantineSuffix,
// replacing any earlier quarantine, and returns that path. With keep
// the original name stays in place (the quarantine is a hard link), so
// readers never find the file missing before the caller replaces it;
// otherwise the file is moved aside. The directory is fsynced.
func Quarantine(path string, keep bool) (string, error) {
	q := path + QuarantineSuffix
	os.Remove(q)
	link := os.Rename
	if keep {
		link = os.Link
	}
	if err := link(path, q); err != nil {
		return "", fmt.Errorf("quarantine %s: %w", path, err)
	}
	return q, SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory so the renames, links and deletes within
// it are durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir %s: %w", dir, err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return nil
}
