package seglog

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Name is a family of numbered segment files in one directory, named
// <Prefix>-<seq>.<Ext> with seq zero-padded to 8 digits (for example
// journal-00000001.wal). Sequence numbers start at 1.
type Name struct {
	Prefix, Ext string
}

// Path returns the path of file seq inside dir.
func (n Name) Path(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s-%08d.%s", n.Prefix, seq, n.Ext))
}

// Parse extracts the sequence number from a file's base name,
// reporting whether the name belongs to the family at all.
func (n Name) Parse(base string) (uint64, bool) {
	mid, ok := strings.CutPrefix(base, n.Prefix+"-")
	if !ok {
		return 0, false
	}
	if mid, ok = strings.CutSuffix(mid, "."+n.Ext); !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(mid, 10, 64)
	if err != nil || seq == 0 {
		return 0, false
	}
	return seq, true
}

// RoundRobin returns the next run of at most max items, ordered by
// ascending seq, that starts at the first item whose seq is at or after
// cursor — wrapping to the first item when none is. A scrubber that
// moves its cursor past the last item of each run cycles through every
// segment, max at a time.
func RoundRobin[T any](items []T, seq func(T) uint64, cursor uint64, max int) []T {
	start := sort.Search(len(items), func(i int) bool { return seq(items[i]) >= cursor })
	if start == len(items) {
		start = 0
	}
	run := items[start:]
	if len(run) > max {
		run = run[:max]
	}
	return run
}
