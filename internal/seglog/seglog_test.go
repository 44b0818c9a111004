package seglog

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"testing/iotest"
)

func frame(payload []byte) []byte {
	buf, start := Begin(nil)
	buf = append(buf, payload...)
	Seal(buf, start)
	return buf
}

func TestSplitChecksFrames(t *testing.T) {
	buf := append(frame([]byte{1, 2, 3}), frame([]byte{4})...)
	p, rest, err := Split(buf, 16)
	if err != nil || !bytes.Equal(p, []byte{1, 2, 3}) {
		t.Fatalf("first frame = %x, %v", p, err)
	}
	if p, rest, err = Split(rest, 16); err != nil || !bytes.Equal(p, []byte{4}) || len(rest) != 0 {
		t.Fatalf("second frame = %x, %v, %d bytes left", p, err, len(rest))
	}
	good := frame([]byte{9, 9, 9, 9})
	for name, b := range map[string][]byte{
		"short header":  good[:5],
		"short payload": good[:len(good)-1],
		"flipped bit":   append(append([]byte{}, good[:9]...), 8, 9, 9),
		"zero length":   make([]byte, FrameSize),
		"over the cap":  frame(make([]byte, 17)),
	} {
		if _, _, err := Split(b, 16); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHeader(t *testing.T) {
	magic := [4]byte{'T', 'E', 'S', 'T'}
	h := AppendHeader(nil, magic, 7)
	if v, err := ParseHeader(h, magic); err != nil || v != 7 || len(h) != PrefixSize {
		t.Fatalf("ParseHeader(%x) = %d, %v", h, v, err)
	}
	if _, err := ParseHeader(h[:7], magic); err == nil {
		t.Error("short header accepted")
	}
	if _, err := ParseHeader(h, [4]byte{'X', 'E', 'S', 'T'}); err == nil {
		t.Error("wrong magic accepted")
	}
}

type scanned struct {
	off, end int64
	ok       bool
}

func scanAll(r io.Reader, off, size int64, max int) ([]scanned, *Scanner) {
	sc := NewScanner(r, off, size, max)
	var out []scanned
	for sc.Next() {
		out = append(out, scanned{sc.Off(), sc.End(), sc.OK()})
	}
	return out, sc
}

func TestScannerStepsOverBadFramesAndStopsAtTornTail(t *testing.T) {
	hdr := []byte("HEADER..")
	f1, f2, f3 := frame([]byte("one")), frame([]byte("two")), frame([]byte("three"))
	f2[len(f2)-1] ^= 0x01
	data := append(append(append(append(append([]byte{}, hdr...), f1...), f2...), f3...), 1, 2, 3)
	o1 := int64(len(hdr))
	o2 := o1 + int64(len(f1))
	o3 := o2 + int64(len(f2))
	o4 := o3 + int64(len(f3))

	got, sc := scanAll(bytes.NewReader(data[len(hdr):]), o1, int64(len(data)), 64)
	want := []scanned{{o1, o2, true}, {o2, o3, false}, {o3, o4, true}}
	if len(got) != len(want) {
		t.Fatalf("frames = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("frame %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if sc.Torn() == "" || sc.Err() != nil || sc.Off() != o4 {
		t.Errorf("walk ended at %d torn=%q err=%v, want a torn tail at %d", sc.Off(), sc.Torn(), sc.Err(), o4)
	}
	if sc.Valid() != o2 {
		t.Errorf("Valid = %d, want %d (just past the frame before the bad one)", sc.Valid(), o2)
	}

	// A caller that stops at the bad frame keeps only what precedes it.
	sc = NewScanner(bytes.NewReader(data[len(hdr):]), o1, int64(len(data)), 64)
	for sc.Next() && sc.OK() {
	}
	if sc.Off() != o2 || sc.Valid() != o2 {
		t.Errorf("stopped at %d with Valid %d, want both %d", sc.Off(), sc.Valid(), o2)
	}
}

func TestScannerReadsFramesLargerThanItsBuffer(t *testing.T) {
	big := bytes.Repeat([]byte{0xA5}, 3*scanBuf/2)
	data := append(append(frame([]byte("a")), frame(big)...), frame([]byte("b"))...)
	for name, r := range map[string]io.Reader{
		"whole":    bytes.NewReader(data),
		"one byte": iotest.OneByteReader(bytes.NewReader(data)),
	} {
		sc := NewScanner(r, 0, int64(len(data)), 2*scanBuf)
		var payloads [][]byte
		for sc.Next() {
			if !sc.OK() {
				t.Fatalf("%s: frame at %d failed its CRC", name, sc.Off())
			}
			payloads = append(payloads, append([]byte(nil), sc.Payload()...))
		}
		if sc.Torn() != "" || sc.Err() != nil || sc.Valid() != int64(len(data)) {
			t.Fatalf("%s: torn=%q err=%v valid=%d", name, sc.Torn(), sc.Err(), sc.Valid())
		}
		if len(payloads) != 3 || !bytes.Equal(payloads[1], big) || string(payloads[2]) != "b" {
			t.Errorf("%s: got %d payloads", name, len(payloads))
		}
	}
}

func TestScannerTornTails(t *testing.T) {
	f := frame([]byte("payload"))
	for name, data := range map[string][]byte{
		"short header":   append(append([]byte{}, f...), f[:5]...),
		"short payload":  append(append([]byte{}, f...), f[:len(f)-2]...),
		"garbage length": append(append([]byte{}, f...), 0xFF, 0xFF, 0xFF, 0x7F, 0, 0, 0, 0, 1),
		"zero length":    append(append([]byte{}, f...), make([]byte, 12)...),
	} {
		got, sc := scanAll(bytes.NewReader(data), 0, int64(len(data)), 1<<20)
		if len(got) != 1 || sc.Torn() == "" || sc.Valid() != int64(len(f)) || sc.Off() != int64(len(f)) {
			t.Errorf("%s: %d frames, torn=%q, valid=%d, ended at %d", name, len(got), sc.Torn(), sc.Valid(), sc.Off())
		}
	}
	// A file that shrinks under the walk is a torn tail, not an error.
	data := append(append([]byte{}, f...), f...)
	got, sc := scanAll(bytes.NewReader(data[:len(f)+4]), 0, int64(len(data)), 64)
	if len(got) != 1 || sc.Torn() == "" || sc.Err() != nil {
		t.Errorf("shrunk file: %d frames, torn=%q, err=%v", len(got), sc.Torn(), sc.Err())
	}
	// A read error surfaces as Err.
	boom := errors.New("boom")
	_, sc = scanAll(io.MultiReader(bytes.NewReader(f), iotest.ErrReader(boom)), 0, int64(2*len(f)), 64)
	if !errors.Is(sc.Err(), boom) {
		t.Errorf("Err = %v, want %v", sc.Err(), boom)
	}
}

func TestPublish(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, content := range []string{"first", "second"} {
		err := Publish(path, func(w io.Writer) error {
			_, err := io.WriteString(w, content)
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(path); string(b) != content {
			t.Errorf("content = %q, want %q", b, content)
		}
	}
	boom := errors.New("boom")
	if err := Publish(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("failed write returned %v", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "second" {
		t.Errorf("failed publish changed the file to %q", b)
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 1 {
		t.Errorf("directory holds %d entries, want only the published file", len(ents))
	}
}

func TestTempBase(t *testing.T) {
	for name, want := range map[string]string{
		"store-00000003.seg.tmp":           "store-00000003.seg",
		"checkpoint-00000002.ckpt.tmp4411": "checkpoint-00000002.ckpt",
		"journal-00000001.wal.tmp1":        "journal-00000001.wal",
		"journal-00000001.wal":             "",
		"notes.tmpl":                       "",
		".tmp1":                            "",
	} {
		base, ok := TempBase(name)
		if ok != (want != "") || base != want {
			t.Errorf("TempBase(%q) = %q, %v; want %q", name, base, ok, want)
		}
	}
	// Every temp file Publish creates is recognized.
	f, err := os.CreateTemp(t.TempDir(), "x.seg"+tempMark+"*")
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if base, ok := TempBase(filepath.Base(f.Name())); !ok || base != "x.seg" {
		t.Errorf("TempBase(%q) = %q, %v", filepath.Base(f.Name()), base, ok)
	}
}

func TestName(t *testing.T) {
	n := Name{Prefix: "journal", Ext: "wal"}
	if got, want := n.Path("d", 7), filepath.Join("d", "journal-00000007.wal"); got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
	if got, want := n.Path("d", 123456789), filepath.Join("d", "journal-123456789.wal"); got != want {
		t.Errorf("Path past 8 digits = %q, want %q", got, want)
	}
	for name, want := range map[string]uint64{
		"journal-00000001.wal":     1,
		"journal-123456789.wal":    123456789,
		"journal-7.wal":            7,
		"journal-00000000.wal":     0, // sequence numbers start at 1
		"journal-00000001.wal.tmp": 0,
		"journal-00000001.ckpt":    0,
		"store-00000001.wal":       0,
		"journal-.wal":             0,
		"journal-+1.wal":           0,
		"journal-0x1.wal":          0,
		"journal.wal":              0,
	} {
		seq, ok := n.Parse(name)
		if ok != (want != 0) || seq != want {
			t.Errorf("Parse(%q) = %d, %v; want %d", name, seq, ok, want)
		}
	}
	for _, seq := range []uint64{1, 42, 99999999, 100000000} {
		if got, ok := n.Parse(filepath.Base(n.Path("d", seq))); !ok || got != seq {
			t.Errorf("Parse(Path(%d)) = %d, %v", seq, got, ok)
		}
	}
}

func TestRoundRobin(t *testing.T) {
	seqs := []uint64{2, 3, 5, 8, 13}
	id := func(s uint64) uint64 { return s }
	for _, tc := range []struct {
		cursor uint64
		max    int
		want   []uint64
	}{
		{0, 2, []uint64{2, 3}},
		{3, 2, []uint64{3, 5}},
		{4, 2, []uint64{5, 8}},
		{9, 2, []uint64{13}},    // the tail run is short, not wrapped
		{14, 2, []uint64{2, 3}}, // past the last item: wrap
		{1, 10, []uint64{2, 3, 5, 8, 13}},
	} {
		got := RoundRobin(seqs, id, tc.cursor, tc.max)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("RoundRobin(cursor %d, max %d) = %v, want %v", tc.cursor, tc.max, got, tc.want)
		}
	}
	if got := RoundRobin(nil, id, 3, 2); len(got) != 0 {
		t.Errorf("RoundRobin over no items = %v", got)
	}
	// Advancing the cursor past each run visits every item in turn.
	var visited []uint64
	cursor := uint64(0)
	for i := 0; i < 3; i++ {
		run := RoundRobin(seqs, id, cursor, 2)
		visited = append(visited, run...)
		cursor = run[len(run)-1] + 1
	}
	if want := []uint64{2, 3, 5, 8, 13}; !reflect.DeepEqual(visited, want) {
		t.Errorf("three passes visited %v, want %v", visited, want)
	}
}

func TestQuarantine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "seg")
	if err := os.WriteFile(path, []byte("rot"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Quarantine(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(q); string(b) != "rot" {
		t.Errorf("quarantine holds %q", b)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("kept original is gone: %v", err)
	}
	// Moving replaces the earlier quarantine.
	if _, err := Quarantine(path, false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("moved original still present: %v", err)
	}
	if _, err := os.Stat(q); err != nil {
		t.Errorf("quarantine missing: %v", err)
	}
}

// FuzzSegmentScan walks arbitrary bytes as a segment body: the walk
// must never panic, must yield contiguous frames inside the input,
// every frame it calls intact must re-verify with Split, and the
// last valid offset must stay within the input.
func FuzzSegmentScan(f *testing.F) {
	good := append(frame([]byte("alpha")), frame([]byte("beta"))...)
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(append(append([]byte{}, good...), 0xFF, 0xFF, 0xFF, 0xFF))
	flipped := append([]byte{}, good...)
	flipped[10] ^= 0x80
	f.Add(flipped)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		const max = 1 << 12
		sc := NewScanner(bytes.NewReader(data), 0, int64(len(data)), max)
		var prev int64
		for sc.Next() {
			if sc.Off() != prev || sc.End() <= sc.Off() || sc.End() > int64(len(data)) {
				t.Fatalf("frame [%d,%d) does not follow %d inside %d bytes", sc.Off(), sc.End(), prev, len(data))
			}
			prev = sc.End()
			payload, rest, err := Split(data[sc.Off():sc.End()], max)
			if sc.OK() != (err == nil) {
				t.Fatalf("frame at %d: scanner OK=%v, Split error %v", sc.Off(), sc.OK(), err)
			}
			if sc.OK() && (len(rest) != 0 || !bytes.Equal(payload, sc.Payload())) {
				t.Fatalf("frame at %d re-verifies as a different frame", sc.Off())
			}
		}
		if v := sc.Valid(); v < 0 || v > int64(len(data)) || v > sc.Off() {
			t.Fatalf("Valid %d outside [0,%d] or past the walk's end %d", v, len(data), sc.Off())
		}
		if sc.Err() != nil {
			t.Fatalf("reading memory failed: %v", sc.Err())
		}
		if sc.Torn() == "" && sc.Off() != int64(len(data)) {
			t.Fatalf("clean walk ended at %d of %d bytes", sc.Off(), len(data))
		}
	})
}
