package wire

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from the current writers")

// The golden frames pin the protocol's on-wire bytes: each encoder must
// reproduce its checked-in frame byte-for-byte, and NextFrame plus the
// matching parser must decode the frame back to the same value.

func goldenHash() [HashSize]byte {
	var h [HashSize]byte
	for i := range h {
		h[i] = byte(255 - 3*i)
	}
	return h
}

const goldenStream = 0x0102030405060708

var (
	goldenHello = Hello{Version: Version, ModelHash: goldenHash(),
		Metrics: []string{"cpu_user", "cpu_system", "bytes_in"}}
	goldenHelloAck = HelloAck{Version: Version, StreamID: goldenStream, ModelHash: goldenHash(),
		Classes: []string{"idle", "io", "cpu", "net", "mem"}}
	goldenGroups = []Group{
		{VM: "vm-a", Times: []float64{5, 10}, Rows: [][]float64{{0.5, 1.25, -3}, {0, 42, 7.75}}},
		{VM: "vm-b", Times: []float64{15}, Rows: [][]float64{{3.5, 2, 1e9}}},
	}
	goldenAck = []byte{2, 0, 1, 4}
)

func goldenFrame(t *testing.T, name string, encode func([]byte) ([]byte, error)) []byte {
	t.Helper()
	buf, start := BeginFrame(nil)
	buf, err := encode(buf)
	if err != nil {
		t.Fatal(err)
	}
	got := EndFrame(buf, start)
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: encoder produced %x, golden frame is %x", name, got, want)
	}
	payload, rest, err := NextFrame(want)
	if err != nil || len(rest) != 0 {
		t.Fatalf("%s: NextFrame = %v with %d trailing bytes", name, err, len(rest))
	}
	return payload
}

func TestGoldenHello(t *testing.T) {
	p := goldenFrame(t, "hello.bin", func(b []byte) ([]byte, error) { return AppendHello(b, goldenHello), nil })
	if h, err := ParseHello(p); err != nil || !reflect.DeepEqual(h, goldenHello) {
		t.Errorf("ParseHello = %+v, %v; want %+v", h, err, goldenHello)
	}
}

func TestGoldenHelloAck(t *testing.T) {
	p := goldenFrame(t, "hello_ack.bin", func(b []byte) ([]byte, error) { return AppendHelloAck(b, goldenHelloAck), nil })
	if a, err := ParseHelloAck(p); err != nil || !reflect.DeepEqual(a, goldenHelloAck) {
		t.Errorf("ParseHelloAck = %+v, %v; want %+v", a, err, goldenHelloAck)
	}
}

func TestGoldenBatch(t *testing.T) {
	cols := len(goldenHello.Metrics)
	p := goldenFrame(t, "batch.bin", func(b []byte) ([]byte, error) {
		return AppendBatch(b, goldenStream, cols, goldenGroups)
	})
	if id, err := PeekStreamID(p); err != nil || id != goldenStream {
		t.Fatalf("PeekStreamID = %x, %v", id, err)
	}
	bv, err := ParseBatchHeader(p, cols)
	if err != nil || bv.StreamID != goldenStream || bv.Groups() != len(goldenGroups) {
		t.Fatalf("ParseBatchHeader = %+v, %v", bv, err)
	}
	for _, want := range goldenGroups {
		g, err := bv.Next()
		if err != nil {
			t.Fatal(err)
		}
		if string(g.VM) != want.VM || g.Rows != len(want.Rows) {
			t.Fatalf("group = %s with %d rows, want %s with %d", g.VM, g.Rows, want.VM, len(want.Rows))
		}
		for r, row := range want.Rows {
			if g.TimeSeconds(r) != want.Times[r] {
				t.Errorf("%s row %d time = %v, want %v", want.VM, r, g.TimeSeconds(r), want.Times[r])
			}
			for c, v := range row {
				if g.Value(c, r) != v {
					t.Errorf("%s row %d col %d = %v, want %v", want.VM, r, c, g.Value(c, r), v)
				}
			}
		}
	}
}

func TestGoldenBatchAck(t *testing.T) {
	p := goldenFrame(t, "batch_ack.bin", func(b []byte) ([]byte, error) { return AppendBatchAck(b, goldenAck), nil })
	if ids, err := ParseBatchAck(p); err != nil || !bytes.Equal(ids, goldenAck) {
		t.Errorf("ParseBatchAck = %v, %v; want %v", ids, err, goldenAck)
	}
}
