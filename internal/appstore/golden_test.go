package appstore

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/phase"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from the current writers")

// The golden store pins the appstore's on-disk bytes: a segment holding
// goldenStoreRecords, the first of them tombstoned by Prune(2) through
// the tombstones.json sidecar. The writer must reproduce both files
// byte-for-byte and the reader must decode them back.

var goldenStoreDir = filepath.Join("testdata", "store")

func goldenStoreRecords() []Record {
	fp := &phase.Fingerprint{Phases: []phase.PhaseSig{
		{Class: appclass.CPU, DurFrac: 0.625, Centroid: []float64{1.5, -2}},
		{Class: appclass.IO, DurFrac: 0.375, Centroid: []float64{0.25, 4}},
	}}
	return []Record{
		{
			App: "postmark", Class: appclass.IO, Verdict: appclass.IO, ModelID: "m-1",
			Composition:   map[appclass.Class]float64{appclass.IO: 0.75, appclass.Idle: 0.25},
			ExecutionTime: 90 * time.Second, Samples: 18, FinalizedAt: 1_700_000_000_000_000_000,
		},
		{
			App: "postmark", Class: appclass.IO, Verdict: appclass.IO, ModelID: "m-1",
			Composition:   map[appclass.Class]float64{appclass.IO: 0.5, appclass.CPU: 0.5},
			ExecutionTime: 95 * time.Second, Samples: 19, Gaps: 1, GapTime: 5 * time.Second,
			FinalizedAt: 1_700_000_100_000_000_000,
			Phases: []phase.Phase{
				{Class: appclass.CPU, Start: 0, End: 40 * time.Second, Snapshots: 8},
				{Class: appclass.IO, Start: 45 * time.Second, End: 90 * time.Second, Snapshots: 10},
			},
			Fingerprint: fp, MatchedApp: "postmark", MatchScore: 0.875,
		},
		{
			App: "postmark", Class: appclass.CPU, Verdict: appclass.Unknown, ModelID: "m-2",
			Composition:   map[appclass.Class]float64{appclass.CPU: 1},
			ExecutionTime: 80 * time.Second, Samples: 16, UnknownFraction: 0.5,
			FinalizedAt:  1_700_000_200_000_000_000,
			TrainMetrics: []string{"cpu_user", "bytes_in"},
			TrainSamples: [][]float64{{0.5, 100}, {0.75, 200}},
		},
		{
			App: "xspim", Class: appclass.CPU,
			Composition:   map[appclass.Class]float64{appclass.CPU: 0.875, appclass.Mem: 0.125},
			ExecutionTime: 30 * time.Second, Samples: 6,
		},
	}
}

func writeGoldenStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "store")
	s, err := Open(dir, Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	recs := goldenStoreRecords()
	for i := range recs {
		if err := s.Append(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := s.Prune(2); err != nil || n != 1 {
		t.Fatalf("Prune(2) = %d, %v; want 1 record dropped", n, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestGoldenStore(t *testing.T) {
	written := writeGoldenStore(t)
	for _, name := range []string{"store-00000001.seg", tombstonesName} {
		got, err := os.ReadFile(filepath.Join(written, name))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(goldenStoreDir, name)
		if *update {
			if err := os.MkdirAll(goldenStoreDir, 0o755); err != nil {
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
			t.Errorf("%s: writer produced %d bytes that differ from the %d golden bytes", name, len(got), len(want))
		}
	}

	// Decode a copy: opening a store may repair or extend it in place.
	dir := filepath.Join(t.TempDir(), "store")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"store-00000001.seg", tombstonesName} {
		b, err := os.ReadFile(filepath.Join(goldenStoreDir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openTest(t, dir, Options{NoFsync: true})
	want := goldenStoreRecords()
	if _, err := s.Get(1); err == nil {
		t.Error("Get(1) found the tombstoned record")
	}
	for seq := uint64(2); seq <= 4; seq++ {
		got, err := s.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want[seq-1]) {
			t.Errorf("Get(%d) = %+v, want %+v", seq, got, want[seq-1])
		}
	}
	runs, err := s.Runs("postmark")
	if err != nil || !reflect.DeepEqual(runs, want[1:3]) {
		t.Errorf("Runs(postmark) = %+v, %v; want %+v", runs, err, want[1:3])
	}
	fps, err := s.Fingerprints()
	if err != nil || len(fps) != 1 || !reflect.DeepEqual(fps["postmark"], *want[1].Fingerprint) {
		t.Errorf("Fingerprints() = %+v, %v", fps, err)
	}
	if st := s.Stats(); st.LiveRecords != 3 || st.DeadRecords != 1 || st.CorruptFrames != 0 || st.Segments != 1 {
		t.Errorf("stats = %+v, want 3 live, 1 dead, 1 clean segment", st)
	}
}
