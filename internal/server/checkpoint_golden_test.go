package server

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/wal"
)

var update = flag.Bool("update", false, "rewrite the golden files in testdata from the current writers")

// The golden checkpoint directories pin the durable session state: a
// journal segment plus the checkpoint Server.Checkpoint wrote partway
// through it, produced from fixed inputs under a fake clock. The writer
// half re-runs that scenario and must reproduce goldenCheckpointDir
// byte for byte; the reader half recovers every directory in
// goldenReadDirs (including ones written by older checkpoint writers)
// and must arrive at the sessions an uninterrupted run of the journal's
// records builds.
const goldenCheckpointDir = "checkpoint"

// goldenReadDirs also holds checkpoint-history, written while sessions
// kept a per-snapshot class history (the hist_cap, dropped and history
// state fields): recovery must still read it.
var goldenReadDirs = []string{goldenCheckpointDir, "checkpoint-history"}

// goldenStart is the fake clock's reading when the scenario begins.
var goldenStart = time.Date(2026, 9, 1, 8, 0, 0, 0, time.UTC)

// goldenVM is one session of the scenario: its snapshots are the first
// cut snapshots of each named profiled trace, spliced on a 5-second
// cadence.
type goldenVM struct {
	vm     string
	traces []string
	cut    int
	// class and snapshots are what the recovered session must report.
	class     appclass.Class
	snapshots int
}

// goldenVMs land in distinct registry shards, so Checkpoint serializes
// them in a fixed order.
var goldenVMs = []goldenVM{
	{vm: "golden-a", traces: []string{"SPECseis96_C", "PostMark"}, cut: 40, class: appclass.CPU, snapshots: 80},
	{vm: "golden-b", traces: []string{"Ettcp_train"}, cut: 60, class: appclass.Net, snapshots: 60},
}

// goldenSnapshots builds a goldenVM's snapshot stream.
func goldenSnapshots(t *testing.T, g goldenVM) []metrics.Snapshot {
	t.Helper()
	var out []metrics.Snapshot
	at := 5 * time.Second
	for _, name := range g.traces {
		tr := profiledTrace(t, name)
		if tr.Len() < g.cut {
			t.Fatalf("profiled trace %s has %d snapshots, want at least %d", name, tr.Len(), g.cut)
		}
		for i := 0; i < g.cut; i++ {
			out = append(out, metrics.Snapshot{Time: at, Node: g.vm, Values: tr.At(i).Values})
			at += 5 * time.Second
		}
	}
	return out
}

// writeGoldenCheckpoint runs the scenario into a fresh journal
// directory and returns it: each VM's snapshots go in as 10-snapshot
// batches, one clock second apart, VMs interleaved; the checkpoint is
// taken once half of every VM's batches are in, so the rest is a
// journal tail recovery must replay.
func writeGoldenCheckpoint(t *testing.T) string {
	t.Helper()
	seen := map[int]string{}
	reg := newRegistry(0)
	for _, g := range goldenVMs {
		i := reg.shardIndex(g.vm)
		if other, dup := seen[i]; dup {
			t.Fatalf("%s and %s share registry shard %d; checkpoint order would not be fixed", g.vm, other, i)
		}
		seen[i] = g.vm
	}

	dir := t.TempDir()
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	clk := &fakeClock{t: goldenStart}
	s, err := New(Config{Classifier: classifier(t), Journal: j, Now: clk.now})
	if err != nil {
		t.Fatal(err)
	}
	const batch = 10
	streams := make([][]metrics.Snapshot, len(goldenVMs))
	rounds := 0
	for i, g := range goldenVMs {
		streams[i] = goldenSnapshots(t, g)
		if n := (len(streams[i]) + batch - 1) / batch; n > rounds {
			rounds = n
		}
	}
	for r := 0; r < rounds; r++ {
		if r == rounds/2 {
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		for i, g := range goldenVMs {
			lo := r * batch
			if lo >= len(streams[i]) {
				continue
			}
			hi := min(lo+batch, len(streams[i]))
			if _, _, err := s.observeBatch(g.vm, streams[i][lo:hi], nil, true); err != nil {
				t.Fatal(err)
			}
			clk.advance(time.Second)
		}
	}
	// No Shutdown: the daemon "crashes" here, leaving live sessions, the
	// checkpoint and the journal tail behind.
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// dirFiles reads every regular file in dir, keyed by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(entries))
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// recoverGolden copies a golden directory into a scratch journal
// directory (recovery rewrites checkpoints) and recovers a server from
// it.
func recoverGolden(t *testing.T, golden string) *Server {
	t.Helper()
	dir := t.TempDir()
	for name, b := range dirFiles(t, golden) {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	s := newTestServer(t, Config{Journal: j, Now: (&fakeClock{t: goldenStart}).now})
	rs, err := s.Recover()
	if err != nil {
		t.Fatalf("recover %s: %v", golden, err)
	}
	if rs.Sessions != len(goldenVMs) || rs.Records == 0 || rs.Errors != 0 || rs.Truncated {
		t.Errorf("recover %s: %+v, want %d checkpointed sessions, a replayed tail, no errors", golden, rs, len(goldenVMs))
	}
	return s
}

// replayUninterrupted feeds every batch record of a golden journal into
// a journal-less server, in journal order: the sessions an
// uninterrupted daemon would hold.
func replayUninterrupted(t *testing.T, golden string) *Server {
	t.Helper()
	s := newTestServer(t, Config{})
	_, err := wal.Replay(golden, wal.Position{}, func(_ wal.Position, rec wal.Record) error {
		if rec.Type == wal.RecordBatch {
			_, _, err := s.observeBatch(rec.VM, rec.Snaps, nil, false)
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCheckpointGolden(t *testing.T) {
	t.Run("writer", func(t *testing.T) {
		golden := filepath.Join("testdata", goldenCheckpointDir)
		got := dirFiles(t, writeGoldenCheckpoint(t))
		if *update {
			if err := os.RemoveAll(golden); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(golden, 0o755); err != nil {
				t.Fatal(err)
			}
			for name, b := range got {
				if err := os.WriteFile(filepath.Join(golden, name), b, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		want := dirFiles(t, golden)
		if !reflect.DeepEqual(sortedNames(got), sortedNames(want)) {
			t.Fatalf("writer produced files %v, golden directory holds %v", sortedNames(got), sortedNames(want))
		}
		for name, b := range got {
			if !bytes.Equal(b, want[name]) {
				t.Errorf("%s: writer produced %d bytes that differ from the %d golden bytes", name, len(b), len(want[name]))
			}
		}
	})
	t.Run("reader", func(t *testing.T) {
		for _, name := range goldenReadDirs {
			golden := filepath.Join("testdata", name)
			got := recoverGolden(t, golden)
			want := replayUninterrupted(t, golden)
			for _, g := range goldenVMs {
				gv, wv := sessionView(t, got, g.vm), sessionView(t, want, g.vm)
				if gv.Class != g.class || gv.Total != g.snapshots {
					t.Errorf("%s: %s recovered as class %s with %d snapshots, want %s with %d",
						name, g.vm, gv.Class, gv.Total, g.class, g.snapshots)
				}
				if g.vm == goldenVMs[0].vm && len(gv.Phases) < 2 {
					t.Errorf("%s: %s recovered %d phases, want the spliced regimes apart", name, g.vm, len(gv.Phases))
				}
				if gv.Class != wv.Class || gv.Total != wv.Total ||
					!reflect.DeepEqual(gv.Composition, wv.Composition) ||
					!reflect.DeepEqual(gv.Phases, wv.Phases) ||
					gv.UnknownFraction != wv.UnknownFraction || gv.Drift != wv.Drift {
					t.Errorf("%s: %s recovered view differs from the uninterrupted run:\n got %+v\nwant %+v", name, g.vm, gv, wv)
				}
			}
		}
	})
}
