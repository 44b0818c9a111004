// Package repro's benchmark harness regenerates every table and figure
// of the paper's evaluation (run with `go test -bench=. -benchmem`):
//
//	BenchmarkTable2Registry              Table 2 (application registry)
//	BenchmarkFigure3Clustering           Figure 3 (PCA clustering diagrams)
//	BenchmarkTable3Compositions          Table 3 (class compositions)
//	BenchmarkFigure4Schedules            Figure 4 (ten-schedule throughput)
//	BenchmarkFigure5AppThroughput        Figure 5 (per-application throughput)
//	BenchmarkTable4ConcurrentVsSequential Table 4 (concurrent vs sequential)
//	BenchmarkClassificationCost*         Section 5.3 (per-sample cost)
//
// plus the ablation benches DESIGN.md calls out (PCA component count,
// k-NN neighbour count, expert vs automatic feature selection). The
// custom metrics report reproduction quality: "dominant-match" is the
// fraction of Table-3 rows whose dominant class matches the paper, and
// "margin-pct" is the SPN schedule's throughput margin.
package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/pca"
	"repro/internal/phase"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/testbed"
	"repro/internal/wal"
	"repro/internal/wire"
	"repro/internal/workload"
)

const benchSeed = experiments.DefaultSeed

// profiledRun caches one application's trace so ablation benches can
// re-classify without re-simulating.
type profiledRun struct {
	name    string
	trace   *metrics.Trace
	elapsed time.Duration
	paper   appclass.Class
}

var (
	cacheOnce     sync.Once
	cacheTraining []classify.TrainingRun
	cacheTests    []profiledRun
	cacheErr      error
)

// paperDominantClasses mirrors Table 3's dominant class per row.
var paperDominantClasses = map[string]appclass.Class{
	"SPECseis96_A": appclass.CPU, "SPECseis96_C": appclass.CPU,
	"CH3D": appclass.CPU, "SimpleScalar": appclass.CPU,
	"PostMark": appclass.IO, "Bonnie": appclass.IO,
	"SPECseis96_B": appclass.CPU, "Stream": appclass.IO,
	"PostMark_NFS": appclass.Net, "NetPIPE": appclass.Net,
	"Autobench": appclass.Net, "Sftp": appclass.Net,
	"VMD": appclass.IO, "XSpim": appclass.IO,
}

func loadRuns(b *testing.B) ([]classify.TrainingRun, []profiledRun) {
	b.Helper()
	cacheOnce.Do(func() {
		for _, e := range workload.TrainingSet() {
			res, err := testbed.ProfileEntry(e, benchSeed)
			if err != nil {
				cacheErr = err
				return
			}
			cacheTraining = append(cacheTraining, classify.TrainingRun{Class: e.Expected, Trace: res.Trace})
		}
		for _, e := range workload.TestSet() {
			res, err := testbed.ProfileEntry(e, benchSeed)
			if err != nil {
				cacheErr = err
				return
			}
			cacheTests = append(cacheTests, profiledRun{
				name: e.Name, trace: res.Trace, elapsed: res.Elapsed,
				paper: paperDominantClasses[e.Name],
			})
		}
	})
	if cacheErr != nil {
		b.Fatalf("profile runs: %v", cacheErr)
	}
	return cacheTraining, cacheTests
}

// dominantMatch trains a classifier with cfg and returns the fraction
// of test runs whose dominant class matches the paper's Table 3.
func dominantMatch(b *testing.B, cfg classify.Config) float64 {
	b.Helper()
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, cfg)
	if err != nil {
		b.Fatalf("train: %v", err)
	}
	matched := 0
	for _, run := range tests {
		out, err := cl.ClassifyTrace(run.trace)
		if err != nil {
			b.Fatalf("classify %s: %v", run.name, err)
		}
		if out.Class == run.paper {
			matched++
		}
	}
	return float64(matched) / float64(len(tests))
}

func BenchmarkTable2Registry(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2()
		if len(rows) != 19 {
			b.Fatalf("Table 2 rows = %d", len(rows))
		}
	}
}

func BenchmarkFigure3Clustering(b *testing.B) {
	training, _ := loadRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cl, err := classify.Train(training, classify.Config{})
		if err != nil {
			b.Fatal(err)
		}
		pts, labels := cl.TrainingPoints()
		if pts.Rows() == 0 || len(labels) != pts.Rows() {
			b.Fatal("empty clustering diagram")
		}
	}
}

func BenchmarkTable3Compositions(b *testing.B) {
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var matched, total int
	for i := 0; i < b.N; i++ {
		matched, total = 0, 0
		for _, run := range tests {
			out, err := cl.ClassifyTrace(run.trace)
			if err != nil {
				b.Fatal(err)
			}
			total++
			if out.Class == run.paper {
				matched++
			}
		}
	}
	b.ReportMetric(float64(matched)/float64(total), "dominant-match")
}

func BenchmarkFigure4Schedules(b *testing.B) {
	var margin float64
	for i := 0; i < b.N; i++ {
		results, weighted, err := sched.RunAll(sched.Config{Seed: benchSeed})
		if err != nil {
			b.Fatal(err)
		}
		best := sched.Best(results)
		if best.Schedule != sched.SPN() {
			b.Fatalf("best schedule = %s, want SPN", best.Schedule)
		}
		margin = 100 * (best.SystemThroughput/weighted - 1)
	}
	b.ReportMetric(margin, "margin-pct")
}

func BenchmarkFigure5AppThroughput(b *testing.B) {
	results, _, err := sched.RunAll(sched.Config{Seed: benchSeed})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var spnGain float64
	for i := 0; i < b.N; i++ {
		stats, err := sched.AppThroughputStats(results)
		if err != nil {
			b.Fatal(err)
		}
		spnGain = 0
		for _, k := range sched.Kinds() {
			spnGain += 100 * (stats[k].SPN/stats[k].Avg - 1) / 3
		}
	}
	b.ReportMetric(spnGain, "spn-gain-pct")
}

func BenchmarkTable4ConcurrentVsSequential(b *testing.B) {
	var speedup float64
	for i := 0; i < b.N; i++ {
		res, err := sched.ConcurrentVsSequential(benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		if res.ConcurrentMakespan >= res.SequentialTotal {
			b.Fatal("concurrent did not beat sequential")
		}
		speedup = 100 * res.Speedup()
	}
	b.ReportMetric(speedup, "speedup-pct")
}

// BenchmarkClassificationCostPerSample measures the Section 5.3 unit
// classification cost: one snapshot through the fused affine kernel
// (gathered mat-vec) and the integer-label 3-NN vote, with caller-owned
// scratch — the daemon's steady-state hot path, which must stay at
// 0 allocs/op (the paper's per-sample figure was ~15 ms on a 750 MHz
// Pentium III; see docs/performance.md for the staged-pipeline
// baseline this replaced).
func BenchmarkClassificationCostPerSample(b *testing.B) {
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	trace := tests[0].trace
	subset, err := cl.GatherIndices(trace.Schema())
	if err != nil {
		b.Fatal(err)
	}
	var s classify.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := trace.At(i % trace.Len())
		if _, err := cl.ClassifySnapshotScratch(subset, snap.Values, &s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassificationCostPerSampleConvenience measures the
// schema-based convenience path (per-call scratch), the cost a caller
// pays without holding a classify.Scratch.
func BenchmarkClassificationCostPerSampleConvenience(b *testing.B) {
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	trace := tests[0].trace
	schema := trace.Schema()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := trace.At(i % trace.Len())
		if _, err := cl.ClassifySnapshot(schema, snap.Values); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkIngestBatch measures daemon-level ingest throughput: a batch
// of snapshots from many VMs posted to /v1/ingest, decoded, grouped by
// VM, and classified under one session-lock acquisition per VM. The
// snaps/s metric is whole-pipeline throughput including JSON
// encode/decode.
func BenchmarkIngestBatch(b *testing.B) {
	benchIngestBatch(b, nil, false, false)
}

// BenchmarkIngestBatchJournaled is the same pipeline with write-ahead
// journaling on (fsync=interval, the daemon default): every batch is
// appended to the journal before classification. The acceptance bar is
// staying within 25% of the unjournaled snaps/s.
func BenchmarkIngestBatchJournaled(b *testing.B) {
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncInterval,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	benchIngestBatch(b, j, false, false)
}

// BenchmarkIngestBatchJournaledSegmented layers the phase-aware
// extension on the journaled pipeline: online segmentation and the
// open-set unknown test run on every snapshot (the daemon defaults).
// The acceptance bar is staying within 10% of the journaled snaps/s
// measured in the same run (see BENCH_baseline.json).
func BenchmarkIngestBatchJournaledSegmented(b *testing.B) {
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncInterval,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	benchIngestBatch(b, j, true, false)
}

// BenchmarkIngestBatchJournaledSegmentedScrubbed adds the background
// storage scrubber to the full journaled+segmented pipeline,
// re-verifying one sealed segment per tick while ingest is hot. The
// 500ms cadence is still ~100x hotter than any sane production
// setting (-scrub-every of minutes): one tick streams an 8MiB segment
// for ~6ms of CPU (measured by an isolated A/B at a 100ms cadence),
// so expected steady-state overhead here is ~1.2% — the acceptance
// bar is <= 2%, and CI gates the same-run snaps/s ratio at a wider
// floor only to absorb shared-runner drift (see BENCH_baseline.json).
func BenchmarkIngestBatchJournaledSegmentedScrubbed(b *testing.B) {
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncInterval,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	benchIngestBatch(b, j, true, true)
}

func benchIngestBatch(b *testing.B, journal *wal.Journal, segmented, scrubbed bool) {
	b.Helper()
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	schema := tests[0].trace.Schema()
	cfg := server.Config{Classifier: cl, Schema: schema, Journal: journal}
	if scrubbed {
		cfg.ScrubEvery = 500 * time.Millisecond
	}
	if !segmented {
		// Baseline pipelines measure ingest without the phase-aware
		// extension: segmentation and the open-set test disabled.
		cfg.SegmentWindow = -1
		cfg.UnknownSlack = -1
	}
	srv, err := server.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	srv.StartScrubber()
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})

	// Prebuild request bodies: 16 VMs interleaved, 8 snapshots each per
	// batch, values drawn from the profiled test traces.
	const vms, perVM = 16, 8
	type snapJSON struct {
		VM          string    `json:"vm"`
		TimeSeconds float64   `json:"time_s"`
		Values      []float64 `json:"values"`
	}
	var bodies [][]byte
	for batch := 0; batch < 4; batch++ {
		var snaps []snapJSON
		for j := 0; j < perVM; j++ {
			for v := 0; v < vms; v++ {
				trace := tests[(batch+v)%len(tests)].trace
				snap := trace.At((batch*perVM + j) % trace.Len())
				snaps = append(snaps, snapJSON{
					VM:          fmt.Sprintf("bench-vm-%02d", v),
					TimeSeconds: float64(batch*perVM+j) * 5,
					Values:      snap.Values,
				})
			}
		}
		body, err := json.Marshal(map[string]any{"snapshots": snaps})
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, body)
	}

	h := srv.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(bodies[i%len(bodies)]))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*vms*perVM)/b.Elapsed().Seconds(), "snaps/s")
}

// BenchmarkObserveWithSegmentation measures the streaming classifier's
// per-snapshot cost with the full phase-aware extension attached:
// fused-kernel classification, open-set distance test, and the
// change-point segmenter all run on every Observe. Steady state must
// stay allocation-free — the segmenter's ring reuses its entries and
// phase splits amortize to zero — and CI gates on 0 allocs/op.
func BenchmarkObserveWithSegmentation(b *testing.B) {
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	trace := tests[0].trace
	online, err := classify.NewOnline(cl, trace.Schema())
	if err != nil {
		b.Fatal(err)
	}
	online.EnableSegmentation(phaseDefaults())
	oset, err := cl.CalibrateOpenSet(classify.OpenSetConfig{})
	if err != nil {
		b.Fatal(err)
	}
	online.EnableOpenSet(oset)

	// Warm up past the transient allocations: fill the segmenter ring
	// and the first phase accumulators.
	const cadence = 5 * time.Second
	at := time.Duration(0)
	feed := func(n int) {
		for i := 0; i < n; i++ {
			snap := trace.At(i % trace.Len())
			at += cadence
			if _, err := online.Observe(metrics.Snapshot{Time: at, Node: snap.Node, Values: snap.Values}); err != nil {
				b.Fatal(err)
			}
		}
	}
	feed(2 * trace.Len())

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := trace.At(i % trace.Len())
		at += cadence
		if _, err := online.Observe(metrics.Snapshot{Time: at, Node: snap.Node, Values: snap.Values}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if online.PhaseCount() == 0 {
		b.Fatal("segmenter never produced a phase")
	}
}

// phaseDefaults returns the daemon's default segmentation config.
func phaseDefaults() phase.Config { return phase.Config{} }

// BenchmarkJournalAppend measures the write-ahead journal's append path
// in isolation: an 8-snapshot batch encoded (length prefix + CRC32C +
// binary payload) and written to the active segment. With fsync=never
// the encode buffer is reused and the path must stay at 0 allocs/op
// (rotation and retention pruning amortize to zero); CI gates on it.
func BenchmarkJournalAppend(b *testing.B) {
	_, tests := loadRuns(b)
	trace := tests[0].trace
	snaps := make([]metrics.Snapshot, 8)
	for i := range snaps {
		snaps[i] = trace.At(i % trace.Len())
	}
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncNever,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	// Warm the reused encode buffer so growth isn't charged to the loop.
	if _, err := j.AppendBatch("bench-vm", snaps); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := j.AppendBatch("bench-vm", snaps); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(snaps))/b.Elapsed().Seconds(), "snaps/s")
}

// BenchmarkClassificationCostTraining measures the train+PCA side of
// the Section 5.3 cost (the paper: 50 s for training plus
// classification of 8000 samples).
func BenchmarkClassificationCostTraining(b *testing.B) {
	training, _ := loadRuns(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := classify.Train(training, classify.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: the paper fixes q = 2 principal components. Sweep q and
// report reproduction accuracy per setting.
func BenchmarkAblationPCAComponents(b *testing.B) {
	for _, q := range []int{1, 2, 3, 4, 8} {
		q := q
		name := fmt.Sprintf("components-%d", q)
		if q == 2 {
			name += "(paper)"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = dominantMatch(b, classify.Config{Components: q})
			}
			b.ReportMetric(acc, "dominant-match")
		})
	}
}

// Ablation: the paper fixes k = 3 neighbours. Sweep k.
func BenchmarkAblationKNN(b *testing.B) {
	for _, k := range []int{1, 3, 5, 7} {
		k := k
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = dominantMatch(b, classify.Config{K: k})
			}
			b.ReportMetric(acc, "dominant-match")
		})
	}
}

// Ablation: expert 8-metric preselection (Table 1) vs the full
// 33-metric schema vs the automated relevance/redundancy selector the
// paper leaves as future work.
func BenchmarkAblationExpertSelection(b *testing.B) {
	training, _ := loadRuns(b)

	// Build the automated selection once from pooled training data.
	var rows [][]float64
	for _, run := range training {
		m := run.Trace.Matrix()
		for i := 0; i < m.Rows(); i++ {
			rows = append(rows, m.Row(i))
		}
	}
	pooled, err := linalg.FromRows(rows)
	if err != nil {
		b.Fatalf("pool training rows: %v", err)
	}
	kept, err := pca.SelectFeatures(pooled, 8, 0.95)
	if err != nil {
		b.Fatalf("auto selection: %v", err)
	}
	names := training[0].Trace.Schema().Names()
	var autoNames []string
	for _, j := range kept {
		autoNames = append(autoNames, names[j])
	}

	cases := []struct {
		name    string
		metrics []string
	}{
		{"expert-8(paper)", metrics.ExpertNames()},
		{"all-33", metrics.DefaultNames()},
		{"auto-selected", autoNames},
	}
	for _, c := range cases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = dominantMatch(b, classify.Config{ExpertMetrics: c.metrics})
			}
			b.ReportMetric(acc, "dominant-match")
		})
	}
}

// dominantMatchOpts re-profiles training and test runs with custom
// testbed options and scores dominant-class reproduction, for the
// sampling-interval and transport-loss ablations.
func dominantMatchOpts(b *testing.B, opts testbed.Options) float64 {
	b.Helper()
	var training []classify.TrainingRun
	for _, e := range workload.TrainingSet() {
		res, err := testbed.ProfileEntryOpts(e, benchSeed, opts)
		if err != nil {
			b.Fatalf("profile %s: %v", e.Name, err)
		}
		training = append(training, classify.TrainingRun{Class: e.Expected, Trace: res.Trace})
	}
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	matched, total := 0, 0
	for _, e := range workload.TestSet() {
		res, err := testbed.ProfileEntryOpts(e, benchSeed, opts)
		if err != nil {
			b.Fatalf("profile %s: %v", e.Name, err)
		}
		out, err := cl.ClassifyTrace(res.Trace)
		if err != nil {
			b.Fatal(err)
		}
		total++
		if out.Class == paperDominantClasses[e.Name] {
			matched++
		}
	}
	return float64(matched) / float64(total)
}

// Ablation: the paper samples every d = 5 seconds. Sweep the sampling
// interval.
func BenchmarkAblationSamplingInterval(b *testing.B) {
	for _, d := range []time.Duration{time.Second, 5 * time.Second, 15 * time.Second, 30 * time.Second} {
		d := d
		name := d.String()
		if d == 5*time.Second {
			name += "(paper)"
		}
		b.Run(name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = dominantMatchOpts(b, testbed.Options{SampleInterval: d})
			}
			b.ReportMetric(acc, "dominant-match")
		})
	}
}

// Ablation: classification robustness under multicast packet loss, with
// the skip-incomplete performance filter. A complete snapshot needs all
// 33 announcements, so per-snapshot survival is (1-loss)^33: ~72% at 1%
// loss, ~18% at 5%; beyond ~8% loss short runs keep no complete
// snapshot at all — the protocol's cliff.
func BenchmarkAblationTransportLoss(b *testing.B) {
	for _, loss := range []float64{0, 0.01, 0.02, 0.05} {
		loss := loss
		b.Run(fmt.Sprintf("loss-%.0f%%", 100*loss), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = dominantMatchOpts(b, testbed.Options{LossRate: loss})
			}
			b.ReportMetric(acc, "dominant-match")
		})
	}
}

// BenchmarkHotSwap measures a model promote against a daemon with live
// journaled sessions: each op is one full promote (open-set
// recalibration, journal restamp, session rebind, registry flip, and
// the post-swap checkpoint). The custom pause-ns/op metric is the
// quiesced swap window alone — the stretch ingest actually blocks —
// which BENCH_baseline.json pins and CI gates on staying under 50ms.
func BenchmarkHotSwap(b *testing.B) {
	training, tests := loadRuns(b)
	active, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	// A second model over the same expert metrics (different k so the
	// compatibility hash differs).
	cand, err := classify.Train(training, classify.Config{K: 5})
	if err != nil {
		b.Fatal(err)
	}
	modelDir := b.TempDir()
	if err := modelreg.SaveFile(filepath.Join(modelDir, "cand.json"), cand); err != nil {
		b.Fatal(err)
	}
	j, err := wal.Open(wal.Config{Dir: b.TempDir(), Fsync: wal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	srv, err := server.New(server.Config{
		Classifier: active, Schema: tests[0].trace.Schema(),
		Journal: j, ModelDir: modelDir,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()

	// 64 live sessions with some accumulated state: these are what the
	// quiesce has to rebind.
	const vms, perVM = 64, 8
	for v := 0; v < vms; v++ {
		trace := tests[v%len(tests)].trace
		var snaps []map[string]any
		for i := 0; i < perVM; i++ {
			snap := trace.At(i % trace.Len())
			snaps = append(snaps, map[string]any{
				"vm": fmt.Sprintf("swap-vm-%02d", v), "time_s": float64(i) * 5, "values": snap.Values,
			})
		}
		body, err := json.Marshal(map[string]any{"snapshots": snaps})
		if err != nil {
			b.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/ingest", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("ingest: %d %s", w.Code, w.Body)
		}
	}

	bootID := srv.ActiveModelID()
	req := httptest.NewRequest(http.MethodPost, "/v1/models", bytes.NewReader([]byte(`{"path":"cand.json"}`)))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		b.Fatalf("load candidate: %d %s", w.Code, w.Body)
	}
	var loaded struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &loaded); err != nil {
		b.Fatal(err)
	}

	// Ping-pong between the two registered models.
	ids := [2]string{loaded.ID, bootID}
	var totalPause time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pause, err := srv.Promote(ids[i%2])
		if err != nil {
			b.Fatal(err)
		}
		totalPause += pause
	}
	b.StopTimer()
	b.ReportMetric(float64(totalPause.Nanoseconds())/float64(b.N), "pause-ns/op")
}

// replayBody is a rewindable request body that costs nothing per
// request: a bytes.Reader with a no-op Close.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// benchRW is the cheapest possible ResponseWriter — it records the
// status and discards the body — so the allocations the benchmark
// reports belong to the ingest path, not the test harness.
type benchRW struct {
	hdr  http.Header
	code int
}

func (w *benchRW) Header() http.Header         { return w.hdr }
func (w *benchRW) WriteHeader(code int)        { w.code = code }
func (w *benchRW) Write(p []byte) (int, error) { return len(p), nil }

// binHandshake opens one binary-ingest stream over the handler and
// returns its stream ID.
func binHandshake(b *testing.B, h http.Handler, schema *metrics.Schema) uint64 {
	b.Helper()
	buf, start := wire.BeginFrame(nil)
	buf = wire.AppendHello(buf, wire.Hello{Version: wire.Version, Metrics: schema.Names()})
	buf = wire.EndFrame(buf, start)
	req := httptest.NewRequest(http.MethodPost, "/v1/ingest.bin", bytes.NewReader(buf))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("binary handshake: %d %s", w.Code, w.Body)
	}
	payload, _, err := wire.NextFrame(w.Body.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	ack, err := wire.ParseHelloAck(payload)
	if err != nil {
		b.Fatal(err)
	}
	return ack.StreamID
}

// binBenchBodies prebuilds framed binary batches with the same shape
// and values as the JSON bench bodies: 16 VMs x 8 snapshots per batch,
// values drawn from the profiled test traces, columns in schema order.
func binBenchBodies(b *testing.B, tests []profiledRun, schema *metrics.Schema, streamID uint64, vmPrefix string) [][]byte {
	b.Helper()
	const vms, perVM = 16, 8
	var bodies [][]byte
	for batch := 0; batch < 4; batch++ {
		groups := make([]wire.Group, vms)
		for v := 0; v < vms; v++ {
			g := wire.Group{VM: fmt.Sprintf("%s%02d", vmPrefix, v)}
			trace := tests[(batch+v)%len(tests)].trace
			for j := 0; j < perVM; j++ {
				snap := trace.At((batch*perVM + j) % trace.Len())
				g.Times = append(g.Times, float64(batch*perVM+j)*5)
				g.Rows = append(g.Rows, snap.Values)
			}
			groups[v] = g
		}
		buf, start := wire.BeginFrame(nil)
		buf, err := wire.AppendBatch(buf, streamID, schema.Len(), groups)
		if err != nil {
			b.Fatal(err)
		}
		bodies = append(bodies, wire.EndFrame(buf, start))
	}
	return bodies
}

// BenchmarkIngestBinary measures the binary columnar fast path
// end-to-end through the HTTP handler: framed batches decoded
// zero-copy out of a pooled body buffer, scattered through the
// negotiated column table, and classified. The acceptance bars are >= 5x
// BenchmarkIngestBatch's snaps/s and single-digit allocs/op, both
// CI-gated.
func BenchmarkIngestBinary(b *testing.B) {
	benchIngestBinary(b, nil, false)
}

// BenchmarkIngestBinaryJournaled layers write-ahead journaling
// (fsync=interval, the daemon default) on the binary path, with
// concurrent senders — the configuration the group-commit variant is
// judged against.
func BenchmarkIngestBinaryJournaled(b *testing.B) {
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncInterval,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	benchIngestBinary(b, j, true)
}

// BenchmarkIngestBinaryJournaledGroupCommit runs the binary path with
// fsync=always, which group-commits: concurrent appends coalesce into
// shared fsyncs, so every acknowledged batch is on stable storage
// while throughput stays within 2x of fsync=interval (the CI gate,
// measured against BenchmarkIngestBinaryJournaled in the same run).
func BenchmarkIngestBinaryJournaledGroupCommit(b *testing.B) {
	j, err := wal.Open(wal.Config{
		Dir:      b.TempDir(),
		Fsync:    wal.FsyncAlways,
		MaxBytes: 64 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = j.Close() })
	benchIngestBinary(b, j, true)
}

func benchIngestBinary(b *testing.B, journal *wal.Journal, parallel bool) {
	b.Helper()
	training, tests := loadRuns(b)
	cl, err := classify.Train(training, classify.Config{})
	if err != nil {
		b.Fatal(err)
	}
	schema := tests[0].trace.Schema()
	srv, err := server.New(server.Config{
		Classifier: cl, Schema: schema, Journal: journal,
		// Match the JSON baseline: segmentation and the open-set test off.
		SegmentWindow: -1, UnknownSlack: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	h := srv.Handler()
	const vms, perVM = 16, 8

	b.ReportAllocs()
	if !parallel {
		streamID := binHandshake(b, h, schema)
		bodies := binBenchBodies(b, tests, schema, streamID, "bench-vm-")
		readers := make([]*replayBody, len(bodies))
		reqs := make([]*http.Request, len(bodies))
		for i, body := range bodies {
			readers[i] = &replayBody{}
			req := httptest.NewRequest(http.MethodPost, "/v1/ingest.bin", nil)
			req.Body = readers[i]
			req.ContentLength = int64(len(body))
			reqs[i] = req
		}
		rw := &benchRW{hdr: make(http.Header)}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(bodies)
			readers[k].Reset(bodies[k])
			rw.code = 0
			h.ServeHTTP(rw, reqs[k])
			if rw.code != http.StatusOK {
				b.Fatalf("ingest.bin: %d", rw.code)
			}
		}
		b.StopTimer()
	} else {
		// Concurrent senders, each on its own stream with its own VMs —
		// the multi-writer shape group commit exists for. Parallelism is
		// raised so a single-core runner still drives overlapping appends.
		b.SetParallelism(8)
		var slot atomic.Int64
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			s := slot.Add(1) - 1
			streamID := binHandshake(b, h, schema)
			bodies := binBenchBodies(b, tests, schema, streamID, fmt.Sprintf("bench-vm-%02d-", s))
			readers := make([]*replayBody, len(bodies))
			reqs := make([]*http.Request, len(bodies))
			for i, body := range bodies {
				readers[i] = &replayBody{}
				req := httptest.NewRequest(http.MethodPost, "/v1/ingest.bin", nil)
				req.Body = readers[i]
				req.ContentLength = int64(len(body))
				reqs[i] = req
			}
			rw := &benchRW{hdr: make(http.Header)}
			i := 0
			for pb.Next() {
				k := i % len(bodies)
				i++
				readers[k].Reset(bodies[k])
				rw.code = 0
				h.ServeHTTP(rw, reqs[k])
				if rw.code != http.StatusOK {
					b.Errorf("ingest.bin: %d", rw.code)
					return
				}
			}
		})
		b.StopTimer()
	}
	b.ReportMetric(float64(b.N*vms*perVM)/b.Elapsed().Seconds(), "snaps/s")
}
