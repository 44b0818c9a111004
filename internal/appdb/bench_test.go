package appdb

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appstore"
	"repro/internal/phase"
)

// benchRecord is a representative finalized run: a mixed composition, a
// verdict, a model stamp — what the daemon writes on every finalize.
func benchRecord(i int) Record {
	classes := appclass.All()
	c := classes[i%len(classes)]
	comp := map[appclass.Class]float64{c: 1}
	if c != appclass.Idle {
		comp = map[appclass.Class]float64{c: 0.8, appclass.Idle: 0.2}
	}
	return Record{
		App:           fmt.Sprintf("app-%03d", i%100),
		Class:         c,
		Composition:   comp,
		ExecutionTime: time.Duration(i%600+1) * time.Second,
		Samples:       i%600 + 1,
		FinalizedAt:   int64(1_700_000_000+i) * int64(time.Second),
		Verdict:       c,
		ModelID:       "cafe0123beef",
	}
}

// BenchmarkFinalizeAppend is one finalize against the segmented store
// holding 10k prior records: a single framed append plus fsync,
// independent of database size. CI gates it >= 10x faster than
// BenchmarkFinalizeSaveFile measured in the same run.
func BenchmarkFinalizeAppend(b *testing.B) {
	db, err := Open(filepath.Join(b.TempDir(), "store"), appstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 10_000; i++ {
		if err := db.Put(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRecord(10_000 + i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFinalizeSaveFile is the legacy persistence the store
// replaces: every finalize rewrote the whole 10k-record database to a
// JSON file, O(n) per finalize.
func BenchmarkFinalizeSaveFile(b *testing.B) {
	db := New()
	for i := 0; i < 10_000; i++ {
		if err := db.Put(benchRecord(i)); err != nil {
			b.Fatal(err)
		}
	}
	path := filepath.Join(b.TempDir(), "db.json")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Put(benchRecord(10_000 + i)); err != nil {
			b.Fatal(err)
		}
		if err := db.SaveFile(path); err != nil {
			b.Fatal(err)
		}
	}
}

// Shape of the dictionary benchmark's store: 1,000 applications of 20
// runs each, every run fingerprinted and each application's newest run
// carrying a full training reservoir (256 rows of 8 metrics), as a
// daemon finalize with sampling on writes it.
const (
	dictBenchApps   = 1000
	dictBenchRuns   = 20
	dictBenchRows   = 256
	dictBenchMetric = 8
)

// dictBenchRecord is run r of application a: two to four phases with
// 2-d centroids and, when withReservoir, a training reservoir.
func dictBenchRecord(rng *rand.Rand, a, r int, withReservoir bool) Record {
	classes := appclass.All()
	var sigs []phase.PhaseSig
	left := 1.0
	for p, n := 0, 2+rng.Intn(3); p < n; p++ {
		frac := left
		if p < n-1 {
			frac = left * (0.2 + 0.6*rng.Float64())
		}
		left -= frac
		sigs = append(sigs, phase.PhaseSig{
			Class:    classes[rng.Intn(len(classes))],
			DurFrac:  frac,
			Centroid: []float64{3 * rng.NormFloat64(), 3 * rng.NormFloat64()},
		})
	}
	rec := benchRecord(a*dictBenchRuns + r)
	rec.App = fmt.Sprintf("app-%04d", a)
	rec.Fingerprint = &phase.Fingerprint{Phases: sigs}
	if withReservoir {
		rec.TrainMetrics = make([]string, dictBenchMetric)
		for m := range rec.TrainMetrics {
			rec.TrainMetrics[m] = fmt.Sprintf("metric_%d", m)
		}
		rec.TrainSamples = make([][]float64, dictBenchRows)
		for i := range rec.TrainSamples {
			row := make([]float64, dictBenchMetric)
			for m := range row {
				row[m] = rng.Float64() * 1e6
			}
			rec.TrainSamples[i] = row
		}
	}
	return rec
}

// writeDictBenchStore builds the dictionary benchmark's store without
// per-append fsyncs and returns its directory.
func writeDictBenchStore(b *testing.B, rng *rand.Rand) string {
	b.Helper()
	dir := filepath.Join(b.TempDir(), "store")
	db, err := Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		b.Fatal(err)
	}
	for r := 0; r < dictBenchRuns; r++ {
		for a := 0; a < dictBenchApps; a++ {
			if err := db.Put(dictBenchRecord(rng, a, r, r == dictBenchRuns-1)); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := db.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkFinalizeWithDictionary is the store side of one daemon
// finalize: read the fingerprint dictionary, match the run against it,
// append the run (fsynced, reservoir included) — against 1,000
// applications × 20 runs. The dictionary is read once before the timer,
// as the daemon's first finish after start fills it. CI gates it
// against BenchmarkFinalizeAppend measured in the same run.
func BenchmarkFinalizeWithDictionary(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	db, err := Open(writeDictBenchStore(b, rng), appstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if n := len(db.Fingerprints()); n != dictBenchApps {
		b.Fatalf("dictionary holds %d apps, want %d", n, dictBenchApps)
	}
	runs := make([]Record, 64)
	for i := range runs {
		runs[i] = dictBenchRecord(rng, i, dictBenchRuns, true)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := runs[i%len(runs)]
		rec.App = fmt.Sprintf("app-%04d", (i*37)%dictBenchApps)
		if m, ok := phase.BestMatch(*rec.Fingerprint, db.Fingerprints()); ok && m.Score >= phase.DefaultMatchThreshold {
			rec.MatchedApp, rec.MatchScore = m.App, m.Score
		}
		if err := db.Put(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDictionaryColdFill is the first dictionary read after open on
// the same store: every application's newest fingerprinted record is
// read from disk.
func BenchmarkDictionaryColdFill(b *testing.B) {
	dir := writeDictBenchStore(b, rand.New(rand.NewSource(1)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db, err := Open(dir, appstore.Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if n := len(db.Fingerprints()); n != dictBenchApps {
			b.Fatalf("dictionary holds %d apps, want %d", n, dictBenchApps)
		}
		b.StopTimer()
		db.Close()
		b.StartTimer()
	}
}
