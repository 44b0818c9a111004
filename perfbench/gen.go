package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/modelreg"
	"repro/internal/phase"
	"repro/internal/testbed"
	"repro/internal/wal"
	"repro/internal/wire"
	registry "repro/internal/workload"
)

// Input-generation constants. Every input the daemon sees is derived
// from these and the workload seed; nothing depends on wall-clock time.
const (
	// modelSeed trains the served model. It is fixed rather than derived
	// from the workload seed: the model is part of the system under test,
	// and a per-seed model would move k-NN cost between seeds.
	modelSeed = 1
	// corpusVariants is how many profiled runs of each application the
	// trace corpus holds.
	corpusVariants = 4
	// sampleSeconds is the paper's sampling interval d.
	sampleSeconds = 5.0
	// fixtureEpoch stamps the store fixture's finalize times, well before
	// any run the benchmark finalizes.
	fixtureEpoch = int64(1577836800) * int64(time.Second) // 2020-01-01T00:00:00Z
)

// excludedApps are registry entries whose profiled runs are thousands of
// snapshots long; profiling them would dominate input generation without
// adding a behaviour the short runs lack.
var excludedApps = map[string]bool{"SPECseis96_A": true, "SPECseis96_B": true}

// trace is one profiled application run: full schema-ordered snapshot
// rows and each row's expected per-snapshot class under the served model.
type trace struct {
	app     string
	rows    [][]float64
	classes []appclass.Class
}

// stream is one VM's endless snapshot stream: its trace replayed
// cyclically from a seeded offset, one snapshot every sampleSeconds.
type stream struct {
	vm  string
	tr  *trace
	off int
}

func (s *stream) row(i int) []float64        { return s.tr.rows[(s.off+i)%len(s.tr.rows)] }
func (s *stream) class(i int) appclass.Class { return s.tr.classes[(s.off+i)%len(s.tr.classes)] }

// timeOf is snapshot i's time in seconds (strictly increasing from d).
func timeOf(i int) float64 { return float64(i+1) * sampleSeconds }

// inputs holds everything generated once per run, before any timing.
type inputs struct {
	schema    *metrics.Schema
	modelPath string
	// cl is the served model as the daemon loads it (read back from
	// modelPath), so expected classes come from the identical model.
	cl     *classify.Classifier
	hash   modelreg.Hash
	traces []*trace
}

// genInputs trains and saves the model and profiles the trace corpus:
// corpusVariants runs of every short registry application, classes
// mixed. The corpus, like the model, is the same for every seed, so the
// per-snapshot cost mix does not move between seeds; the seed decides
// which VM replays which run, from where, and when.
func genInputs(dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	svc, err := core.NewService(core.Options{Seed: modelSeed})
	if err != nil {
		return nil, fmt.Errorf("train model: %w", err)
	}
	var buf bytes.Buffer
	if err := svc.Classifier().Save(&buf); err != nil {
		return nil, err
	}
	in := &inputs{schema: metrics.DefaultSchema(), modelPath: filepath.Join(dir, "model.json")}
	if err := os.WriteFile(in.modelPath, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if in.cl, err = classify.Load(bytes.NewReader(buf.Bytes())); err != nil {
		return nil, err
	}
	if in.hash, err = modelreg.HashClassifier(in.cl, modelreg.DefaultParams()); err != nil {
		return nil, err
	}
	var entries []registry.Entry
	for _, set := range [][]registry.Entry{registry.TrainingSet(), registry.TestSet(), registry.ExtendedSet()} {
		for _, e := range set {
			if !excludedApps[e.Name] {
				entries = append(entries, e)
			}
		}
	}
	for variant := 0; variant < corpusVariants; variant++ {
		for i, e := range entries {
			run, err := testbed.ProfileEntry(e, int64(1000*variant+i+1))
			if err != nil {
				return nil, fmt.Errorf("profile %s: %w", e.Name, err)
			}
			tr := &trace{app: e.Name}
			for i := 0; i < run.Trace.Len(); i++ {
				vals := append([]float64(nil), run.Trace.At(i).Values...)
				c, err := in.cl.ClassifySnapshot(in.schema, vals)
				if err != nil {
					return nil, err
				}
				tr.rows = append(tr.rows, vals)
				tr.classes = append(tr.classes, c)
			}
			in.traces = append(in.traces, tr)
		}
	}
	return in, nil
}

// fleet builds n VM streams. VM v replays corpus run (v+shift) mod
// len(traces) from a seeded offset, with a seeded shift, so every seed
// gets the same application (and class) mix.
func (in *inputs) fleet(prefix string, n int, rng *rand.Rand) []*stream {
	out := make([]*stream, n)
	shift := rng.Intn(len(in.traces))
	for v := range out {
		tr := in.traces[(v+shift)%len(in.traces)]
		out[v] = &stream{vm: fmt.Sprintf("%s-%05d", prefix, v), tr: tr, off: rng.Intn(len(tr.rows))}
	}
	return out
}

// wireGroup is one VM's rows [from, from+n) of its stream as a batch group.
func wireGroup(s *stream, from, n int) wire.Group {
	g := wire.Group{VM: s.vm, Times: make([]float64, n), Rows: make([][]float64, n)}
	for r := 0; r < n; r++ {
		g.Times[r] = timeOf(from + r)
		g.Rows[r] = s.row(from + r)
	}
	return g
}

// encodeBatch frames one batch request body for streamID.
func encodeBatch(dst []byte, streamID uint64, cols int, groups []wire.Group) ([]byte, error) {
	buf, start := wire.BeginFrame(dst[:0])
	buf, err := wire.AppendBatch(buf, streamID, cols, groups)
	if err != nil {
		return nil, err
	}
	return wire.EndFrame(buf, start), nil
}

// helloBody frames the stream handshake naming every schema metric in
// schema order, so wire column i is schema index i.
func helloBody(schema *metrics.Schema) []byte {
	buf, start := wire.BeginFrame(nil)
	buf = wire.AppendHello(buf, wire.Hello{Version: wire.Version, Metrics: schema.Names()})
	return wire.EndFrame(buf, start)
}

// appendJSONSnapshot appends one snapshot object of the JSON ingest
// body. Floats use the shortest exact representation, so the daemon
// decodes the very values the expected classes were computed from.
func appendJSONSnapshot(b []byte, vm string, t float64, vals []float64) []byte {
	b = append(b, `{"vm":"`...)
	b = append(b, vm...)
	b = append(b, `","time_s":`...)
	b = strconv.AppendFloat(b, t, 'g', -1, 64)
	b = append(b, `,"values":[`...)
	for i, v := range vals {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendFloat(b, v, 'g', -1, 64)
	}
	return append(b, "]}"...)
}

// writeJournalFixture journals the first perVM snapshots of every
// stream through the wal API, stamped with the served model's hash and
// with no checkpoint, so a daemon started on it recovers by replaying
// and reclassifying every record. Groups of rows snapshots per record,
// VMs interleaved as live ingest would interleave them.
func writeJournalFixture(dir string, h modelreg.Hash, fleet []*stream, perVM, rows int) (snaps int, err error) {
	j, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		return 0, err
	}
	if err := j.SetModelHash(h); err != nil {
		j.Close()
		return 0, err
	}
	batch := make([]metrics.Snapshot, rows)
	for from := 0; from < perVM; from += rows {
		for _, s := range fleet {
			for r := range batch {
				batch[r] = metrics.Snapshot{Time: secs(timeOf(from + r)), Node: s.vm, Values: s.row(from + r)}
			}
			if _, err := j.AppendBatch(s.vm, batch); err != nil {
				j.Close()
				return 0, err
			}
			snaps += rows
		}
	}
	if err := j.Sync(); err != nil {
		j.Close()
		return 0, err
	}
	return snaps, j.Close()
}

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// appName is pool member i of the run-lifecycle application pool.
func appName(i int) string { return fmt.Sprintf("app-%04d", i) }

// writeStoreFixture fills a store through the appdb API with perApp
// records for each of apps applications, every one fingerprinted, so the
// dictionary a finalize matches against holds exactly apps entries.
// Each app's newest record — its dictionary entry — is a copy of a run
// the daemon itself would write (one of templates: phases, fingerprint
// and training reservoir from offline classify.Online), so finalizing
// more runs does not change what a dictionary read costs. Older records
// carry 2–4 synthetic phases with seeded classes, lengths and centroids.
func writeStoreFixture(dir string, seed int64, apps, perApp int, templates []*runTrace) error {
	db, err := appdb.Open(dir, appstore.Options{NoFsync: true})
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	classes := appclass.All()
	seq := int64(0)
	for r := 0; r < perApp; r++ {
		for a := 0; a < apps; a++ {
			var rec appdb.Record
			if r == perApp-1 {
				rec = templates[rng.Intn(len(templates))].rec
			} else {
				rec = syntheticRecord(rng, classes)
			}
			rec.App = appName(a)
			rec.FinalizedAt = fixtureEpoch + seq*int64(time.Second)
			seq++
			if err := db.Put(rec); err != nil {
				db.Close()
				return err
			}
		}
	}
	return db.Close()
}

func syntheticRecord(rng *rand.Rand, classes []appclass.Class) appdb.Record {
	n := 2 + rng.Intn(3)
	var phases []phase.Phase
	comp := map[appclass.Class]float64{}
	total := 0
	at := time.Duration(0)
	for p := 0; p < n; p++ {
		c := classes[rng.Intn(len(classes))]
		snaps := 50 + rng.Intn(60)
		end := at + time.Duration(snaps-1)*secs(sampleSeconds)
		phases = append(phases, phase.Phase{
			Class: c, Start: at, End: end, Snapshots: snaps,
			Composition: map[appclass.Class]float64{c: 1},
			Centroid:    []float64{rng.NormFloat64() * 3, rng.NormFloat64() * 3},
		})
		comp[c] += float64(snaps)
		total += snaps
		at = end + secs(sampleSeconds)
	}
	best, bestN := classes[0], -1.0
	for _, c := range classes {
		if comp[c] > bestN {
			best, bestN = c, comp[c]
		}
	}
	for c := range comp {
		comp[c] /= float64(total)
	}
	fp := phase.NewFingerprint(phases)
	return appdb.Record{
		Class: best, Composition: comp,
		ExecutionTime: at - secs(sampleSeconds), Samples: total,
		Phases: phases, Fingerprint: &fp, Verdict: best, ModelID: "fixture",
	}
}

// copyDir copies a flat fixture directory (journal or store segments).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
