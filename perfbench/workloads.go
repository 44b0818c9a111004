package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/wire"
)

// Workload sizes. Work is a fixed count per run, derived from
// --seconds through a nominal rate, never from elapsed time: two runs
// of the same code and seed end in the same daemon state.
const (
	// fleet-saturate: 256 VM slots, requests of 16 VM groups × 16
	// snapshots, each slot owned by one of the two connections.
	satVMs        = 256
	satGroups     = 16
	satRows       = 16
	satPrehistory = 256  // journaled snapshots per VM in the recovery fixture
	satReqPerSec  = 1200 // nominal requests per second of --seconds

	// fleet-paced: open loop at a fixed absolute rate over a 10k-VM fleet,
	// each request one agent report of 1–4 VMs × 1 snapshot.
	pacedVMs  = 10000
	pacedRate = 1000 // requests per second

	// run-lifecycle: a store of 20 fingerprinted runs for each of 1000
	// apps; every op is one complete run of a pool app.
	lcApps       = 1000
	lcPerApp     = 20
	lcTraces     = 32 // distinct run traces
	lcSegments   = 3  // phases concatenated per run trace
	lcSegRows    = 16 // snapshots per phase
	lcOpsPerSec  = 5  // nominal ops per second of --seconds
	lcThinkMax   = 20 * time.Millisecond
	warmFraction = 10 // closed loops warm up on 1/warmFraction extra ops

	conns = 2 // generator connections (= nproc of the reference box)
)

// commonArgs are the daemon flags every workload shares. -pprof mounts
// the profiling endpoints, through which each run collects the daemon's
// garbage once between warm-up and the measured window (see
// collectGarbage); it adds no work to any request. Periodic
// tasks: the janitor (sweep = ttl/4 = 6h) and the timed checkpointer
// (24h) never fire inside a run (run-lifecycle's finishes trigger a
// checkpoint each); scrubbing, store maintenance and retraining stay at
// their default, off; the journal fsync ticker fires every second, about
// twenty times per 20 s window.
func commonArgs(in *inputs, journal string) []string {
	return []string{
		"-model", in.modelPath,
		"-journal-dir", journal,
		"-fsync", "interval",
		"-ttl", "24h",
		"-checkpoint-every", "24h",
		"-pprof",
	}
}

// workload is one traffic mix.
type workload interface {
	// prepare generates every fixture, body and expectation (untimed).
	prepare(b *bench) error
	// launchArgs lays out fresh daemon state under dir (copying fixtures)
	// and returns the daemon's flags.
	launchArgs(b *bench, dir string) ([]string, error)
	// afterSetup checks the state a freshly ready daemon recovered.
	afterSetup(b *bench, d *daemon) error
	// connect opens protocol state (stream handshakes) on each conn.
	connect(b *bench, d *daemon, cs []*conn) error
	// measure runs warm-up plus the measured window.
	measure(b *bench, d *daemon, cs []*conn) (*window, error)
	// verify checks the end-of-run invariants.
	verify(b *bench, d *daemon) error
	// probeGroups returns the snapshot groups the workload sends, in
	// order, for the traced run's in-process layer probes.
	probeGroups(b *bench) []wire.Group
	// nativeJSON reports whether the workload ingests JSON (else binary).
	nativeJSON() bool
	// binGroups is how many VM groups one binary ingest request carries.
	binGroups() int
	// setupReps is how many daemon launches a run times; setup_s is
	// their median.
	setupReps() int
}

// handshake opens a binary ingest stream on c.
func handshake(c *conn, schema *metrics.Schema) (id uint64, classID map[appclass.Class]byte, err error) {
	body, err := c.do("POST", "/v1/ingest.bin", wire.ContentType, helloBody(schema))
	if err != nil {
		return 0, nil, err
	}
	p, _, err := wire.NextFrame(body)
	if err != nil {
		return 0, nil, err
	}
	ack, err := wire.ParseHelloAck(p)
	if err != nil {
		return 0, nil, err
	}
	classID = make(map[appclass.Class]byte, len(ack.Classes))
	for i, name := range ack.Classes {
		classID[appclass.Class(name)] = byte(i)
	}
	return ack.StreamID, classID, nil
}

// checkAck compares a batch ack's class IDs with the expected classes.
func checkAck(body []byte, classID map[appclass.Class]byte, want func(i int) appclass.Class, n int) error {
	p, _, err := wire.NextFrame(body)
	if err != nil {
		return err
	}
	ids, err := wire.ParseBatchAck(p)
	if err != nil {
		return err
	}
	if len(ids) != n {
		return mismatchf("ack carries %d classes, sent %d snapshots", len(ids), n)
	}
	for i, id := range ids {
		w := want(i)
		if cid, ok := classID[w]; !ok || cid != id {
			return mismatchf("snapshot %d: class id %d, want %s", i, id, w)
		}
	}
	return nil
}

// ---------------------------------------------------------------- saturate

type saturate struct {
	fleet       []*stream
	fixture     string
	fixtureSnap int
	reqs        int // measured requests per connection
	warm        int // warm-up requests per connection

	streamID []uint64
	classID  []map[appclass.Class]byte
	bufs     []satBuffers
}

type satBuffers struct {
	groups []wire.Group
	body   []byte
}

func (w *saturate) prepare(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed ^ 0x5a7))
	w.fleet = b.in.fleet("sat", satVMs, rng)
	w.fixture = filepath.Join(b.work, "fixture-journal")
	n, err := writeJournalFixture(w.fixture, b.in.hash, w.fleet, satPrehistory, satRows)
	if err != nil {
		return err
	}
	w.fixtureSnap = n
	w.reqs = max(b.seconds*satReqPerSec/conns, slices)
	w.warm = w.reqs / warmFraction
	return nil
}

func (w *saturate) launchArgs(b *bench, dir string) ([]string, error) {
	j := filepath.Join(dir, "journal")
	if err := copyDir(w.fixture, j); err != nil {
		return nil, err
	}
	return commonArgs(b.in, j), nil
}

func (w *saturate) afterSetup(b *bench, d *daemon) error {
	n, err := d.sessions()
	if err != nil {
		return err
	}
	if n != satVMs {
		return fmt.Errorf("recovered %d sessions, fixture has %d", n, satVMs)
	}
	replayed, err := d.metric("appclassd_replayed_snapshots_total")
	if err != nil {
		return err
	}
	if int(replayed) != w.fixtureSnap {
		return fmt.Errorf("replayed %v snapshots, fixture has %d", replayed, w.fixtureSnap)
	}
	return nil
}

func (w *saturate) connect(b *bench, d *daemon, cs []*conn) error {
	w.streamID = make([]uint64, len(cs))
	w.classID = make([]map[appclass.Class]byte, len(cs))
	w.bufs = make([]satBuffers, len(cs))
	for i, c := range cs {
		var err error
		if w.streamID[i], w.classID[i], err = handshake(c, b.in.schema); err != nil {
			return err
		}
		sc := &w.bufs[i]
		sc.groups = make([]wire.Group, satGroups)
		for g := range sc.groups {
			sc.groups[g] = wire.Group{Times: make([]float64, satRows), Rows: make([][]float64, satRows)}
		}
	}
	return nil
}

// satSlots names request j of connection c: VM round j mod rounds of
// the connection's slots, each advanced satRows snapshots past the
// fixture's prehistory.
func (w *saturate) satSlots(c, j int) (vms []*stream, from int) {
	perConn := satVMs / conns
	rounds := perConn / satGroups
	round, step := j%rounds, j/rounds
	return w.fleet[c*perConn+round*satGroups : c*perConn+(round+1)*satGroups], satPrehistory + step*satRows
}

func (w *saturate) op(b *bench) opFunc {
	cols := b.in.schema.Len()
	return func(c *conn, j int) error {
		sc := &w.bufs[c.id]
		vms, from := w.satSlots(c.id, j)
		for g, s := range vms {
			sc.groups[g].VM = s.vm
			for r := 0; r < satRows; r++ {
				sc.groups[g].Times[r] = timeOf(from + r)
				sc.groups[g].Rows[r] = s.row(from + r)
			}
		}
		body, err := encodeBatch(sc.body, w.streamID[c.id], cols, sc.groups)
		if err != nil {
			return err
		}
		sc.body = body
		sp := c.rec.begin(spanIngestBin, -1)
		resp, err := c.do("POST", "/v1/ingest.bin", wire.ContentType, body)
		c.rec.end(sp, satGroups*satRows)
		if err != nil {
			return err
		}
		return checkAck(resp, w.classID[c.id], func(i int) appclass.Class {
			return vms[i/satRows].class(from + i%satRows)
		}, satGroups*satRows)
	}
}

func (w *saturate) measure(b *bench, d *daemon, cs []*conn) (*window, error) {
	return closedLoop(d.pid(), cs, w.warm, w.reqs, w.op(b), nil, d.collectGarbage)
}

func (w *saturate) probeGroups(b *bench) []wire.Group {
	var out []wire.Group
	for j := 0; len(out)*satRows < probeSnaps; j++ {
		for c := 0; c < conns; c++ {
			vms, from := w.satSlots(c, j)
			for _, s := range vms {
				out = append(out, wireGroup(s, from, satRows))
			}
		}
	}
	return out
}

func (w *saturate) nativeJSON() bool { return false }
func (w *saturate) binGroups() int   { return satGroups }
func (w *saturate) setupReps() int   { return 7 }

func (w *saturate) verify(b *bench, d *daemon) error {
	n, err := d.sessions()
	if err != nil {
		return err
	}
	if n != satVMs {
		return fmt.Errorf("%d live sessions at end, want %d (no VM finishes)", n, satVMs)
	}
	return nil
}

// ---------------------------------------------------------------- paced

type pacedReq struct {
	body   []byte
	vms    []string
	want   []appclass.Class
	groups []wire.Group // the same snapshots, for the layer probes
}

type paced struct {
	due  []time.Duration
	reqs []pacedReq
	warm int // requests up to the last first report of a VM
}

type ingestResponse struct {
	Accepted int `json:"accepted"`
	Results  []struct {
		VM    string `json:"vm"`
		Class string `json:"class"`
	} `json:"results"`
}

// prepare draws the seeded Poisson arrival schedule and pre-encodes
// every request body with its expected classes. The warm-up requests
// report every VM of the fleet once, in seeded order, so all sessions
// exist before the measured window; measured requests then draw their
// VMs at random.
func (w *paced) prepare(b *bench) error {
	rng := rand.New(rand.NewSource(b.seed ^ 0x9ace))
	fleet := b.in.fleet("vm", pacedVMs, rng)
	next := make([]int, len(fleet))
	cover := rng.Perm(len(fleet))
	t := 0.0
	for len(cover) > 0 || len(w.reqs) < w.warm+b.seconds*pacedRate {
		m := 1 + rng.Intn(4)
		var vms []int
		if len(cover) > 0 {
			m = min(m, len(cover))
			vms, cover = cover[:m], cover[m:]
			w.warm = len(w.reqs) + 1
		} else {
			picked := map[int]bool{}
			for len(vms) < m {
				if v := rng.Intn(len(fleet)); !picked[v] {
					picked[v] = true
					vms = append(vms, v)
				}
			}
		}
		r := pacedReq{vms: make([]string, 0, m), want: make([]appclass.Class, 0, m)}
		body := []byte(`{"snapshots":[`)
		for i, v := range vms {
			s := fleet[v]
			if i > 0 {
				body = append(body, ',')
			}
			body = appendJSONSnapshot(body, s.vm, timeOf(next[v]), s.row(next[v]))
			r.groups = append(r.groups, wireGroup(s, next[v], 1))
			r.vms = append(r.vms, s.vm)
			r.want = append(r.want, s.class(next[v]))
			next[v]++
		}
		r.body = append(body, "]}"...)
		w.reqs = append(w.reqs, r)
		w.due = append(w.due, time.Duration(t*float64(time.Second)))
		t += rng.ExpFloat64() / pacedRate
	}
	return nil
}

func (w *paced) launchArgs(b *bench, dir string) ([]string, error) {
	return commonArgs(b.in, filepath.Join(dir, "journal")), nil
}

func (w *paced) afterSetup(*bench, *daemon) error       { return nil }
func (w *paced) connect(*bench, *daemon, []*conn) error { return nil }

func (w *paced) op(c *conn, k int) error {
	r := &w.reqs[k]
	sp := c.rec.begin(spanIngestJSON, -1)
	resp, err := c.do("POST", "/v1/ingest", "application/json", r.body)
	c.rec.end(sp, len(r.vms))
	if err != nil {
		return err
	}
	var ir ingestResponse
	if err := json.Unmarshal(resp, &ir); err != nil {
		return err
	}
	if ir.Accepted != len(r.vms) || len(ir.Results) != len(r.vms) {
		return mismatchf("request %d: accepted %d of %d", k, ir.Accepted, len(r.vms))
	}
	for i, res := range ir.Results {
		if res.VM != r.vms[i] || appclass.Class(res.Class) != r.want[i] {
			return mismatchf("request %d result %d: %s=%s, want %s=%s", k, i, res.VM, res.Class, r.vms[i], r.want[i])
		}
	}
	return nil
}

func (w *paced) measure(b *bench, d *daemon, cs []*conn) (*window, error) {
	return openLoop(d.pid(), cs, w.due, w.warm, w.op, d.collectGarbage)
}

func (w *paced) probeGroups(*bench) []wire.Group {
	var out []wire.Group
	for _, r := range w.reqs[w.warm:] {
		out = append(out, r.groups...)
		if len(out) >= probeSnaps {
			break
		}
	}
	return out
}

func (w *paced) nativeJSON() bool { return true }
func (w *paced) binGroups() int   { return satGroups }

// setupReps is larger here: a set-up of a few milliseconds that is
// mostly exec needs more launches for a steady median.
func (w *paced) setupReps() int { return 21 }

func (w *paced) verify(b *bench, d *daemon) error {
	n, err := d.sessions()
	if err != nil {
		return err
	}
	if n != pacedVMs {
		return fmt.Errorf("%d live sessions at end, want the fleet's %d", n, pacedVMs)
	}
	return nil
}

// ---------------------------------------------------------------- lifecycle

// runTrace is one short multi-phase run and its offline verdict.
type runTrace struct {
	rows    [][]float64
	classes []appclass.Class
	// rec is the record the daemon finalizes the run into, App and
	// FinalizedAt left blank: its Class and Composition are what a
	// finish must report.
	rec appdb.Record
}

type lifecycle struct {
	store  string
	traces []*runTrace
	// plan[c][j] is op j of connection c: its pool app and run trace.
	// Connection c only uses apps ≡ c (mod conns), so no two in-flight
	// runs ever share a name.
	plan     [][]lcOp
	warm     int
	ops      int
	streamID []uint64
	classID  []map[appclass.Class]byte
}

type lcOp struct {
	app   string
	trace int
	body  []byte
	// think is the seeded pause before the run starts (uniform in
	// [0, lcThinkMax)). It keeps the two connections from locking into
	// one relative phase for a whole run, which would make their
	// contention — and the median latency — flip between runs.
	think time.Duration
}

type finishResponse struct {
	VM          string                     `json:"vm"`
	Class       string                     `json:"class"`
	Composition map[appclass.Class]float64 `json:"composition"`
	Samples     int                        `json:"samples"`
}

type runsResponse struct {
	Count int `json:"count"`
	Runs  []struct {
		App         string                     `json:"app"`
		Class       string                     `json:"class"`
		Composition map[appclass.Class]float64 `json:"composition"`
		Samples     int                        `json:"samples"`
		FinalizedAt time.Time                  `json:"finalized_at"`
	} `json:"runs"`
}

// runTraces builds the run traces: each concatenates lcSegments
// stretches of lcSegRows snapshots from different corpus runs, so every
// run has phases to fingerprint. Like the corpus they are the same for
// every seed — a finish's cost depends on the fingerprints in play —
// and the seed decides which app runs which trace, and when.
func runTraces(b *bench) ([]*runTrace, error) {
	rng := rand.New(rand.NewSource(0x11fe))
	var out []*runTrace
	for t := 0; t < lcTraces; t++ {
		rt := &runTrace{}
		for s := 0; s < lcSegments; s++ {
			src := b.in.traces[rng.Intn(len(b.in.traces))]
			off := rng.Intn(len(src.rows))
			for r := 0; r < lcSegRows; r++ {
				rt.rows = append(rt.rows, src.rows[(off+r)%len(src.rows)])
				rt.classes = append(rt.classes, src.classes[(off+r)%len(src.rows)])
			}
		}
		var err error
		if rt.rec, err = offlineRun(b.in, rt.rows); err != nil {
			return nil, err
		}
		out = append(out, rt)
	}
	return out, nil
}

// group is the run trace as one ingest group for app.
func (rt *runTrace) group(app string) wire.Group {
	g := wire.Group{VM: app, Times: make([]float64, len(rt.rows)), Rows: rt.rows}
	for r := range g.Times {
		g.Times[r] = timeOf(r)
	}
	return g
}

func (w *lifecycle) prepare(b *bench) error {
	var err error
	if w.traces, err = runTraces(b); err != nil {
		return err
	}
	w.store = filepath.Join(b.work, "fixture-store")
	if err := writeStoreFixture(w.store, b.seed, lcApps, lcPerApp, w.traces); err != nil {
		return err
	}
	w.ops = max(b.seconds*lcOpsPerSec/conns, slices)
	w.warm = w.ops / warmFraction
	w.plan = planRuns(rand.New(rand.NewSource(b.seed^0x9a1)), lcApps, w.warm+w.ops, len(w.traces))
	return nil
}

// planRuns assigns each connection perConn runs: a seeded walk over its
// share of the app pool (apps ≡ c mod conns, so no two in-flight runs
// ever share a name) and a seeded run trace for each.
func planRuns(rng *rand.Rand, apps, perConn, traces int) [][]lcOp {
	plan := make([][]lcOp, conns)
	for c := range plan {
		pool := make([]int, 0, apps/conns)
		for a := c; a < apps; a += conns {
			pool = append(pool, a)
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		plan[c] = make([]lcOp, perConn)
		for j := range plan[c] {
			plan[c][j] = lcOp{
				app:   appName(pool[j%len(pool)]),
				trace: rng.Intn(traces),
				think: time.Duration(rng.Int63n(int64(lcThinkMax))),
			}
		}
	}
	return plan
}

// offlineRun classifies rows through classify.Online armed as the
// daemon arms a session and builds the record a finish writes: the
// verdict a finish must report, plus the phases, fingerprint and
// training reservoir the store keeps.
func offlineRun(in *inputs, rows [][]float64) (appdb.Record, error) {
	o, err := armedOnline(in)
	if err != nil {
		return appdb.Record{}, err
	}
	snaps := make([]metrics.Snapshot, len(rows))
	for i, r := range rows {
		snaps[i] = metrics.Snapshot{Time: secs(timeOf(i)), Node: "offline", Values: r}
	}
	if _, err := o.ObserveBatch(snaps, nil); err != nil {
		return appdb.Record{}, err
	}
	v := o.Snapshot()
	names, samples := o.TrainSamples()
	rec := appdb.Record{
		Class: v.Class, Composition: v.Composition, ExecutionTime: v.LastAt - v.FirstAt,
		Samples: v.Total, Phases: v.Phases, UnknownFraction: v.UnknownFraction,
		Verdict: v.Verdict, ModelID: in.hash.Short(), TrainMetrics: names, TrainSamples: samples,
	}
	if fp := phase.NewFingerprint(v.Phases); !fp.Empty() {
		rec.Fingerprint = &fp
	}
	return rec, nil
}

func (w *lifecycle) launchArgs(b *bench, dir string) ([]string, error) {
	db := filepath.Join(dir, "appdb")
	if err := copyDir(w.store, db); err != nil {
		return nil, err
	}
	return append(commonArgs(b.in, filepath.Join(dir, "journal")), "-db", db), nil
}

func (w *lifecycle) afterSetup(*bench, *daemon) error { return nil }

// connect handshakes each connection and pre-encodes every op's ingest
// body for its stream.
func (w *lifecycle) connect(b *bench, d *daemon, cs []*conn) error {
	w.streamID = make([]uint64, len(cs))
	w.classID = make([]map[appclass.Class]byte, len(cs))
	cols := b.in.schema.Len()
	for i, c := range cs {
		var err error
		if w.streamID[i], w.classID[i], err = handshake(c, b.in.schema); err != nil {
			return err
		}
		for j := range w.plan[i] {
			op := &w.plan[i][j]
			g := w.traces[op.trace].group(op.app)
			if op.body, err = encodeBatch(nil, w.streamID[i], cols, []wire.Group{g}); err != nil {
				return err
			}
		}
	}
	return nil
}

func sameComposition(a, b map[appclass.Class]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for c, f := range a {
		if math.Abs(f-b[c]) > 1e-12 {
			return false
		}
	}
	return true
}

func (w *lifecycle) op(c *conn, j int) error {
	op := &w.plan[c.id][j]
	rt := w.traces[op.trace]
	started := time.Now().Truncate(time.Second)
	root := c.rec.begin(spanRun, -1)
	defer c.rec.end(root, 1)

	sp := c.rec.begin(spanIngestBin, root)
	resp, err := c.do("POST", "/v1/ingest.bin", wire.ContentType, op.body)
	c.rec.end(sp, len(rt.rows))
	if err != nil {
		return err
	}
	if err := checkAck(resp, w.classID[c.id], func(i int) appclass.Class { return rt.classes[i] }, len(rt.rows)); err != nil {
		return err
	}

	sp = c.rec.begin(spanFinish, root)
	resp, err = c.do("POST", "/v1/vms/"+op.app+"/finish", "", nil)
	c.rec.end(sp, 1)
	if err != nil {
		return err
	}
	var fr finishResponse
	if err := json.Unmarshal(resp, &fr); err != nil {
		return err
	}
	if fr.VM != op.app || appclass.Class(fr.Class) != rt.rec.Class || fr.Samples != len(rt.rows) || !sameComposition(fr.Composition, rt.rec.Composition) {
		return mismatchf("finish %s: class %s comp %v samples %d, want %s %v %d",
			op.app, fr.Class, fr.Composition, fr.Samples, rt.rec.Class, rt.rec.Composition, len(rt.rows))
	}

	sp = c.rec.begin(spanRuns, root)
	resp, err = c.do("GET", "/v1/runs?app="+url.QueryEscape(op.app)+"&limit=20", "", nil)
	c.rec.end(sp, 1)
	if err != nil {
		return err
	}
	var rr runsResponse
	if err := json.Unmarshal(resp, &rr); err != nil {
		return err
	}
	if rr.Count < 1 || len(rr.Runs) < 1 {
		return mismatchf("runs %s: empty", op.app)
	}
	first := rr.Runs[0]
	if first.App != op.app || first.FinalizedAt.Before(started) || appclass.Class(first.Class) != rt.rec.Class ||
		first.Samples != len(rt.rows) || !sameComposition(first.Composition, rt.rec.Composition) {
		return mismatchf("runs %s: newest is %s/%s/%d samples finalized %v, want the run just finalized (%s/%d, at or after %v)",
			op.app, first.App, first.Class, first.Samples, first.FinalizedAt, rt.rec.Class, len(rt.rows), started)
	}
	return nil
}

func (w *lifecycle) measure(b *bench, d *daemon, cs []*conn) (*window, error) {
	think := func(c *conn, j int) time.Duration { return w.plan[c.id][j].think }
	return closedLoop(d.pid(), cs, w.warm, w.ops, w.op, think, d.collectGarbage)
}

func (w *lifecycle) probeGroups(*bench) []wire.Group {
	var out []wire.Group
	for _, ops := range w.plan {
		for _, op := range ops {
			out = append(out, w.traces[op.trace].group(op.app))
		}
	}
	return out
}

func (w *lifecycle) nativeJSON() bool { return false }
func (w *lifecycle) binGroups() int   { return 1 }
func (w *lifecycle) setupReps() int   { return 9 }

func (w *lifecycle) verify(b *bench, d *daemon) error {
	n, err := d.sessions()
	if err != nil {
		return err
	}
	if n != 0 {
		return fmt.Errorf("%d live sessions at end, want 0 (every run finished)", n)
	}
	var fps struct {
		Count int `json:"count"`
	}
	if err := d.getJSON("/v1/fingerprints", &fps); err != nil {
		return err
	}
	if fps.Count != lcApps {
		return fmt.Errorf("fingerprint dictionary holds %d apps at end, want the pool's %d", fps.Count, lcApps)
	}
	return nil
}

func removeAll(dir string) { _ = os.RemoveAll(dir) }
