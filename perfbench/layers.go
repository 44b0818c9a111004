package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/classify"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/server"
	"repro/internal/wal"
	"repro/internal/wire"
)

// Probe sizes: enough calls per layer for a stable mean, small enough
// that the whole in-process pass takes a few seconds.
const (
	probeSnaps       = 32768 // snapshots fed through the per-snapshot layers
	probeBinReqs     = 256   // in-process binary ingest requests
	probeJSONReqs    = 2000  // in-process JSON ingest requests
	probeRuns        = 24    // in-process finish + runs queries
	probeFinalizes   = 256   // journal finalize markers
	probeCheckpoints = 3
	probeDictReads   = 8
)

// armedOnline builds a session classifier armed as the daemon arms one
// at its defaults: phase segmentation, open-set thresholds and the
// training reservoir.
func armedOnline(in *inputs) (*classify.Online, error) {
	o, err := classify.NewOnline(in.cl, in.schema)
	if err != nil {
		return nil, err
	}
	os, err := in.cl.CalibrateOpenSet(classify.OpenSetConfig{})
	if err != nil {
		return nil, err
	}
	o.EnableSegmentation(phase.Config{})
	o.EnableOpenSet(os)
	o.EnableSampling(classify.DefaultTrainReservoir)
	return o, nil
}

// probe times calls into each layer's public functions in-process, on
// the workload's own snapshot groups, recording one span per call (or
// per group for per-snapshot layers).
type probe struct {
	b      *bench
	rec    *recorder
	groups []wire.Group // the workload's groups, capped at probeSnaps
	snaps  int
	dir    string
	out    map[string]metric
	// allocs per item of the span kinds where they were counted.
	allocs map[spanKind]float64
}

func (p *probe) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// countAllocs runs fn and returns the heap allocations it made.
func countAllocs(fn func() error) (uint64, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	err := fn()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs, err
}

func groupSnaps(g wire.Group) []metrics.Snapshot {
	out := make([]metrics.Snapshot, len(g.Rows))
	for r := range g.Rows {
		out[r] = metrics.Snapshot{Time: secs(g.Times[r]), Node: g.VM, Values: g.Rows[r]}
	}
	return out
}

func runLayerProbes(b *bench, rec *recorder) (map[string]metric, map[spanKind]float64, error) {
	p := &probe{b: b, rec: rec, dir: filepath.Join(b.work, "probe"), out: map[string]metric{}, allocs: map[spanKind]float64{}}
	for _, g := range b.w.probeGroups(b) {
		if p.snaps+len(g.Rows) > probeSnaps {
			break
		}
		p.groups = append(p.groups, g)
		p.snaps += len(g.Rows)
	}
	if p.snaps == 0 {
		return nil, nil, fmt.Errorf("probe: workload supplied no snapshots")
	}
	defer removeAll(p.dir)
	for _, step := range []func() error{p.wire, p.classify, p.kernels, p.wal, p.serverIngest, p.serverRecover, p.serverRuns, p.appdb} {
		if err := step(); err != nil {
			return nil, nil, err
		}
	}
	return p.out, p.allocs, nil
}

// wire decodes the groups framed 16 to a batch, the fleet-saturate shape.
func (p *probe) wire() error {
	cols := p.b.in.schema.Len()
	var bytesTotal int
	var sink float64
	for i := 0; i < len(p.groups); i += satGroups {
		frame, err := encodeBatch(nil, 1, cols, p.groups[i:min(i+satGroups, len(p.groups))])
		if err != nil {
			return err
		}
		bytesTotal += len(frame)
		payload, _, err := wire.NextFrame(frame)
		if err != nil {
			return err
		}
		n := 0
		sp := p.rec.begin(spanWireDecode, -1)
		v, err := wire.ParseBatchHeader(payload, cols)
		if err != nil {
			return err
		}
		for gi := 0; gi < v.Groups(); gi++ {
			g, err := v.Next()
			if err != nil {
				return err
			}
			for r := 0; r < g.Rows; r++ {
				sink += g.TimeSeconds(r)
				for c := 0; c < cols; c++ {
					sink += g.Value(c, r)
				}
			}
			n += g.Rows
		}
		p.rec.end(sp, n)
	}
	if sink != sink {
		return fmt.Errorf("wire probe decoded NaN")
	}
	p.set("wire.bytes_per_snap", float64(bytesTotal)/float64(p.snaps), "bytes")
	return nil
}

// classify runs every group through a daemon-armed Online per VM. Each
// session first observes its VM's first group untimed, as the daemon's
// sessions already exist when the measured window opens, so the timed
// pass excludes session creation.
func (p *probe) classify() error {
	sessions := map[string]*classify.Online{}
	snaps := make([][]metrics.Snapshot, len(p.groups))
	classes := make([]appclass.Class, 0, 256)
	for i, g := range p.groups {
		snaps[i] = groupSnaps(g)
		if sessions[g.VM] == nil {
			o, err := armedOnline(p.b.in)
			if err != nil {
				return err
			}
			if classes, err = o.ObserveBatch(snaps[i], classes); err != nil {
				return err
			}
			sessions[g.VM] = o
		}
	}
	n, err := countAllocs(func() error {
		for i, g := range p.groups {
			sp := p.rec.begin(spanObserve, -1)
			var err error
			classes, err = sessions[g.VM].ObserveBatch(snaps[i], classes)
			p.rec.end(sp, len(g.Rows))
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.allocs[spanObserve] = float64(n) / float64(p.snaps)
	p.set("classify.allocs_per_snap", p.allocs[spanObserve], "count")
	return nil
}

// kernels times the three per-snapshot kernels behind Observe on the
// served model: the fused affine map, the k-NN vote on an index built
// exactly as the classifier builds its own, and the phase segmenter.
func (p *probe) kernels() error {
	in := p.b.in
	w, bias := in.cl.FusedParams()
	idx, err := in.cl.GatherIndices(in.schema)
	if err != nil {
		return err
	}
	points, labels := in.cl.TrainingPoints()
	nn, err := knn.New(in.cl.Config().K)
	if err != nil {
		return err
	}
	pts := make([]linalg.Vector, points.Rows())
	lbl := make([]string, len(labels))
	for i := range pts {
		pts[i] = points.Row(i)
		lbl[i] = string(labels[i])
	}
	if err := nn.Train(pts, lbl); err != nil {
		return err
	}
	if points.Cols() == 2 {
		if err := nn.EnableIndex(); err != nil {
			return err
		}
	}
	classNames := nn.Classes()
	q := w.Rows()
	feats := make([]linalg.Vector, 0, p.snaps)
	for _, g := range p.groups {
		sp := p.rec.begin(spanAffine, -1)
		for _, row := range g.Rows {
			f := make(linalg.Vector, q)
			if err := w.AffineGatherInto(f, row, idx, bias); err != nil {
				return err
			}
			feats = append(feats, f)
		}
		p.rec.end(sp, len(g.Rows))
	}
	ids := make([]int, len(feats))
	var ks knn.Scratch
	k := 0
	for _, g := range p.groups {
		sp := p.rec.begin(spanKNN, -1)
		for range g.Rows {
			id, _, err := nn.ClassifyIDDist(feats[k], &ks)
			if err != nil {
				return err
			}
			ids[k] = id
			k++
		}
		p.rec.end(sp, len(g.Rows))
	}
	segs := map[string]*phase.Segmenter{}
	k = 0
	for _, g := range p.groups {
		s := segs[g.VM]
		if s == nil {
			s = phase.NewSegmenter(phase.Config{})
			segs[g.VM] = s
		}
		sp := p.rec.begin(spanSegment, -1)
		for r := range g.Rows {
			if err := s.Observe(secs(g.Times[r]), appclass.Class(classNames[ids[k]]), feats[k]); err != nil {
				return err
			}
			k++
		}
		p.rec.end(sp, len(g.Rows))
	}
	return nil
}

// wal appends every group with one writer and then two, replays the
// one-writer journal, and appends finalize markers.
func (p *probe) wal() error {
	one := filepath.Join(p.dir, "wal-1w")
	j, err := wal.Open(wal.Config{Dir: one})
	if err != nil {
		return err
	}
	if err := j.SetModelHash(p.b.in.hash); err != nil {
		return err
	}
	all := make([][]metrics.Snapshot, len(p.groups))
	for i, g := range p.groups {
		all[i] = groupSnaps(g)
	}
	for i, g := range p.groups {
		sp := p.rec.begin(spanWALAppend, -1)
		_, _, err := j.AppendBatchDeferred(g.VM, all[i])
		p.rec.end(sp, len(g.Rows))
		if err != nil {
			return err
		}
	}
	if err := j.Sync(); err != nil {
		return err
	}
	p.set("wal.bytes_per_snap", float64(j.Stats().Bytes)/float64(p.snaps), "bytes")
	seen := map[string]bool{}
	for _, g := range p.groups {
		if seen[g.VM] || len(seen) == probeFinalizes {
			continue
		}
		seen[g.VM] = true
		sp := p.rec.begin(spanWALFinalize, -1)
		_, err := j.AppendFinalize(g.VM)
		p.rec.end(sp, 1)
		if err != nil {
			return err
		}
	}
	if err := j.Close(); err != nil {
		return err
	}

	replayed := 0
	sp := p.rec.begin(spanWALReplay, -1)
	_, err = wal.Replay(one, wal.Position{}, func(_ wal.Position, r wal.Record) error {
		replayed += len(r.Snaps)
		return nil
	})
	p.rec.end(sp, replayed)
	if err != nil {
		return err
	}
	if replayed != p.snaps {
		return fmt.Errorf("wal probe replayed %d of %d snapshots", replayed, p.snaps)
	}

	// Two writers share one journal: each call's span includes the
	// journal-lock wait the other writer causes.
	j2, err := wal.Open(wal.Config{Dir: filepath.Join(p.dir, "wal-2w")})
	if err != nil {
		return err
	}
	recs := [2]*recorder{newRecorder(p.rec.epoch, 100), newRecorder(p.rec.epoch, 101)}
	errs := [2]error{}
	var wg sync.WaitGroup
	for wr := 0; wr < 2; wr++ {
		wg.Add(1)
		go func(wr int) {
			defer wg.Done()
			for i := wr; i < len(p.groups); i += 2 {
				sp := recs[wr].begin(spanWALAppend2W, -1)
				_, _, err := j2.AppendBatchDeferred(p.groups[i].VM, all[i])
				recs[wr].end(sp, len(all[i]))
				if err != nil && errs[wr] == nil {
					errs[wr] = err
				}
			}
		}(wr)
	}
	wg.Wait()
	for _, r := range recs {
		p.rec.spans = append(p.rec.spans, r.spans...)
	}
	if err := j2.Close(); err != nil {
		return err
	}
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// newServer builds an in-process daemon configured as commonArgs
// configures appclassd, journaling to dir.
func (p *probe) newServer(dir string, db *appdb.DB) (*server.Server, *wal.Journal, error) {
	j, err := wal.Open(wal.Config{Dir: dir})
	if err != nil {
		return nil, nil, err
	}
	srv, err := server.New(server.Config{
		Classifier:      p.b.in.cl,
		Schema:          p.b.in.schema,
		DB:              db,
		Journal:         j,
		IdleTTL:         24 * time.Hour,
		CheckpointEvery: 24 * time.Hour,
	})
	if err != nil {
		j.Close()
		return nil, nil, err
	}
	return srv, j, nil
}

// serve runs one request through the handler in-process.
func serve(h http.Handler, method, target string, body []byte) (*httptest.ResponseRecorder, error) {
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rw := httptest.NewRecorder()
	h.ServeHTTP(rw, req)
	if rw.Code/100 != 2 {
		return rw, fmt.Errorf("in-process %s %s: %d %s", method, target, rw.Code, rw.Body.String())
	}
	return rw, nil
}

// handshakeInProcess opens a binary stream on an in-process server.
func handshakeInProcess(h http.Handler, schema *metrics.Schema) (uint64, error) {
	rw, err := serve(h, "POST", "/v1/ingest.bin", helloBody(schema))
	if err != nil {
		return 0, err
	}
	payload, _, err := wire.NextFrame(rw.Body.Bytes())
	if err != nil {
		return 0, err
	}
	ack, err := wire.ParseHelloAck(payload)
	return ack.StreamID, err
}

// ingestRequests cuts groups into the probe's ingest requests: binary
// requests of perReq groups (as group lists, encoded per stream later)
// and JSON bodies of 1–4 snapshots, at most maxBin and maxJSON of each.
// VM names carry prefix, so probe traffic never touches the sessions of
// the workload itself.
func ingestRequests(groups []wire.Group, perReq, maxBin, maxJSON int, prefix string) (bin [][]wire.Group, js [][]byte) {
	for i := 0; i < len(groups) && len(bin) < maxBin; i += perReq {
		gs := append([]wire.Group(nil), groups[i:min(i+perReq, len(groups))]...)
		for k := range gs {
			gs[k].VM = prefix + gs[k].VM
		}
		bin = append(bin, gs)
	}
	size, inBody := 1, 0
	body := []byte(`{"snapshots":[`)
	for _, g := range groups {
		for r := range g.Rows {
			if len(js) == maxJSON {
				return bin, js
			}
			if inBody > 0 {
				body = append(body, ',')
			}
			body = appendJSONSnapshot(body, prefix+g.VM, g.Times[r], g.Rows[r])
			inBody++
			if inBody == size {
				js = append(js, append(body, "]}"...))
				body, inBody, size = []byte(`{"snapshots":[`), 0, size%4+1
			}
		}
	}
	return bin, js
}

// serverIngest times ServeHTTP for the workload's binary request shape
// and for JSON requests of 1–4 snapshots built from its groups.
func (p *probe) serverIngest() error {
	srv, j, err := p.newServer(filepath.Join(p.dir, "srv-ingest"), appdb.New())
	if err != nil {
		return err
	}
	defer j.Close()
	h := srv.Handler()
	id, err := handshakeInProcess(h, p.b.in.schema)
	if err != nil {
		return err
	}
	binReqs, jsonBodies := ingestRequests(p.groups, p.b.w.binGroups(), probeBinReqs, probeJSONReqs, "probe/")
	var binBodies [][]byte
	for _, gs := range binReqs {
		body, err := encodeBatch(nil, id, p.b.in.schema.Len(), gs)
		if err != nil {
			return err
		}
		binBodies = append(binBodies, body)
	}
	native := p.b.w.nativeJSON()
	nbin, err := countAllocs(func() error {
		for _, body := range binBodies {
			sp := p.rec.begin(spanServeBin, -1)
			_, err := serve(h, "POST", "/v1/ingest.bin", body)
			p.rec.end(sp, 1)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	njson, err := countAllocs(func() error {
		for _, body := range jsonBodies {
			sp := p.rec.begin(spanServeJSON, -1)
			_, err := serve(h, "POST", "/v1/ingest", body)
			p.rec.end(sp, 1)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.allocs[spanServeBin] = float64(nbin) / float64(len(binBodies))
	p.allocs[spanServeJSON] = float64(njson) / float64(len(jsonBodies))
	if native {
		p.set("server.allocs_per_req", p.allocs[spanServeJSON], "count")
	} else {
		p.set("server.allocs_per_req", p.allocs[spanServeBin], "count")
	}
	return nil
}

// serverRecover recovers an in-process server from a copy of the
// workload's journal (the fleet-saturate fixture, else the probe's
// one-writer journal), then checkpoints the recovered fleet.
func (p *probe) serverRecover() error {
	src := filepath.Join(p.dir, "wal-1w")
	if sat, ok := p.b.w.(*saturate); ok {
		src = sat.fixture
	}
	dir := filepath.Join(p.dir, "srv-recover")
	if err := copyDir(src, dir); err != nil {
		return err
	}
	srv, j, err := p.newServer(dir, appdb.New())
	if err != nil {
		return err
	}
	defer j.Close()
	sp := p.rec.begin(spanRecover, -1)
	_, err = srv.Recover()
	p.rec.end(sp, srv.Sessions())
	if err != nil {
		return err
	}
	for i := 0; i < probeCheckpoints; i++ {
		sp := p.rec.begin(spanCheckpoint, -1)
		err := srv.Checkpoint()
		p.rec.end(sp, srv.Sessions())
		if err != nil {
			return err
		}
	}
	return nil
}

// storeCopy copies the run-lifecycle store fixture, building it first
// when this workload has none.
func (p *probe) storeCopy(name string, traces []*runTrace) (string, error) {
	lc, ok := p.b.w.(*lifecycle)
	src := ""
	if ok {
		src = lc.store
	} else {
		src = filepath.Join(p.dir, "store-fixture")
		if _, err := os.Stat(src); err != nil {
			if err := writeStoreFixture(src, p.b.seed, lcApps, lcPerApp, traces); err != nil {
				return "", err
			}
		}
	}
	dst := filepath.Join(p.dir, name)
	return dst, copyDir(src, dst)
}

// serverRuns finishes run traces of pool apps on an in-process server
// over the store fixture and queries their newest runs.
func (p *probe) serverRuns() error {
	traces, err := runTraces(p.b)
	if err != nil {
		return err
	}
	storeDir, err := p.storeCopy("srv-store", traces)
	if err != nil {
		return err
	}
	db, err := appdb.Open(storeDir, appstore.Options{})
	if err != nil {
		return err
	}
	defer db.Close()
	srv, j, err := p.newServer(filepath.Join(p.dir, "srv-runs"), db)
	if err != nil {
		return err
	}
	defer j.Close()
	h := srv.Handler()
	id, err := handshakeInProcess(h, p.b.in.schema)
	if err != nil {
		return err
	}
	for i := 0; i < probeRuns; i++ {
		app := appName(i * (lcApps / probeRuns))
		rt := traces[i%len(traces)]
		body, err := encodeBatch(nil, id, p.b.in.schema.Len(), []wire.Group{rt.group(app)})
		if err != nil {
			return err
		}
		if _, err := serve(h, "POST", "/v1/ingest.bin", body); err != nil {
			return err
		}
		sp := p.rec.begin(spanServeFinish, -1)
		_, err = serve(h, "POST", "/v1/vms/"+app+"/finish", nil)
		p.rec.end(sp, 1)
		if err != nil {
			return err
		}
		sp = p.rec.begin(spanServeRuns, -1)
		_, err = serve(h, "GET", "/v1/runs?app="+app+"&limit=20", nil)
		p.rec.end(sp, 1)
		if err != nil {
			return err
		}
	}
	return nil
}

// appdb opens the store fixture and times the finalize path's store
// calls: the dictionary read, the match, the append and the query.
func (p *probe) appdb() error {
	traces, err := runTraces(p.b)
	if err != nil {
		return err
	}
	storeDir, err := p.storeCopy("appdb-store", traces)
	if err != nil {
		return err
	}
	sp := p.rec.begin(spanStoreOpen, -1)
	db, err := appdb.Open(storeDir, appstore.Options{})
	p.rec.end(sp, 1)
	if err != nil {
		return err
	}
	defer db.Close()
	var dict map[string]phase.Fingerprint
	for i := 0; i < probeDictReads; i++ {
		sp := p.rec.begin(spanFingerprints, -1)
		dict = db.Fingerprints()
		p.rec.end(sp, len(dict))
	}
	for i := 0; i < probeRuns; i++ {
		rt := traces[i%len(traces)]
		rec := rt.rec
		rec.App = appName(i*(lcApps/probeRuns) + 1)
		rec.FinalizedAt = time.Now().UnixNano()
		if rec.Fingerprint != nil {
			sp := p.rec.begin(spanBestMatch, -1)
			m, ok := phase.BestMatch(*rec.Fingerprint, dict)
			p.rec.end(sp, len(dict))
			if ok && m.Score >= phase.DefaultMatchThreshold {
				rec.MatchedApp, rec.MatchScore = m.App, m.Score
			}
		}
		sp := p.rec.begin(spanPut, -1)
		err := db.Put(rec)
		p.rec.end(sp, 1)
		if err != nil {
			return err
		}
		sp = p.rec.begin(spanScan, -1)
		recs, _, err := db.Scan(appstore.Filter{App: rec.App}, 0, 20)
		p.rec.end(sp, len(recs))
		if err != nil {
			return err
		}
		if len(recs) == 0 || recs[0].FinalizedAt != rec.FinalizedAt {
			return fmt.Errorf("appdb probe: scan of %s does not return the record just put first", rec.App)
		}
	}
	p.set("appdb.dict_apps", float64(len(db.Fingerprints())), "count")
	return nil
}

// roundTrips sends the workload's own ingest request shape one at a
// time to the idle daemon after the traced run and returns each round
// trip; with nothing else in flight, a round trip minus the in-process
// handler time for the same request is the transport's share.
func roundTrips(b *bench, c *conn) ([]time.Duration, error) {
	groups := b.w.probeGroups(b)
	binReqs, jsonBodies := ingestRequests(groups, b.w.binGroups(), probeBinReqs, probeJSONReqs, "rtt/")
	var out []time.Duration
	if b.w.nativeJSON() {
		for _, body := range jsonBodies {
			t0 := time.Now()
			if _, err := c.do("POST", "/v1/ingest", "application/json", body); err != nil {
				return nil, err
			}
			out = append(out, time.Since(t0))
		}
		return out, nil
	}
	id, _, err := handshake(c, b.in.schema)
	if err != nil {
		return nil, err
	}
	for _, gs := range binReqs {
		body, err := encodeBatch(nil, id, b.in.schema.Len(), gs)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if _, err := c.do("POST", "/v1/ingest.bin", wire.ContentType, body); err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// tracedRun drives the workload with span recording on in every other
// slice (the ops/s ratio of traced to untraced slices is the tracing
// overhead), runs the in-process layer probes, prints the per-layer
// table, writes the spans, and reports the per-layer metrics.
func (b *bench) tracedRun() (*result, error) {
	epoch := time.Now()
	var rtts []time.Duration
	pass, _, err := b.runPass(1, &epoch, func(d *daemon, cs []*conn) (err error) {
		rtts, err = roundTrips(b, cs[0])
		return err
	})
	if err != nil {
		return nil, err
	}
	removeAll(filepath.Join(b.work, "state-0"))
	// The in-process probes run the daemon's code in this process; give
	// them the daemon's two Ps so the two-writer journal probe contends.
	runtime.GOMAXPROCS(conns)
	probeRec := newRecorder(epoch, 0)
	out, allocs, err := runLayerProbes(b, probeRec)
	if err != nil {
		return nil, err
	}
	stats := aggregate(append(pass.recs, probeRec))
	for k, a := range allocs {
		stats[k].allocs, stats[k].allocsSet = a, true
	}
	writeTable(os.Stdout, stats)

	perItem := func(k spanKind) float64 { return float64(stats[k].perItem().Nanoseconds()) }
	perCall := func(k spanKind, unit time.Duration) float64 {
		st := stats[k]
		if st.count == 0 {
			return 0
		}
		return float64(st.self) / float64(st.count) / float64(unit)
	}
	set := func(name string, v float64, unit string) { out[name] = metric{v, unit} }
	set("wire.decode_ns_per_snap", perItem(spanWireDecode), "ns")
	set("server.ingest_bin_us_per_req", perCall(spanServeBin, time.Microsecond), "us")
	set("server.ingest_json_us_per_req", perCall(spanServeJSON, time.Microsecond), "us")
	set("server.finish_ms", perCall(spanServeFinish, time.Millisecond), "ms")
	set("server.runs_query_us", perCall(spanServeRuns, time.Microsecond), "us")
	set("server.recover_s", perCall(spanRecover, time.Second), "s")
	set("server.checkpoint_ms", perCall(spanCheckpoint, time.Millisecond), "ms")
	set("classify.observe_ns_per_snap", perItem(spanObserve), "ns")
	set("pca.affine_ns_per_snap", perItem(spanAffine), "ns")
	set("knn.classify_ns_per_snap", perItem(spanKNN), "ns")
	set("phase.segment_ns_per_snap", perItem(spanSegment), "ns")
	set("wal.append_ns_per_snap", perItem(spanWALAppend), "ns")
	set("wal.append_2w_ns_per_snap", perItem(spanWALAppend2W), "ns")
	set("wal.replay_ns_per_snap", perItem(spanWALReplay), "ns")
	set("wal.finalize_us", perCall(spanWALFinalize, time.Microsecond), "us")
	set("appstore.open_ms", perCall(spanStoreOpen, time.Millisecond), "ms")
	set("appdb.put_us", perCall(spanPut, time.Microsecond), "us")
	set("appdb.fingerprints_ms", perCall(spanFingerprints, time.Millisecond), "ms")
	set("phase.bestmatch_us", perCall(spanBestMatch, time.Microsecond), "us")
	set("appdb.scan_us", perCall(spanScan, time.Microsecond), "us")

	// Transport: the idle daemon's round trip for the workload's ingest
	// request minus the in-process handler time for the same requests.
	handlerKind := spanServeBin
	if b.w.nativeJSON() {
		handlerKind = spanServeJSON
	}
	set("transport.us_per_req", float64(medianDur(rtts)-medianDur(stats[handlerKind].durs))/float64(time.Microsecond), "us")
	win := pass.win
	set("server.shed_frac", pass.shed/float64(max(pass.sent, 1)), "ratio")
	set("gen.late_ms_p99", ms(quantile(win.late, 0.99)), "ms")
	set("gen.cpu_share", win.only(false).cpuShare(), "ratio")
	set("tracing.overhead_frac", 1-win.only(true).opsPerSec()/win.only(false).opsPerSec(), "ratio")
	set("e2e.ack_p99_ms", ms(quantile(win.lat, 0.99)), "ms")

	spanFile := filepath.Join(filepath.Dir(b.work), "traces", b.name+"-seed"+strconv.FormatInt(b.seed, 10)+".jsonl")
	if err := os.MkdirAll(filepath.Dir(spanFile), 0o755); err != nil {
		return nil, err
	}
	if err := dumpSpans(spanFile, append(pass.recs, probeRec)); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-32s %14.4f %s\n", n, out[n].Value, out[n].Unit)
	}
	fmt.Printf("spans written to %s\n", spanFile)
	correct := win.mismatches == 0 && pass.verify == nil && out["appdb.dict_apps"].Value == lcApps
	if win.firstErr != nil {
		fmt.Printf("%s: first failure: %v\n", b.name, win.firstErr)
	}
	if pass.verify != nil {
		fmt.Printf("%s: end-state check failed: %v\n", b.name, pass.verify)
	}
	return &result{Correct: correct, Attempted: win.attempted, Failed: win.failed, Metrics: out}, nil
}
