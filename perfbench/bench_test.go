package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/wire"
)

// dirBytes reads every file of a flat directory.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = b
	}
	return out
}

func sameDir(t *testing.T, what, a, b string) {
	t.Helper()
	da, db := dirBytes(t, a), dirBytes(t, b)
	if len(da) != len(db) || len(da) == 0 {
		t.Fatalf("%s: %d files vs %d", what, len(da), len(db))
	}
	for name, ba := range da {
		if !bytes.Equal(ba, db[name]) {
			t.Fatalf("%s: %s differs between two generations from one seed", what, name)
		}
	}
}

// generate prepares every workload's inputs for seed under root.
func generate(t *testing.T, root string, seed int64) (*bench, *saturate, *paced, *lifecycle) {
	t.Helper()
	in, err := genInputs(filepath.Join(root, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{seed: seed, seconds: 1, work: root, in: in}
	sat, pc, lc := &saturate{}, &paced{}, &lifecycle{}
	for _, w := range []workload{sat, pc, lc} {
		if err := w.prepare(b); err != nil {
			t.Fatal(err)
		}
	}
	return b, sat, pc, lc
}

func TestGeneratorDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size fixtures")
	}
	root := t.TempDir()
	a1, sat1, pc1, lc1 := generate(t, filepath.Join(root, "a"), 7)
	a2, sat2, pc2, lc2 := generate(t, filepath.Join(root, "b"), 7)

	m1, _ := os.ReadFile(a1.in.modelPath)
	m2, _ := os.ReadFile(a2.in.modelPath)
	if len(m1) == 0 || !bytes.Equal(m1, m2) {
		t.Fatal("model artefact differs between two generations from one seed")
	}
	sameDir(t, "journal fixture", sat1.fixture, sat2.fixture)
	sameDir(t, "store fixture", lc1.store, lc2.store)

	if len(pc1.reqs) != len(pc2.reqs) || pc1.warm != pc2.warm {
		t.Fatal("paced schedules differ in size")
	}
	for k := range pc1.reqs {
		if !bytes.Equal(pc1.reqs[k].body, pc2.reqs[k].body) || pc1.due[k] != pc2.due[k] {
			t.Fatalf("paced request %d differs", k)
		}
		for i := range pc1.reqs[k].want {
			if pc1.reqs[k].want[i] != pc2.reqs[k].want[i] {
				t.Fatalf("paced request %d expected classes differ", k)
			}
		}
	}
	cols := a1.in.schema.Len()
	for j := 0; j < 64; j++ {
		for c := 0; c < conns; c++ {
			v1, f1 := sat1.satSlots(c, j)
			v2, f2 := sat2.satSlots(c, j)
			var g1, g2 []wire.Group
			for i := range v1 {
				g1 = append(g1, wireGroup(v1[i], f1, satRows))
				g2 = append(g2, wireGroup(v2[i], f2, satRows))
				for r := 0; r < satRows; r++ {
					if v1[i].class(f1+r) != v2[i].class(f2+r) {
						t.Fatalf("saturate request %d/%d expected classes differ", c, j)
					}
				}
			}
			b1, _ := encodeBatch(nil, 1, cols, g1)
			b2, _ := encodeBatch(nil, 1, cols, g2)
			if !bytes.Equal(b1, b2) {
				t.Fatalf("saturate request %d/%d body differs", c, j)
			}
		}
	}
	for c := range lc1.plan {
		for j, op := range lc1.plan[c] {
			op2 := lc2.plan[c][j]
			b1, _ := encodeBatch(nil, 1, cols, []wire.Group{lc1.traces[op.trace].group(op.app)})
			b2, _ := encodeBatch(nil, 1, cols, []wire.Group{lc2.traces[op2.trace].group(op2.app)})
			if op.app != op2.app || !bytes.Equal(b1, b2) {
				t.Fatalf("lifecycle op %d/%d differs", c, j)
			}
			if lc1.traces[op.trace].rec.Class != lc2.traces[op2.trace].rec.Class {
				t.Fatalf("lifecycle op %d/%d expected verdict differs", c, j)
			}
		}
	}

	// A different seed must give different traffic.
	_, _, pc3, _ := generate(t, filepath.Join(root, "c"), 8)
	if bytes.Equal(pc1.reqs[0].body, pc3.reqs[0].body) && pc1.due[1] == pc3.due[1] {
		t.Fatal("seeds 7 and 8 generated the same paced traffic")
	}
}

// TestOpenLoopChargesStalls stalls the server for 300ms on one request
// while holding a lock every request needs. Requests due during the
// stall are sent late and answered late; both must show, because the
// open loop times each request from its due time.
func TestOpenLoopChargesStalls(t *testing.T) {
	const n, warm, stallAt = 400, 20, 150
	const stall = 300 * time.Millisecond
	var mu sync.Mutex
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if seen.Add(1) == stallAt {
			time.Sleep(stall)
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	cs := []*conn{newConn(0, srv.URL), newConn(1, srv.URL)}
	defer cs[0].close()
	defer cs[1].close()
	due := make([]time.Duration, n)
	for k := range due {
		due[k] = time.Duration(k) * 2 * time.Millisecond
	}
	win, err := openLoop(os.Getpid(), cs, due, warm, func(c *conn, k int) error {
		_, err := c.do("POST", "/", "", []byte("x"))
		return err
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if win.attempted != n-warm || win.failed != 0 {
		t.Fatalf("attempted %d failed %d", win.attempted, win.failed)
	}
	// ~150 requests fall due during the stall: far more than 1%.
	if p99 := quantile(win.lat, 0.99); p99 < stall/2 {
		t.Fatalf("ack p99 %v hides a %v stall", p99, stall)
	}
	if late := quantile(win.late, 0.99); late < stall/3 {
		t.Fatalf("generator late p99 %v hides a %v stall", late, stall)
	}
	if p50 := win.p50(); p50 > stall/2 {
		t.Fatalf("median of slice medians %v should stay below the stall", p50)
	}
	if len(win.slices) != slices {
		t.Fatalf("%d slices", len(win.slices))
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command field may itself contain spaces and parentheses.
	line := []byte("4242 (app (class) d) S 1 4242 4242 0 -1 4194560 1200 0 0 0 150 75 0 0 20 0 9 0 123 456 789\n")
	got, err := parseStatCPU(line)
	if err != nil {
		t.Fatal(err)
	}
	if want := 2250 * time.Millisecond; got != want {
		t.Fatalf("utime+stime = %v, want %v", got, want)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("truncated stat line parsed")
	}
	self, err := cpuTime(os.Getpid())
	if err != nil || self < 0 {
		t.Fatalf("own cpu time %v, %v", self, err)
	}
	mb, err := parseVmHWM([]byte("Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n"))
	if err != nil || mb != 2 {
		t.Fatalf("VmHWM = %v MiB, %v; want 2", mb, err)
	}
	if v, err := promValue([]byte("# HELP a_total x\na_total 17\nb_total{x=\"y\"} 3\n"), "a_total"); err != nil || v != 17 {
		t.Fatalf("promValue = %v, %v", v, err)
	}
}

// TestDictionaryStaysAtPoolSize finishes runs of pool apps on an
// in-process daemon over a small store fixture: the fingerprint
// dictionary must stay exactly the pool size, and the run plan must
// never give two connections the same app.
func TestDictionaryStaysAtPoolSize(t *testing.T) {
	const apps, perApp = 40, 3
	root := t.TempDir()
	in, err := genInputs(filepath.Join(root, "inputs"))
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{seed: 3, work: root, in: in}
	traces, err := runTraces(b)
	if err != nil {
		t.Fatal(err)
	}
	store := filepath.Join(root, "store")
	if err := writeStoreFixture(store, b.seed, apps, perApp, traces); err != nil {
		t.Fatal(err)
	}
	db, err := appdb.Open(store, appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if n := len(db.Fingerprints()); n != apps {
		t.Fatalf("fixture dictionary holds %d apps, want %d", n, apps)
	}
	p := &probe{b: b, dir: root}
	srv, j, err := p.newServer(filepath.Join(root, "journal"), db)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	h := srv.Handler()
	id, err := handshakeInProcess(h, in.schema)
	if err != nil {
		t.Fatal(err)
	}
	plan := planRuns(rand.New(rand.NewSource(1)), apps, 2*apps, len(traces))
	owner := map[string]int{}
	for c, ops := range plan {
		for _, op := range ops[:8] {
			if o, ok := owner[op.app]; ok && o != c {
				t.Fatalf("app %s planned on connections %d and %d", op.app, o, c)
			}
			owner[op.app] = c
			body, err := encodeBatch(nil, id, in.schema.Len(), []wire.Group{traces[op.trace].group(op.app)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := serve(h, "POST", "/v1/ingest.bin", body); err != nil {
				t.Fatal(err)
			}
			if _, err := serve(h, "POST", "/v1/vms/"+op.app+"/finish", nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := len(db.Fingerprints()); n != apps {
		t.Fatalf("dictionary holds %d apps after pool runs, want %d", n, apps)
	}
	if srv.Sessions() != 0 {
		t.Fatalf("%d sessions left live", srv.Sessions())
	}
}
