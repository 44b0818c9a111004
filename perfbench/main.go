// Command perfbench is appclassd's end-to-end benchmark. It generates
// seeded inputs, launches the daemon built from this checkout, drives it
// over loopback from one load-generator process (two connections,
// GOMAXPROCS 2), checks every answer, and prints one JSON result line.
//
// Usage (normally through run.sh, which builds both binaries):
//
//	perfbench -daemon appclassd -work DIR --workload fleet-saturate --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and traced, times calls into every layer's
// public functions in-process, prints a per-layer table, writes the
// spans under -work's parent, and reports the per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// bench is one run's configuration and generated inputs.
type bench struct {
	name      string
	seed      int64
	seconds   int
	daemonBin string
	work      string
	in        *inputs
	w         workload
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func newWorkload(name string) (workload, bool) {
	switch name {
	case "fleet-saturate":
		return &saturate{}, true
	case "fleet-paced":
		return &paced{}, true
	case "run-lifecycle":
		return &lifecycle{}, true
	}
	return nil, false
}

func main() {
	// One P drives both connections: the generator is I/O-bound, and a
	// second P would spin on every wake-up, taking CPU from the daemon.
	runtime.GOMAXPROCS(1)
	var (
		name    = flag.String("workload", "", "fleet-saturate, fleet-paced or run-lifecycle")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "sizes the fixed work of the measured window at the nominal rates")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer run")
		bin     = flag.String("daemon", "", "appclassd binary")
		work    = flag.String("work", "", "work directory (emptied first, removed at exit)")
	)
	flag.Parse()
	w, ok := newWorkload(*name)
	if !ok || *bin == "" || *work == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -daemon, -work, --seconds >= 1, --trace 0|1 and --workload fleet-saturate|fleet-paced|run-lifecycle")
		os.Exit(2)
	}
	b := &bench{name: *name, seed: *seed, seconds: *seconds, daemonBin: *bin, work: *work, w: w}
	res, err := b.run(*trace == 1)
	removeAll(b.work)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
		os.Exit(1)
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
}

func (b *bench) run(traced bool) (*result, error) {
	removeAll(b.work)
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	t0 := time.Now()
	var err error
	if b.in, err = genInputs(filepath.Join(b.work, "inputs")); err != nil {
		return nil, fmt.Errorf("inputs: %w", err)
	}
	if err := b.w.prepare(b); err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	fmt.Printf("%s: inputs for seed %d generated in %.2fs (untimed)\n", b.name, b.seed, time.Since(t0).Seconds())
	if traced {
		return b.tracedRun()
	}
	return b.endToEnd()
}

// launch starts a daemon on fresh state for launch number rep and
// checks what it recovered.
func (b *bench) launch(rep int) (*daemon, time.Duration, error) {
	dir := filepath.Join(b.work, "state-"+strconv.Itoa(rep))
	removeAll(dir)
	args, err := b.w.launchArgs(b, dir)
	if err != nil {
		return nil, 0, err
	}
	d, setup, err := startDaemon(b.daemonBin, args)
	if err != nil {
		return nil, 0, err
	}
	if err := b.w.afterSetup(b, d); err != nil {
		d.kill()
		return nil, 0, fmt.Errorf("setup check: %w", err)
	}
	return d, setup, nil
}

// pass is one measured traffic pass against a freshly launched daemon.
type pass struct {
	win    *window
	rss    float64
	sent   int
	shed   float64
	verify error
	recs   []*recorder
}

// runPass launches the daemon (the last of reps launches; earlier ones
// only time set-up), drives the workload and checks the end state; after,
// when set, runs against the daemon once the checks are done.
func (b *bench) runPass(reps int, epoch *time.Time, after func(*daemon, []*conn) error) (*pass, []time.Duration, error) {
	var setups []time.Duration
	for rep := 0; rep < reps-1; rep++ {
		d, setup, err := b.launch(rep)
		if err != nil {
			return nil, nil, err
		}
		d.kill()
		removeAll(filepath.Join(b.work, "state-"+strconv.Itoa(rep)))
		setups = append(setups, setup)
	}
	d, setup, err := b.launch(reps - 1)
	if err != nil {
		return nil, nil, err
	}
	defer d.kill()
	setups = append(setups, setup)
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = newConn(i, d.base)
		defer cs[i].close()
	}
	if err := b.w.connect(b, d, cs); err != nil {
		return nil, nil, fmt.Errorf("connect: %w", err)
	}
	p := &pass{}
	if epoch != nil {
		for i, c := range cs {
			c.tracer = newRecorder(*epoch, i+1)
			p.recs = append(p.recs, c.tracer)
		}
	}
	if p.win, err = b.w.measure(b, d, cs); err != nil {
		return nil, nil, err
	}
	if p.rss, err = peakRSS(d.pid()); err != nil {
		return nil, nil, err
	}
	p.verify = b.w.verify(b, d)
	if p.shed, err = d.metric("appclassd_ingest_shed_total"); err != nil {
		return nil, nil, err
	}
	for _, c := range cs {
		p.sent += c.sent
	}
	if after != nil {
		if err := after(d, cs); err != nil {
			return nil, nil, err
		}
	}
	return p, setups, nil
}

func (b *bench) endToEnd() (*result, error) {
	p, setups, err := b.runPass(b.w.setupReps(), nil, nil)
	if err != nil {
		return nil, err
	}
	win := p.win
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	setup := setups[len(setups)/2]
	p50, p99 := win.p50(), quantile(win.lat, 0.99)
	res := &result{
		Correct:   win.mismatches == 0 && p.verify == nil,
		Attempted: win.attempted,
		Failed:    win.failed,
		Metrics: map[string]metric{
			"setup_s":       {setup.Seconds(), "s"},
			"ops_per_s":     {win.opsPerSec(), "1/s"},
			"ack_p50_ms":    {ms(p50), "ms"},
			"cpu_us_per_op": {float64(win.cpuPerOp()) / float64(time.Microsecond), "us"},
			"rss_mb":        {p.rss, "MiB"},
		},
	}
	var sum time.Duration
	for _, d := range win.lat {
		sum += d
	}
	fmt.Printf("%s: %d measured ops (%d failed, %d mismatched) in %d slices; latency samples %d, p50 %.3fms (median of slice medians), overall p50 %.3fms, mean %.3fms, p99 %.3fms; setups %v\n",
		b.name, win.attempted, win.failed, win.mismatches, len(win.slices), len(win.lat), ms(p50), ms(quantile(win.lat, 0.5)),
		ms(sum/time.Duration(max(len(win.lat), 1))), ms(p99), setups)
	for k, s := range win.slices {
		fmt.Printf("%s: slice %d: %d ops in %.3fs, p50 %.3fms, daemon %.0fus/op, generator %.0fus/op\n", b.name, k, s.ok,
			s.elapsed.Seconds(), ms(quantile(s.lat, 0.5)), float64(s.daemonCPU.Microseconds())/float64(max(s.ok, 1)), float64(s.genCPU.Microseconds())/float64(max(s.ok, 1)))
	}
	if win.firstErr != nil {
		fmt.Printf("%s: first failure: %v\n", b.name, win.firstErr)
	}
	if p.verify != nil {
		fmt.Printf("%s: end-state check failed: %v\n", b.name, p.verify)
	}
	return res, nil
}
