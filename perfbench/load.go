package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// conn is one client connection to the daemon: one persistent TCP
// connection speaking HTTP/1.1 directly, with requests written from a
// reused buffer and responses parsed by net/http's reader. It runs on
// the calling goroutine only (no transport goroutines), so the
// generator's CPU stays small next to the daemon's.
type conn struct {
	id   int
	addr string
	nc   net.Conn
	br   *bufio.Reader
	req  []byte
	resp bytes.Buffer
	sent int // requests sent, for the shed fraction
	// tracer holds the traced run's spans; rec is tracer while the
	// current slice is traced and nil otherwise.
	tracer, rec *recorder
}

// traceSlice turns span recording on for odd slices of a traced run:
// traced and untraced slices interleave on one daemon, so their ops/s
// ratio measures the tracing overhead free of drift between passes.
func (c *conn) traceSlice(k int) {
	c.rec = nil
	if k%2 == 1 {
		c.rec = c.tracer
	}
}

// newConn prepares a connection to base ("http://host:port"); it dials
// on first use.
func newConn(id int, base string) *conn {
	return &conn{id: id, addr: strings.TrimPrefix(base, "http://")}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// statusError is a non-2xx answer; every one counts as a failed op.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// do sends one request and returns the response body, valid until the
// next call on c. Non-2xx statuses come back as *statusError.
func (c *conn) do(method, path, ctype string, body []byte) ([]byte, error) {
	if c.nc == nil {
		nc, err := net.DialTimeout("tcp", c.addr, 10*time.Second)
		if err != nil {
			return nil, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	r := append(c.req[:0], method...)
	r = append(r, ' ')
	r = append(r, path...)
	r = append(r, " HTTP/1.1\r\nHost: "...)
	r = append(r, c.addr...)
	if ctype != "" {
		r = append(r, "\r\nContent-Type: "...)
		r = append(r, ctype...)
	}
	r = append(r, "\r\nContent-Length: "...)
	r = strconv.AppendInt(r, int64(len(body)), 10)
	r = append(r, "\r\n\r\n"...)
	r = append(r, body...)
	c.req = r
	c.sent++
	if err := c.nc.SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
		return nil, err
	}
	if _, err := c.nc.Write(r); err != nil {
		c.close()
		return nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		b := c.resp.Bytes()
		if len(b) > 200 {
			b = b[:200]
		}
		return nil, &statusError{code: resp.StatusCode, body: string(b)}
	}
	return c.resp.Bytes(), nil
}

// mismatch is a well-formed answer whose content is wrong: a failed op
// that also makes the run incorrect.
type mismatch struct{ msg string }

func (m *mismatch) Error() string { return "mismatch: " + m.msg }

func mismatchf(format string, args ...any) error {
	return &mismatch{msg: fmt.Sprintf(format, args...)}
}

// opFunc performs op j of connection c and checks its answer.
type opFunc func(c *conn, j int) error

// thinkFunc is the pause connection c takes before op j, outside the
// op's latency; nil means none.
type thinkFunc func(c *conn, j int) time.Duration

// slices is how many equal fixed-work slices a measured window is cut
// into. Throughput, median latency and CPU per op are reported as the
// median over slices, so a burst of interference from outside the
// benchmark spoils one slice rather than the run.
const slices = 10

// slice is one fixed-work part of a measured window.
type slice struct {
	traced            bool
	ok                int
	elapsed           time.Duration
	daemonCPU, genCPU time.Duration
	lat               []time.Duration
}

// window is what one measured phase of a load loop observed.
type window struct {
	attempted, failed, mismatches int
	firstErr                      error
	lat                           []time.Duration // per successful op
	late                          []time.Duration // generator slip per op
	slices                        []slice
}

func (w *window) record(err error) {
	w.attempted++
	if err == nil {
		return
	}
	w.failed++
	if _, ok := err.(*mismatch); ok {
		w.mismatches++
	}
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// medianOver returns the median of f over the window's slices.
func (w *window) medianOver(f func(s *slice) float64) float64 {
	vs := make([]float64, len(w.slices))
	for i := range w.slices {
		vs[i] = f(&w.slices[i])
	}
	sort.Float64s(vs)
	if len(vs) == 0 {
		return 0
	}
	if len(vs)%2 == 1 {
		return vs[len(vs)/2]
	}
	return (vs[len(vs)/2-1] + vs[len(vs)/2]) / 2
}

// only returns the window restricted to its traced or untraced slices.
func (w *window) only(traced bool) *window {
	out := *w
	out.slices = nil
	for _, s := range w.slices {
		if s.traced == traced {
			out.slices = append(out.slices, s)
		}
	}
	return &out
}

func (w *window) opsPerSec() float64 {
	return w.medianOver(func(s *slice) float64 { return float64(s.ok) / s.elapsed.Seconds() })
}

// cpuPerOp is the daemon's CPU over every measured slice divided by the
// ops acknowledged in them: with fixed work, the window always holds
// the same garbage-collection work, which a per-slice median would
// sometimes include and sometimes skip.
func (w *window) cpuPerOp() time.Duration {
	var cpu time.Duration
	ok := 0
	for _, s := range w.slices {
		cpu += s.daemonCPU
		ok += s.ok
	}
	return cpu / time.Duration(max(ok, 1))
}

func (w *window) p50() time.Duration {
	return time.Duration(w.medianOver(func(s *slice) float64 { return float64(quantile(s.lat, 0.5)) }))
}

// cpuShare is the generator's share of generator plus daemon CPU.
func (w *window) cpuShare() float64 {
	var d, g time.Duration
	for _, s := range w.slices {
		d += s.daemonCPU
		g += s.genCPU
	}
	return float64(g) / float64(max(g+d, 1))
}

// cpuPair samples daemon and generator CPU together.
func cpuPair(pid int) (daemon, gen time.Duration, err error) {
	if daemon, err = cpuTime(pid); err != nil {
		return
	}
	gen, err = cpuTime(os.Getpid())
	return
}

// closedLoop runs warm then meas ops on every connection, each
// connection sending its next request only after the previous answer;
// settle runs between them, with nothing in flight.
// The measured ops run as slices: every connection finishes a slice
// before the next one starts, and CPU and wall time are sampled at each
// slice boundary, so they cover measured ops only. late records, per
// op, the generator's own turnaround: the gap between an answer and the
// next send on that connection.
func closedLoop(pid int, conns []*conn, warm, meas int, op opFunc, think thinkFunc, settle func() error) (*window, error) {
	run := func(from, to int, w *window) {
		var wg sync.WaitGroup
		per := make([]window, len(conns))
		for i, c := range conns {
			wg.Add(1)
			go func(pw *window, c *conn) {
				defer wg.Done()
				prev := time.Now()
				for j := from; j < to; j++ {
					var pause time.Duration
					if think != nil {
						pause = think(c, j)
						time.Sleep(pause)
					}
					t0 := time.Now()
					err := op(c, j)
					t1 := time.Now()
					pw.record(err)
					if err == nil {
						pw.lat = append(pw.lat, t1.Sub(t0))
					}
					pw.late = append(pw.late, t0.Sub(prev)-pause)
					prev = t1
				}
			}(&per[i], c)
		}
		wg.Wait()
		for i := range per {
			w.merge(&per[i])
		}
	}
	for _, c := range conns {
		c.rec = nil
	}
	warmWin := &window{}
	run(0, warm, warmWin)
	if warmWin.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", warmWin.firstErr)
	}
	if settle != nil {
		if err := settle(); err != nil {
			return nil, err
		}
	}
	out := &window{}
	for k := 0; k < slices; k++ {
		from, to := warm+k*meas/slices, warm+(k+1)*meas/slices
		for _, c := range conns {
			c.traceSlice(k)
		}
		d0, g0, err := cpuPair(pid)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		sw := &window{}
		run(from, to, sw)
		elapsed := time.Since(t0)
		d1, g1, err := cpuPair(pid)
		if err != nil {
			return nil, err
		}
		out.slices = append(out.slices, slice{
			traced: conns[0].rec != nil,
			ok:     sw.attempted - sw.failed, elapsed: elapsed,
			daemonCPU: d1 - d0, genCPU: g1 - g0, lat: sw.lat,
		})
		out.merge(sw)
	}
	return out, nil
}

func (w *window) merge(o *window) {
	w.attempted += o.attempted
	w.failed += o.failed
	w.mismatches += o.mismatches
	if w.firstErr == nil {
		w.firstErr = o.firstErr
	}
	w.lat = append(w.lat, o.lat...)
	w.late = append(w.late, o.late...)
}

// openLoop sends request k at its due time regardless of how earlier
// requests fared, on whichever connection is free next (a shared FIFO
// over at most len(conns) connections). Latency runs from the due
// time, so a stall also charges every request queued behind it; late
// is how far past its due time each request actually went out. The
// first warm requests run on their own schedule, unmeasured; settle
// then runs with no request in flight, and the measured requests
// follow on the rest of the schedule, shifted to start afresh. They
// form slices of equal request counts; CPU is sampled at each slice's
// first due time and after the last answer, and a slice's wall time
// runs between those samples.
func openLoop(pid int, conns []*conn, due []time.Duration, warm int, op opFunc, settle func() error) (*window, error) {
	meas := len(due) - warm
	if meas < slices {
		return nil, fmt.Errorf("open loop: %d measured requests for %d slices", meas, slices)
	}
	bound := func(k int) int { return warm + k*meas/slices } // first request of slice k
	sliceOf := make([]int, len(due))
	for k := 0; k < slices; k++ {
		for r := bound(k); r < bound(k+1); r++ {
			sliceOf[r] = k
		}
	}
	per := make([]window, len(conns))
	lat := make([]time.Duration, len(due))
	okAt := make([]bool, len(due))
	// drive sends requests [from, to), request k at start+due[k]-due[from].
	drive := func(from, to int, start time.Time, measured bool) {
		var next atomic.Int64
		next.Store(int64(from))
		var wg sync.WaitGroup
		for i, c := range conns {
			wg.Add(1)
			go func(w *window, c *conn) {
				defer wg.Done()
				for {
					k := int(next.Add(1) - 1)
					if k >= to {
						return
					}
					c.rec = nil
					if measured {
						c.traceSlice(sliceOf[k])
					}
					at := start.Add(due[k] - due[from])
					if d := time.Until(at); d > 0 {
						time.Sleep(d)
					}
					sent := time.Now()
					err := op(c, k)
					done := time.Now()
					if !measured {
						if err != nil && w.firstErr == nil {
							w.firstErr = err
						}
						continue
					}
					w.record(err)
					if err == nil {
						w.lat = append(w.lat, done.Sub(at))
						lat[k], okAt[k] = done.Sub(at), true
					}
					w.late = append(w.late, sent.Sub(at))
				}
			}(&per[i], c)
		}
		wg.Wait()
	}
	if warm > 0 {
		drive(0, warm, time.Now().Add(20*time.Millisecond), false)
		for i := range per {
			if err := per[i].firstErr; err != nil {
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	if settle != nil {
		if err := settle(); err != nil {
			return nil, err
		}
	}

	start := time.Now().Add(20 * time.Millisecond)
	type sample struct {
		at   time.Time
		d, g time.Duration
		err  error
	}
	samples := make([]sample, slices+1)
	var timers sync.WaitGroup
	for k := 0; k < slices; k++ {
		timers.Add(1)
		time.AfterFunc(time.Until(start.Add(due[bound(k)]-due[warm])), func() {
			defer timers.Done()
			d, g, err := cpuPair(pid)
			samples[k] = sample{time.Now(), d, g, err}
		})
	}
	drive(warm, len(due), start, true)
	timers.Wait()
	d, g, err := cpuPair(pid)
	samples[slices] = sample{time.Now(), d, g, err}
	out := &window{}
	for i := range per {
		out.merge(&per[i])
	}
	for k := 0; k < slices; k++ {
		s0, s1 := samples[k], samples[k+1]
		if s0.err != nil || s1.err != nil {
			return nil, fmt.Errorf("cpu sample: %v %v", s0.err, s1.err)
		}
		sl := slice{traced: k%2 == 1 && conns[0].tracer != nil, elapsed: s1.at.Sub(s0.at), daemonCPU: s1.d - s0.d, genCPU: s1.g - s0.g}
		for r := bound(k); r < bound(k+1); r++ {
			if okAt[r] {
				sl.ok++
				sl.lat = append(sl.lat, lat[r])
			}
		}
		out.slices = append(out.slices, sl)
	}
	return out, nil
}

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	i := int(q*float64(len(ds))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ds) {
		i = len(ds) - 1
	}
	return ds[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
