package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// clockTicks is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// daemon is one running appclassd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	logBuf *tailBuffer
	exited chan struct{}
}

// startDaemon launches appclassd with args and waits until /readyz
// answers 200. The returned duration runs from launch to that first
// 200: model load, store open and journal recovery, never input
// generation.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The daemon dies with the benchmark, however the benchmark ends.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, logBuf: &tailBuffer{max: 8 << 10}, exited: make(chan struct{})}
	addrc := make(chan string, 1)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	go func() {
		// Drain stderr for the process's whole life so it never blocks
		// on a full pipe; the listening line carries the bound port.
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logBuf.add(line)
			if !sent {
				if i := strings.Index(line, "listening on "); i >= 0 {
					addrc <- strings.TrimSpace(line[i+len("listening on "):])
					sent = true
				}
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		_ = cmd.Wait()
		close(d.exited)
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-d.exited:
		return nil, 0, fmt.Errorf("appclassd exited during startup: %s", d.logBuf.String())
	case <-time.After(120 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("appclassd did not listen within 120s: %s", d.logBuf.String())
	}
	d.base = "http://" + addr
	hc := &http.Client{Timeout: 5 * time.Second}
	for {
		resp, err := hc.Get(d.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				setup := time.Since(start)
				hc.CloseIdleConnections()
				return d, setup, nil
			}
		}
		if time.Since(start) > 120*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("appclassd not ready within 120s: %v", err)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// kill stops the daemon with SIGKILL and waits until it has exited.
func (d *daemon) kill() {
	if d == nil || d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGKILL)
	<-d.exited
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// getJSON fetches path from the daemon into v.
func (d *daemon) getJSON(path string, v any) error {
	resp, err := http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// collectGarbage runs a full collection in the daemon (the heap
// profile's gc=1) and waits for it. Called between warm-up and the
// measured window, it starts every window at the same point of the GC
// cycle: with fixed work the window then holds the same number of
// collections on every run, instead of one more or one fewer depending
// on where warm-up happened to leave the cycle — on fleet-paced's heap a
// whole collection is about a fifth of the window's CPU.
func (d *daemon) collectGarbage() error {
	resp, err := http.Get(d.base + "/debug/pprof/heap?gc=1")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	_, err = io.Copy(io.Discard, resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET /debug/pprof/heap: %s", resp.Status)
	}
	return err
}

// sessions returns the daemon's live-session count from /healthz.
func (d *daemon) sessions() (int, error) {
	var h struct {
		Sessions int `json:"sessions"`
	}
	err := d.getJSON("/healthz", &h)
	return h.Sessions, err
}

// metric reads one unlabelled counter or gauge from /metricsz.
func (d *daemon) metric(name string) (float64, error) {
	resp, err := http.Get(d.base + "/metricsz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	return promValue(body, name)
}

// promValue extracts an unlabelled sample from Prometheus text.
func promValue(body []byte, name string) (float64, error) {
	for _, line := range bytes.Split(body, []byte("\n")) {
		f := strings.Fields(string(line))
		if len(f) == 2 && f[0] == name {
			return strconv.ParseFloat(f[1], 64)
		}
	}
	return 0, fmt.Errorf("metric %s not exported", name)
}

// cpuTime returns a process's user+system CPU time from
// /proc/<pid>/stat, covering every thread of the process.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime (fields 14 and 15) from a
// /proc/<pid>/stat line. The command name (field 2) is parenthesised
// and may hold spaces or parentheses, so fields are counted from the
// last ')'.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(string(b[i+1:]))
	// f[0] is field 3 (state); utime is field 14, stime field 15.
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	ut, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	st, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns a process's VmHWM in MiB.
func peakRSS(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(b)
}

func parseVmHWM(b []byte) (float64, error) {
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("status: malformed VmHWM %q", line)
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("status: no VmHWM")
}

// tailBuffer keeps the last max bytes of the daemon's log for errors.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, line...)
	t.b = append(t.b, '\n')
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
