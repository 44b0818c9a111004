package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/appdb"
	"repro/internal/appstore"
	"repro/internal/metrics"
	"repro/internal/wal"
)

// getJSON issues a GET against the daemon's handler.
func getJSON(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decodeJSON unmarshals a recorded 200 response body into v.
func decodeJSON(t *testing.T, w *httptest.ResponseRecorder, v any) {
	t.Helper()
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if err := json.Unmarshal(w.Body.Bytes(), v); err != nil {
		t.Fatalf("decode response: %v\n%s", err, w.Body.String())
	}
}

// containsLine reports whether any line of the exposition text starts
// with the given prefix.
func containsLine(text, prefix string) bool {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return true
		}
	}
	return false
}

// splicedTrace concatenates profiled traces of the named registry
// entries into one stream on a uniform 5-second cadence, returning the
// spliced trace and the times at which each later segment begins — the
// planted phase boundaries the segmenter must recover.
func splicedTrace(t *testing.T, vm string, names ...string) (*metrics.Trace, []time.Duration) {
	t.Helper()
	const cadence = 5 * time.Second
	out := metrics.NewTrace(metrics.DefaultSchema(), vm)
	var boundaries []time.Duration
	next := cadence
	for si, name := range names {
		tr := profiledTrace(t, name)
		if tr.Len() == 0 {
			t.Fatalf("profiled trace for %s is empty", name)
		}
		if si > 0 {
			boundaries = append(boundaries, next)
		}
		for i := 0; i < tr.Len(); i++ {
			sn := tr.At(i)
			if err := out.Append(metrics.Snapshot{Time: next, Node: vm, Values: sn.Values}); err != nil {
				t.Fatalf("splice %s snapshot %d: %v", name, i, err)
			}
			next += cadence
		}
	}
	return out, boundaries
}

// TestSegmentationRecoversPlantedBoundary splices a profiled
// CPU-intensive trace onto an IO-intensive one and streams the result
// through the daemon: the online segmenter must place a phase boundary
// within one segmentation window of the splice point, label the sides
// with the right classes, and expose the breakdown over the API.
func TestSegmentationRecoversPlantedBoundary(t *testing.T) {
	vm := "spliced-vm"
	trace, boundaries := splicedTrace(t, vm, "SPECseis96_C", "PostMark")
	if len(boundaries) != 1 {
		t.Fatalf("planted %d boundaries, want 1", len(boundaries))
	}

	s := newTestServer(t, Config{})
	ingestTraceRange(t, s, vm, trace, 0, trace.Len())

	view := sessionView(t, s, vm)
	if len(view.Phases) < 2 {
		t.Fatalf("segmenter found %d phases, want at least 2: %+v", len(view.Phases), view.Phases)
	}
	if got := view.Phases[0].Class; got != appclass.CPU {
		t.Errorf("first phase class = %s, want %s", got, appclass.CPU)
	}
	last := view.Phases[len(view.Phases)-1]
	if last.Class != appclass.IO {
		t.Errorf("last phase class = %s, want %s", last.Class, appclass.IO)
	}
	if !last.Open {
		t.Errorf("last phase should still be open on a live session")
	}
	// One detected boundary must land within one window of the splice.
	window := 8 * 5 * time.Second
	planted := boundaries[0]
	found := false
	for _, p := range view.Phases[1:] {
		if d := p.Start - planted; d >= -window && d <= window {
			found = true
		}
	}
	if !found {
		starts := make([]time.Duration, 0, len(view.Phases))
		for _, p := range view.Phases {
			starts = append(starts, p.Start)
		}
		t.Errorf("no phase boundary within %v of planted splice at %v; phase starts: %v", window, planted, starts)
	}

	// The API must expose the same breakdown.
	w := getJSON(t, s, "/v1/vms/"+vm)
	var detail struct {
		Phases    int `json:"phases"`
		PhaseList []struct {
			Class string `json:"class"`
			Open  bool   `json:"open"`
		} `json:"phase_list"`
	}
	decodeJSON(t, w, &detail)
	if detail.Phases != len(view.Phases) || len(detail.PhaseList) != len(view.Phases) {
		t.Errorf("API reports %d/%d phases, session has %d", detail.Phases, len(detail.PhaseList), len(view.Phases))
	}
}

// TestVMStagesDerivedFromPhases streams a planted two-regime session
// and checks that /v1/vms/{vm} derives stages from the phase list:
// adjacent same-class phases merge, the stage snapshot counts cover the
// whole session, and with segmentation off there are no stages.
func TestVMStagesDerivedFromPhases(t *testing.T) {
	vm := "stages-vm"
	trace, _ := splicedTrace(t, vm, "SPECseis96_C", "PostMark")
	type span struct {
		Class        string  `json:"class"`
		StartSeconds float64 `json:"start_s"`
		EndSeconds   float64 `json:"end_s"`
		Snapshots    int     `json:"snapshots"`
	}
	var detail struct {
		Snapshots int    `json:"snapshots"`
		Stages    []span `json:"stages"`
		PhaseList []span `json:"phase_list"`
	}

	s := newTestServer(t, Config{})
	ingestTraceRange(t, s, vm, trace, 0, trace.Len())
	decodeJSON(t, getJSON(t, s, "/v1/vms/"+vm), &detail)
	if len(detail.PhaseList) < 2 {
		t.Fatalf("segmenter found %d phases, want the planted regimes apart", len(detail.PhaseList))
	}
	var want []span
	for _, p := range detail.PhaseList {
		if n := len(want); n > 0 && want[n-1].Class == p.Class {
			want[n-1].EndSeconds = p.EndSeconds
			want[n-1].Snapshots += p.Snapshots
			continue
		}
		want = append(want, p)
	}
	if !reflect.DeepEqual(detail.Stages, want) {
		t.Errorf("stages = %+v, want the phase list merged by class: %+v", detail.Stages, want)
	}
	if len(detail.Stages) < 2 || detail.Stages[0].Class != string(appclass.CPU) ||
		detail.Stages[len(detail.Stages)-1].Class != string(appclass.IO) {
		t.Errorf("stages = %+v, want a cpu stage first and an io stage last", detail.Stages)
	}
	sum := 0
	for _, st := range detail.Stages {
		sum += st.Snapshots
	}
	if sum != detail.Snapshots || sum != trace.Len() {
		t.Errorf("stage snapshots sum to %d, session has %d (trace %d)", sum, detail.Snapshots, trace.Len())
	}

	off := newTestServer(t, Config{SegmentWindow: -1})
	ingestTraceRange(t, off, vm, trace, 0, trace.Len())
	w := getJSON(t, off, "/v1/vms/"+vm)
	var raw map[string]json.RawMessage
	decodeJSON(t, w, &raw)
	if got := string(raw["stages"]); got != "[]" {
		t.Errorf("with segmentation off, stages = %s, want []", got)
	}
	if _, ok := raw["phase_list"]; ok {
		t.Errorf("with segmentation off, phase_list = %s, want it omitted", raw["phase_list"])
	}
}

// TestFingerprintMatchesAcrossRuns streams the same spliced workload
// twice under different VM names: the second run's finalized record
// must match the first run's stored fingerprint.
func TestFingerprintMatchesAcrossRuns(t *testing.T) {
	traceA, _ := splicedTrace(t, "fp-a", "SPECseis96_C", "PostMark")
	s := newTestServer(t, Config{})

	ingestTraceRange(t, s, "fp-a", traceA, 0, traceA.Len())
	w := postJSON(t, s.Handler(), "/v1/vms/fp-a/finish", nil)
	if w.Code != 200 {
		t.Fatalf("finish fp-a: %d %s", w.Code, w.Body.String())
	}
	recA, err := s.DB().Latest("fp-a")
	if err != nil {
		t.Fatal(err)
	}
	if recA.Fingerprint == nil || recA.Fingerprint.Empty() {
		t.Fatalf("first run stored no fingerprint: %+v", recA)
	}
	if recA.MatchedApp != "" {
		t.Errorf("first run matched %q with an empty dictionary", recA.MatchedApp)
	}

	// Second run, different VM name, slightly different seed ordering is
	// irrelevant — same trace, so the fingerprints must agree.
	traceB, _ := splicedTrace(t, "fp-b", "SPECseis96_C", "PostMark")
	ingestTraceRange(t, s, "fp-b", traceB, 0, traceB.Len())
	w = postJSON(t, s.Handler(), "/v1/vms/fp-b/finish", nil)
	if w.Code != 200 {
		t.Fatalf("finish fp-b: %d %s", w.Code, w.Body.String())
	}
	recB, err := s.DB().Latest("fp-b")
	if err != nil {
		t.Fatal(err)
	}
	if recB.MatchedApp != "fp-a" {
		t.Errorf("second run matched %q (score %.2f), want fp-a; fingerprints: a=%s b=%s",
			recB.MatchedApp, recB.MatchScore, recA.Fingerprint, recB.Fingerprint)
	}

	// The dictionary endpoint lists both runs.
	var fps struct {
		Count        int `json:"count"`
		Fingerprints []struct {
			App        string `json:"app"`
			MatchedApp string `json:"matched_app"`
		} `json:"fingerprints"`
	}
	decodeJSON(t, getJSON(t, s, "/v1/fingerprints"), &fps)
	if fps.Count != 2 {
		t.Errorf("fingerprint dictionary has %d entries, want 2", fps.Count)
	}
}

// TestFingerprintsEndpointMatchesRunHistory finishes runs on both
// database engines and checks GET /v1/fingerprints byte for byte
// against the dictionary read off every application's run history —
// its newest fingerprinted run — and each finish's historical_runs
// against the application's run count.
func TestFingerprintsEndpointMatchesRunHistory(t *testing.T) {
	traceA, _ := splicedTrace(t, "vm", "SPECseis96_C", "PostMark")
	traceB, _ := splicedTrace(t, "vm", "PostMark", "SPECseis96_C")
	store, err := appdb.Open(t.TempDir()+"/store", appstore.Options{NoFsync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	for name, db := range map[string]*appdb.DB{"memory": appdb.New(), "store": store} {
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, Config{DB: db})
			for i, run := range []struct {
				vm    string
				trace *metrics.Trace
			}{{"fp-a", traceA}, {"fp-b", traceB}, {"fp-a", traceB}, {"fp-c", traceA}, {"fp-a", traceA}} {
				ingestTraceRange(t, s, run.vm, run.trace, 0, run.trace.Len())
				var fin finishResponse
				decodeJSON(t, postJSON(t, s.Handler(), "/v1/vms/"+run.vm+"/finish", nil), &fin)
				if want := len(db.Runs(run.vm)); fin.HistoricalRuns != want {
					t.Errorf("finish %d (%s): historical_runs %d, want %d", i, run.vm, fin.HistoricalRuns, want)
				}
			}
			want := struct {
				Count        int                `json:"count"`
				Fingerprints []fingerprintEntry `json:"fingerprints"`
			}{}
			for _, app := range db.Apps() {
				rs := db.Runs(app)
				for i := len(rs) - 1; i >= 0; i-- {
					if fp := rs[i].Fingerprint; fp != nil && !fp.Empty() {
						want.Fingerprints = append(want.Fingerprints, fingerprintEntry{
							App: app, Summary: fp.String(), Phases: fp.Phases,
							MatchedApp: rs[i].MatchedApp, MatchScore: rs[i].MatchScore,
						})
						break
					}
				}
			}
			want.Count = len(want.Fingerprints)
			matched := 0
			for _, e := range want.Fingerprints {
				if e.MatchedApp != "" {
					matched++
				}
			}
			if want.Count != 3 || matched == 0 {
				t.Fatalf("run history has %d fingerprinted apps, %d with a match; want 3, some matched", want.Count, matched)
			}
			wantBody := httptest.NewRecorder()
			writeJSON(wantBody, http.StatusOK, want)
			if got := getJSON(t, s, "/v1/fingerprints").Body.String(); got != wantBody.Body.String() {
				t.Errorf("GET /v1/fingerprints =\n%s\nwant\n%s", got, wantBody.Body.String())
			}
		})
	}
}

// TestCrashRecoveryPreservesPhases kills a journaled daemon mid-stream
// and recovers on the same journal: the recovered session's phase list
// after ingesting the rest must equal an uninterrupted run's.
func TestCrashRecoveryPreservesPhases(t *testing.T) {
	vm := "phase-crash-vm"
	trace, _ := splicedTrace(t, vm, "SPECseis96_C", "PostMark")
	half := trace.Len() / 2

	ref := newTestServer(t, Config{})
	ingestTraceRange(t, ref, vm, trace, 0, trace.Len())
	want := sessionView(t, ref, vm)
	if len(want.Phases) < 2 {
		t.Fatalf("reference run found %d phases, want at least 2", len(want.Phases))
	}

	dir := t.TempDir()
	a := crashServer(t, crashJournal(t, dir))
	ingestTraceRange(t, a, vm, trace, 0, half/2)
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("mid-run checkpoint: %v", err)
	}
	ingestTraceRange(t, a, vm, trace, half/2, half)
	// kill -9: a is abandoned, journal left open.

	jb, err := wal.Open(wal.Config{Dir: dir, Fsync: wal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jb.Close() })
	b := newTestServer(t, Config{Journal: jb})
	if _, err := b.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ingestTraceRange(t, b, vm, trace, half, trace.Len())

	got := sessionView(t, b, vm)
	if len(got.Phases) != len(want.Phases) {
		t.Fatalf("recovered run has %d phases, uninterrupted run %d:\n got %+v\nwant %+v",
			len(got.Phases), len(want.Phases), got.Phases, want.Phases)
	}
	for i := range want.Phases {
		g, w := got.Phases[i], want.Phases[i]
		if g.Class != w.Class || g.Start != w.Start || g.End != w.End || g.Snapshots != w.Snapshots {
			t.Errorf("phase %d diverged after crash recovery:\n got %+v\nwant %+v", i, g, w)
		}
	}
	if got.Unknown != want.Unknown {
		t.Errorf("recovered unknown count %d, want %d", got.Unknown, want.Unknown)
	}
}

// TestOpenSetVerdictsEndToEnd streams the adversarial Mimic workload
// and all five training-class traces through a daemon with the open-set
// test on: Mimic must finalize UNKNOWN while every training trace keeps
// its label.
func TestOpenSetVerdictsEndToEnd(t *testing.T) {
	s := newTestServer(t, Config{})

	mimic := profiledTrace(t, "Mimic")
	ingestTraceRange(t, s, "mimic-vm", mimic, 0, mimic.Len())
	view := sessionView(t, s, "mimic-vm")
	if view.Verdict != appclass.Unknown {
		t.Errorf("Mimic verdict = %q (unknown fraction %.2f), want %q",
			view.Verdict, view.UnknownFraction, appclass.Unknown)
	}
	w := postJSON(t, s.Handler(), "/v1/vms/mimic-vm/finish", nil)
	if w.Code != 200 {
		t.Fatalf("finish mimic-vm: %d %s", w.Code, w.Body.String())
	}
	rec, err := s.DB().Latest("mimic-vm")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Verdict != appclass.Unknown {
		t.Errorf("Mimic record verdict = %q, want %q", rec.Verdict, appclass.Unknown)
	}
	if !appclass.Valid(rec.Class) {
		t.Errorf("Mimic record class %q should still be a trained class", rec.Class)
	}

	for i, tc := range []struct {
		entry string
		want  appclass.Class
	}{
		{"SPECseis96_train", appclass.CPU},
		{"PostMark_train", appclass.IO},
		{"PageBench_train", appclass.Mem},
		{"Ettcp_train", appclass.Net},
		{"Idle_train", appclass.Idle},
	} {
		vm := fmt.Sprintf("train-vm-%d", i)
		tr := profiledTrace(t, tc.entry)
		ingestTraceRange(t, s, vm, tr, 0, tr.Len())
		view := sessionView(t, s, vm)
		if view.Verdict != tc.want {
			t.Errorf("%s verdict = %q (unknown fraction %.2f), want %q",
				tc.entry, view.Verdict, view.UnknownFraction, tc.want)
		}
	}

	// The daemon's counters must have seen the unknowns.
	metricsW := getJSON(t, s, "/metricsz")
	if metricsW.Code != 200 {
		t.Fatalf("metricsz: %d", metricsW.Code)
	}
	out := metricsW.Body.String()
	for _, want := range []string{
		"appclassd_unknown_snapshots_total",
		"appclassd_unknown_sessions_total 1",
		"appclassd_phase_boundaries_total",
		"appclassd_fingerprint_matches_total",
	} {
		if !containsLine(out, want) {
			t.Errorf("metricsz missing %q", want)
		}
	}
}
