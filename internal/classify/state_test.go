package classify

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/stats"
)

// mixedTrace builds a multi-stage trace: an IO phase followed by a CPU
// phase, so checkpoints carry a nontrivial composition.
func mixedTrace(t *testing.T) *metrics.Trace {
	t.Helper()
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	add := func(src *metrics.Trace) {
		for i := 0; i < src.Len(); i++ {
			snap := src.At(i)
			snap.Time = time.Duration(tr.Len()*5) * time.Second
			if err := tr.Append(snap); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(syntheticTrace(t, appclass.IO, 12, 31))
	add(syntheticTrace(t, appclass.CPU, 12, 32))
	return tr
}

// TestStateRoundTripResumesExactly interrupts an online stream halfway,
// exports/imports the state (through JSON, like a checkpoint does), and
// feeds the second half to both the original and the restored
// classifier: every observable — composition, majority class, drift —
// must agree.
func TestStateRoundTripResumesExactly(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	orig, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	half := trace.Len() / 2
	for i := 0; i < half; i++ {
		if _, err := orig.Observe(trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint shape: export -> JSON -> import.
	doc, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(cl, schema, st)
	if err != nil {
		t.Fatalf("RestoreOnline: %v", err)
	}

	for i := half; i < trace.Len(); i++ {
		co, err := orig.Observe(trace.At(i))
		if err != nil {
			t.Fatal(err)
		}
		cr, err := restored.Observe(trace.At(i))
		if err != nil {
			t.Fatal(err)
		}
		if co != cr {
			t.Fatalf("snapshot %d: original classified %s, restored %s", i, co, cr)
		}
	}

	vo, vr := orig.Snapshot(), restored.Snapshot()
	if vo.Class != vr.Class || vo.LastClass != vr.LastClass || vo.Total != vr.Total ||
		vo.FirstAt != vr.FirstAt || vo.LastAt != vr.LastAt {
		t.Errorf("views diverge:\noriginal %+v\nrestored %+v", vo, vr)
	}
	if !reflect.DeepEqual(vo.Composition, vr.Composition) {
		t.Errorf("compositions diverge: %v vs %v", vo.Composition, vr.Composition)
	}
	if d := math.Abs(vo.Drift - vr.Drift); d > 1e-12 {
		t.Errorf("drift scores diverge by %v (%v vs %v)", d, vo.Drift, vr.Drift)
	}
}

// TestStateRoundTripCarriesGaps checkpoints a session that recorded
// sample gaps (missed polls) and expects the gap accounting to survive
// the export/restore cycle and keep accumulating afterwards.
func TestStateRoundTripCarriesGaps(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := o.Observe(trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	o.RecordGap(5 * time.Second)
	o.RecordGap(10 * time.Second)
	o.RecordGap(-time.Second) // clamped: a gap never subtracts wall time
	gaps, gapTime := o.Gaps()
	if gaps != 3 || gapTime != 15*time.Second {
		t.Fatalf("gaps = %d/%v, want 3/15s", gaps, gapTime)
	}

	doc, err := json.Marshal(o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(doc, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(cl, schema, st)
	if err != nil {
		t.Fatal(err)
	}
	rg, rt := restored.Gaps()
	if rg != gaps || rt != gapTime {
		t.Errorf("restored gaps = %d/%v, want %d/%v", rg, rt, gaps, gapTime)
	}
	restored.RecordGap(time.Second)
	if rg, rt = restored.Gaps(); rg != 4 || rt != 16*time.Second {
		t.Errorf("post-restore gap accumulation = %d/%v, want 4/16s", rg, rt)
	}
	view := restored.Snapshot()
	if view.Gaps != 4 || view.GapTime != 16*time.Second {
		t.Errorf("view gaps = %d/%v, want 4/16s", view.Gaps, view.GapTime)
	}

	// Negative gap accounting must be rejected on restore.
	bad := st
	bad.Gaps = -1
	if _, err := RestoreOnline(cl, schema, bad); err == nil {
		t.Error("negative gap count restored without error")
	}
	bad = st
	bad.GapTimeNS = -5
	if _, err := RestoreOnline(cl, schema, bad); err == nil {
		t.Error("negative gap time restored without error")
	}
}

// TestStateRoundTripWithTrimmedHistory restores a state exported while
// sessions kept a capped per-snapshot class history: its hist_cap,
// dropped and (trimmed) history fields are ignored, and the session
// resumes exactly like one restored from a state without them.
func TestStateRoundTripWithTrimmedHistory(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	trace := mixedTrace(t)

	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	half := trace.Len() / 2
	for i := 0; i < half; i++ {
		if _, err := o.Observe(trace.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	doc, err := json.Marshal(o.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	// The older writer's shape: a 4-entry cap that has trimmed the rest.
	var legacy map[string]any
	if err := json.Unmarshal(doc, &legacy); err != nil {
		t.Fatal(err)
	}
	legacy["hist_cap"] = 4
	legacy["dropped"] = half - 4
	var hist []any
	for i := half - 4; i < half; i++ {
		snap := trace.At(i)
		c, err := cl.ClassifySnapshot(schema, snap.Values)
		if err != nil {
			t.Fatal(err)
		}
		hist = append(hist, map[string]any{"at_ns": int64(snap.Time), "class": string(c)})
	}
	legacy["history"] = hist
	legacyDoc, err := json.Marshal(legacy)
	if err != nil {
		t.Fatal(err)
	}

	restore := func(doc []byte) *Online {
		t.Helper()
		var st OnlineState
		if err := json.Unmarshal(doc, &st); err != nil {
			t.Fatal(err)
		}
		r, err := RestoreOnline(cl, schema, st)
		if err != nil {
			t.Fatalf("RestoreOnline: %v", err)
		}
		return r
	}
	want, got := restore(doc), restore(legacyDoc)
	for i := half; i < trace.Len(); i++ {
		for _, o := range []*Online{want, got} {
			if _, err := o.Observe(trace.At(i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(got.Snapshot(), want.Snapshot()) {
		t.Errorf("legacy-state session diverged:\n got %+v\nwant %+v", got.Snapshot(), want.Snapshot())
	}
	if !reflect.DeepEqual(got.ExportState(), want.ExportState()) {
		t.Errorf("legacy-state session re-exports differently")
	}
}

func TestRestoreOnlineRejectsInvalidState(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	schema := metrics.ExpertSchema()
	o, err := NewOnline(cl, schema)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Observe(mixedTrace(t).At(0)); err != nil {
		t.Fatal(err)
	}
	good := o.ExportState()

	mutate := func(f func(*OnlineState)) OnlineState {
		doc, _ := json.Marshal(good)
		var st OnlineState
		_ = json.Unmarshal(doc, &st)
		f(&st)
		return st
	}
	cases := map[string]OnlineState{
		"bad count class": mutate(func(s *OnlineState) { s.Counts["warp"] = s.Counts[s.Last]; delete(s.Counts, s.Last) }),
		"count mismatch":  mutate(func(s *OnlineState) { s.Total += 3 }),
		"bad last":        mutate(func(s *OnlineState) { s.Last = "warp" }),
		"drift arity":     mutate(func(s *OnlineState) { s.Drift = s.Drift[:1] }),
		"bad drift":       mutate(func(s *OnlineState) { s.Drift[0] = stats.WelfordState{N: -1} }),
	}
	for name, st := range cases {
		if _, err := RestoreOnline(cl, schema, st); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}
