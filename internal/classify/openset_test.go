package classify

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/phase"
)

// mimicSignature is a resource blend unlike any training class:
// simultaneous heavy CPU, network, file, and swap traffic. No single
// paper class consumes everything at once, so its fused features land
// far from all five training clusters.
func mimicSignature() []float64 {
	return []float64{45, 50, 4e5, 8e6, 3000, 3000, 2500, 2500}
}

func mimicTrace(t *testing.T, n int, seed int64) *metrics.Trace {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tr := metrics.NewTrace(metrics.ExpertSchema(), "vm1")
	sig := mimicSignature()
	for i := 0; i < n; i++ {
		vals := make([]float64, len(sig))
		for j, v := range sig {
			vals[j] = v * (1 + 0.1*rng.NormFloat64())
			if vals[j] < 0 {
				vals[j] = 0
			}
		}
		if err := tr.Append(metrics.Snapshot{
			Time: time.Duration(i*5) * time.Second, Node: "vm1", Values: vals,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestCalibrateOpenSetThresholds(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	os, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := os.Config()
	if cfg.Quantile != DefaultOpenSetQuantile || cfg.Slack != DefaultOpenSetSlack {
		t.Errorf("defaults not applied: %+v", cfg)
	}
	ths := os.Thresholds()
	if len(ths) != len(appclass.All()) {
		t.Fatalf("%d thresholds, want %d", len(ths), len(appclass.All()))
	}
	for cl, th := range ths {
		if th <= 0 {
			t.Errorf("class %s threshold = %v, want positive", cl, th)
		}
	}
}

func TestCalibrateOpenSetUntrained(t *testing.T) {
	var zero Classifier
	if _, err := zero.CalibrateOpenSet(OpenSetConfig{}); err == nil {
		t.Error("untrained calibration: want error")
	}
}

// TestOpenSetTrainingClassesStayKnown: replaying the training-class
// signatures through the open-set path must not flip them to UNKNOWN —
// the calibrated thresholds accept the classes they were derived from.
func TestOpenSetTrainingClassesStayKnown(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	os, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range appclass.All() {
		tr := syntheticTrace(t, class, 80, 99)
		online, err := NewOnline(cl, tr.Schema())
		if err != nil {
			t.Fatal(err)
		}
		online.EnableOpenSet(os)
		for i := 0; i < tr.Len(); i++ {
			if _, err := online.Observe(tr.At(i)); err != nil {
				t.Fatal(err)
			}
		}
		if frac := online.UnknownFraction(); frac > 0.2 {
			t.Errorf("class %s: unknown fraction %v, want ≤ 0.2", class, frac)
		}
		if v := online.Verdict(); v != class {
			t.Errorf("class %s: verdict %s", class, v)
		}
	}
}

// TestOpenSetNovelWorkloadGoesUnknown: a resource blend unlike any
// training class must produce a majority of unknown snapshots and an
// UNKNOWN session verdict, while still reporting the nearest class.
func TestOpenSetNovelWorkloadGoesUnknown(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	os, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tr := mimicTrace(t, 80, 5)
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	online.EnableOpenSet(os)
	for i := 0; i < tr.Len(); i++ {
		if _, err := online.Observe(tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	if frac := online.UnknownFraction(); frac <= UnknownVerdictFraction {
		t.Fatalf("novel workload unknown fraction %v, want > %v", frac, UnknownVerdictFraction)
	}
	if v := online.Verdict(); v != appclass.Unknown {
		t.Errorf("novel workload verdict %s, want %s", v, appclass.Unknown)
	}
	view := online.Snapshot()
	if view.Verdict != appclass.Unknown || view.Unknown != online.UnknownCount() {
		t.Errorf("view verdict %s unknown %d, want %s %d",
			view.Verdict, view.Unknown, appclass.Unknown, online.UnknownCount())
	}
	// The nearest trained class is still reported alongside.
	if !appclass.Valid(view.Class) {
		t.Errorf("majority class %q invalid — UNKNOWN must not leak into composition", view.Class)
	}
}

// TestOpenSetVerdictSnapshotLevel exercises the per-snapshot API.
func TestOpenSetVerdictSnapshotLevel(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	os, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	schema := metrics.ExpertSchema()
	subset, err := cl.GatherIndices(schema)
	if err != nil {
		t.Fatal(err)
	}
	var s Scratch
	v, err := cl.ClassifySnapshotOpenSet(subset, mimicSignature(), os, &s)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Unknown {
		t.Errorf("mimic snapshot verdict %+v, want Unknown", v)
	}
	if v.Distance <= v.Threshold {
		t.Errorf("unknown verdict with distance %v ≤ threshold %v", v.Distance, v.Threshold)
	}
	v, err = cl.ClassifySnapshotOpenSet(subset, classSignature(appclass.CPU), os, &s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unknown || v.Class != appclass.CPU {
		t.Errorf("CPU snapshot verdict %+v, want known cpu", v)
	}
	// Nil open-set degrades to closed-set classification.
	v, err = cl.ClassifySnapshotOpenSet(subset, mimicSignature(), nil, &s)
	if err != nil {
		t.Fatal(err)
	}
	if v.Unknown || v.Threshold != 0 {
		t.Errorf("nil open-set verdict %+v, want known with zero threshold", v)
	}
}

// TestOnlineSegmentationDetectsPhases drives an Online with
// segmentation over a CPU→IO stream and expects at least two phases
// with the right majority classes.
func TestOnlineSegmentationDetectsPhases(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	cpu := syntheticTrace(t, appclass.CPU, 60, 11)
	io := syntheticTrace(t, appclass.IO, 60, 12)
	online, err := NewOnline(cl, cpu.Schema())
	if err != nil {
		t.Fatal(err)
	}
	online.EnableSegmentation(phase.Config{})
	for i := 0; i < cpu.Len(); i++ {
		if _, err := online.Observe(cpu.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	base := cpu.At(cpu.Len()-1).Time + 5*time.Second
	for i := 0; i < io.Len(); i++ {
		snap := io.At(i)
		snap.Time += base
		if _, err := online.Observe(snap); err != nil {
			t.Fatal(err)
		}
	}
	phases := online.Phases()
	if len(phases) < 2 {
		t.Fatalf("CPU→IO stream produced %d phases (%+v), want ≥ 2", len(phases), phases)
	}
	if phases[0].Class != appclass.CPU {
		t.Errorf("first phase class %s, want cpu", phases[0].Class)
	}
	if last := phases[len(phases)-1]; last.Class != appclass.IO || !last.Open {
		t.Errorf("last phase %+v, want open io", last)
	}
	if online.PhaseCount() != len(phases) {
		t.Errorf("PhaseCount %d, len(Phases) %d", online.PhaseCount(), len(phases))
	}
	if got := online.Snapshot().Phases; len(got) != len(phases) {
		t.Errorf("view has %d phases, want %d", len(got), len(phases))
	}
}

// TestOnlineStateRoundTripWithSegAndUnknown checkpoints an Online
// mid-stream (segmentation + open-set active), restores it through the
// JSON wire form, feeds both the same remainder, and requires identical
// phase lists and unknown counts — the daemon's crash-recovery
// contract for the phase subsystem.
func TestOnlineStateRoundTripWithSegAndUnknown(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	os, err := cl.CalibrateOpenSet(OpenSetConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cpu := syntheticTrace(t, appclass.CPU, 50, 21)
	mim := mimicTrace(t, 50, 22)

	mk := func() *Online {
		o, err := NewOnline(cl, cpu.Schema())
		if err != nil {
			t.Fatal(err)
		}
		o.EnableSegmentation(phase.Config{})
		o.EnableOpenSet(os)
		return o
	}
	feed := func(o *Online, from, to int) {
		for i := from; i < to; i++ {
			var snap metrics.Snapshot
			if i < 50 {
				snap = cpu.At(i)
			} else {
				snap = mim.At(i - 50)
				snap.Time += cpu.At(49).Time + 5*time.Second
			}
			if _, err := o.Observe(snap); err != nil {
				t.Fatal(err)
			}
		}
	}

	orig := mk()
	feed(orig, 0, 70)
	raw, err := json.Marshal(orig.ExportState())
	if err != nil {
		t.Fatal(err)
	}
	var st OnlineState
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreOnline(cl, cpu.Schema(), st)
	if err != nil {
		t.Fatal(err)
	}
	// The restorer re-enables open-set from the (deterministic) model.
	restored.EnableOpenSet(os)
	if restored.UnknownCount() != orig.UnknownCount() {
		t.Fatalf("restored unknown %d, want %d", restored.UnknownCount(), orig.UnknownCount())
	}
	feed(orig, 70, 100)
	feed(restored, 70, 100)
	if !reflect.DeepEqual(orig.Phases(), restored.Phases()) {
		t.Errorf("phase lists diverge:\n orig: %+v\n rest: %+v", orig.Phases(), restored.Phases())
	}
	if orig.UnknownCount() != restored.UnknownCount() {
		t.Errorf("unknown counts diverge: %d vs %d", orig.UnknownCount(), restored.UnknownCount())
	}
	if orig.Verdict() != restored.Verdict() {
		t.Errorf("verdicts diverge: %s vs %s", orig.Verdict(), restored.Verdict())
	}
}

func TestRestoreOnlineRejectsBadUnknown(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.CPU, 20, 31)
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < tr.Len(); i++ {
		if _, err := online.Observe(tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := online.ExportState()
	st.Unknown = st.Total + 1
	if _, err := RestoreOnline(cl, tr.Schema(), st); err == nil {
		t.Error("unknown > total accepted")
	}
	st.Unknown = -1
	if _, err := RestoreOnline(cl, tr.Schema(), st); err == nil {
		t.Error("negative unknown accepted")
	}
}
