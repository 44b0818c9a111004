package classify

import (
	"math"
	"testing"

	"repro/internal/appclass"
	"repro/internal/metrics"
)

func TestOnlineSnapshotView(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	tr := syntheticTrace(t, appclass.IO, 20, 3)
	online, err := NewOnline(cl, tr.Schema())
	if err != nil {
		t.Fatal(err)
	}

	empty := online.Snapshot()
	if empty.Total != 0 || empty.Class != "" || len(empty.Composition) != 0 {
		t.Errorf("empty view = %+v, want zero state", empty)
	}

	for i := 0; i < tr.Len(); i++ {
		if _, err := online.Observe(tr.At(i)); err != nil {
			t.Fatal(err)
		}
	}
	view := online.Snapshot()
	wantClass, err := online.Class()
	if err != nil {
		t.Fatal(err)
	}
	if view.Class != wantClass || view.LastClass != online.Last() || view.Total != online.Seen() {
		t.Errorf("view = %+v disagrees with accessors (class %s, last %s, seen %d)",
			view, wantClass, online.Last(), online.Seen())
	}
	if view.FirstAt != tr.At(0).Time || view.LastAt != tr.At(tr.Len()-1).Time {
		t.Errorf("view times [%v, %v], want [%v, %v]",
			view.FirstAt, view.LastAt, tr.At(0).Time, tr.At(tr.Len()-1).Time)
	}
	for c, f := range online.Composition() {
		if math.Abs(view.Composition[c]-f) > 1e-12 {
			t.Errorf("view composition[%s] = %v, want %v", c, view.Composition[c], f)
		}
	}

	// The view must be immutable: mutating its composition map must not
	// leak back into the classifier's running state.
	view.Composition["bogus"] = 99
	if _, ok := online.Composition()["bogus"]; ok {
		t.Error("mutating the view leaked into the classifier")
	}
}

func TestNewOnlineGuards(t *testing.T) {
	cl := trainSynthetic(t, Config{})
	if _, err := NewOnline(nil, metrics.DefaultSchema()); err == nil {
		t.Error("nil classifier: want error")
	}
	if _, err := NewOnline(&Classifier{}, metrics.DefaultSchema()); err == nil {
		t.Error("untrained classifier: want error")
	}
	if _, err := NewOnline(cl, nil); err == nil {
		t.Error("nil schema: want error")
	}
}

func TestUntrainedClassifierErrorsNotPanics(t *testing.T) {
	var nilCl *Classifier
	schema := metrics.DefaultSchema()
	vals := make([]float64, schema.Len())
	if _, err := nilCl.ClassifySnapshot(schema, vals); err == nil {
		t.Error("nil classifier ClassifySnapshot: want error")
	}
	if _, err := (&Classifier{}).ClassifySnapshot(schema, vals); err == nil {
		t.Error("zero classifier ClassifySnapshot: want error")
	}
	if _, err := (&Classifier{}).ClassifySnapshot(nil, nil); err == nil {
		t.Error("nil schema ClassifySnapshot: want error")
	}
	tr := syntheticTrace(t, appclass.IO, 5, 9)
	if _, err := (&Classifier{}).ClassifyTrace(tr); err == nil {
		t.Error("zero classifier ClassifyTrace: want error")
	}
	if _, err := nilCl.ClassifyTrace(tr); err == nil {
		t.Error("nil classifier ClassifyTrace: want error")
	}
}
