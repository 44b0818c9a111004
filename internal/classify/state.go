package classify

import (
	"fmt"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/stats"
)

// OnlineState is the serializable running state of an Online
// classifier — everything Observe has accumulated, none of the trained
// model (the model is persisted separately via Classifier.Save). The
// daemon's checkpoints serialize one OnlineState per live VM session so
// a restart can resume mid-run exactly where the crash happened.
// Checkpoints written while sessions kept a per-snapshot class history
// also carry hist_cap, dropped and history fields; decoding ignores
// them.
type OnlineState struct {
	// Counts maps class name to the number of snapshots voted for it.
	Counts map[string]int `json:"counts"`
	// Total is the number of snapshots observed.
	Total int `json:"total"`
	// Last is the most recent snapshot class ("" before any snapshot).
	Last string `json:"last,omitempty"`
	// FirstAtNS and LastAtNS span every observed snapshot.
	FirstAtNS int64 `json:"first_at_ns"`
	LastAtNS  int64 `json:"last_at_ns"`
	// Drift holds one streaming accumulator per expert metric.
	Drift []stats.WelfordState `json:"drift"`
	// Gaps and GapTimeNS account for known holes in the sample stream
	// (missed polls, breaker-open windows), so a recovered session stays
	// marked as gappy.
	Gaps      int   `json:"gaps,omitempty"`
	GapTimeNS int64 `json:"gap_time_ns,omitempty"`
	// Unknown counts snapshots outside their voted class's open-set
	// threshold. The thresholds themselves are not serialized — they are
	// deterministic given the trained model, so the restorer re-enables
	// the open-set test with freshly calibrated thresholds.
	Unknown int `json:"unknown,omitempty"`
	// Seg is the phase segmenter's full state (nil with segmentation
	// disabled), restoring which resumes the phase list bit-exactly.
	Seg *phase.SegmenterState `json:"seg,omitempty"`
	// Sampler is the training reservoir's state (nil with sampling
	// disabled), restoring which resumes deterministic sampling exactly.
	Sampler *TrainSamplerState `json:"sampler,omitempty"`
}

// ExportState captures the classifier's running state for
// serialization. The caller must hold whatever lock guards Observe.
func (o *Online) ExportState() OnlineState {
	st := OnlineState{
		Counts:    make(map[string]int, len(o.counts)),
		Total:     o.total,
		Last:      string(o.last),
		FirstAtNS: int64(o.firstAt),
		LastAtNS:  int64(o.lastAt),
		Drift:     make([]stats.WelfordState, len(o.drift)),
		Gaps:      o.gaps,
		GapTimeNS: int64(o.gapTime),
		Unknown:   o.unknown,
	}
	if o.seg != nil {
		seg := o.seg.ExportState()
		st.Seg = &seg
	}
	if o.sampler != nil {
		sam := o.sampler.state()
		st.Sampler = &sam
	}
	for c, n := range o.counts {
		st.Counts[string(c)] = n
	}
	for i := range o.drift {
		st.Drift[i] = o.drift[i].State()
	}
	return st
}

// RestoreOnline reconstructs an Online classifier from an exported
// state, validating every invariant Observe would have maintained: a
// restored session continues the stream exactly where the exported one
// stopped, so checkpoint + journal-tail replay reproduces the
// uninterrupted run.
func RestoreOnline(cl *Classifier, schema *metrics.Schema, st OnlineState) (*Online, error) {
	o, err := NewOnline(cl, schema)
	if err != nil {
		return nil, err
	}
	if st.Total < 0 {
		return nil, fmt.Errorf("classify: restore: negative total %d", st.Total)
	}
	sum := 0
	for name, n := range st.Counts {
		class, err := appclass.Parse(name)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: count class: %w", err)
		}
		if n < 0 {
			return nil, fmt.Errorf("classify: restore: class %s has negative count %d", name, n)
		}
		o.counts[class] = n
		sum += n
	}
	if sum != st.Total {
		return nil, fmt.Errorf("classify: restore: counts sum to %d, total is %d", sum, st.Total)
	}
	if len(st.Drift) != len(o.subset) {
		return nil, fmt.Errorf("classify: restore: %d drift accumulators, want %d", len(st.Drift), len(o.subset))
	}
	if st.Total > 0 {
		last, err := appclass.Parse(st.Last)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: last class: %w", err)
		}
		o.last = last
	}
	if st.Gaps < 0 || st.GapTimeNS < 0 {
		return nil, fmt.Errorf("classify: restore: negative gap accounting (%d gaps, %dns)", st.Gaps, st.GapTimeNS)
	}
	o.gaps = st.Gaps
	o.gapTime = time.Duration(st.GapTimeNS)
	o.total = st.Total
	o.firstAt = time.Duration(st.FirstAtNS)
	o.lastAt = time.Duration(st.LastAtNS)
	for i, ws := range st.Drift {
		w, err := stats.WelfordFromState(ws)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: drift %d: %w", i, err)
		}
		o.drift[i] = w
	}
	if st.Unknown < 0 || st.Unknown > st.Total {
		return nil, fmt.Errorf("classify: restore: %d unknown snapshots of %d total", st.Unknown, st.Total)
	}
	o.unknown = st.Unknown
	if st.Seg != nil {
		seg, err := phase.RestoreSegmenter(*st.Seg)
		if err != nil {
			return nil, fmt.Errorf("classify: restore: %w", err)
		}
		o.seg = seg
	}
	if st.Sampler != nil {
		sam, err := trainSamplerFromState(len(o.subset), *st.Sampler)
		if err != nil {
			return nil, err
		}
		o.sampler = sam
	}
	return o, nil
}
