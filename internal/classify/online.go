package classify

import (
	"fmt"
	"time"

	"repro/internal/appclass"
	"repro/internal/metrics"
	"repro/internal/phase"
	"repro/internal/stats"
)

// Online is the streaming classifier the paper's future work calls for
// ("it is possible to consider the classifier for online training",
// Section 5.3): snapshots are classified as they arrive, the running
// class composition is maintained incrementally, and drift in the
// incoming metric distribution is tracked with streaming mean/variance
// so a controller can decide when retraining is warranted.
type Online struct {
	cl     *Classifier
	schema *metrics.Schema
	subset []int
	// scratch backs the allocation-free per-snapshot classification;
	// an Online is single-writer, so one scratch per instance suffices.
	scratch Scratch

	counts map[appclass.Class]int
	total  int
	last   appclass.Class

	// drift tracks the incoming distribution of each expert metric.
	drift []stats.Welford
	// gaps and gapTime account for known holes in the sample stream: a
	// poll that failed, a breaker that skipped a down aggregator, a node
	// that vanished mid-run. Composition and drift cover only the
	// snapshots that arrived; a nonzero gap count marks them as estimates
	// over a stream with missing coverage rather than the full run.
	gaps    int
	gapTime time.Duration
	// firstAt and lastAt span every snapshot ever observed.
	firstAt time.Duration
	lastAt  time.Duration

	// seg, when enabled, maintains online phase segmentation over the
	// fused feature stream (see EnableSegmentation).
	seg *phase.Segmenter
	// openset, when enabled, applies per-snapshot novelty detection;
	// unknown counts the snapshots that fell outside their voted class's
	// calibrated threshold.
	openset *OpenSet
	unknown int

	// sampler, when enabled, retains a bounded deterministic sample of
	// raw expert-metric rows for online retraining.
	sampler *trainSampler
}

// NewOnline wraps a trained classifier for streaming input against the
// given snapshot schema.
func NewOnline(cl *Classifier, schema *metrics.Schema) (*Online, error) {
	if err := cl.ready(); err != nil {
		return nil, err
	}
	if schema == nil {
		return nil, fmt.Errorf("classify: nil schema")
	}
	subset, err := schema.Subset(cl.cfg.ExpertMetrics)
	if err != nil {
		return nil, fmt.Errorf("classify: online schema: %w", err)
	}
	return &Online{
		cl:     cl,
		schema: schema,
		subset: subset,
		counts: make(map[appclass.Class]int),
		drift:  make([]stats.Welford, len(subset)),
	}, nil
}

// EnableSegmentation attaches an online phase segmenter (see
// internal/phase): every subsequent snapshot's fused feature vector
// feeds the change-point detector, and Phases reports the detected
// phase list. Calling it again replaces the segmenter.
func (o *Online) EnableSegmentation(cfg phase.Config) {
	o.seg = phase.NewSegmenter(cfg)
}

// SegmentationEnabled reports whether a phase segmenter is attached
// (either via EnableSegmentation or restored from a checkpoint).
func (o *Online) SegmentationEnabled() bool { return o.seg != nil }

// EnableOpenSet attaches calibrated novelty thresholds (see
// Classifier.CalibrateOpenSet): snapshots beyond their voted class's
// threshold count as unknown. os must come from the same classifier; a
// nil os disables the open-set test.
func (o *Online) EnableOpenSet(os *OpenSet) {
	o.openset = os
}

// EnableSampling attaches a bounded deterministic reservoir of raw
// expert-metric rows (capRows entries, DefaultTrainReservoir when <= 0)
// that online retraining harvests from finalized sessions. Calling it
// again replaces the reservoir; it is a no-op if one is already
// attached (e.g. restored from a checkpoint) and capRows matches.
func (o *Online) EnableSampling(capRows int) {
	if capRows <= 0 {
		capRows = DefaultTrainReservoir
	}
	if o.sampler != nil && o.sampler.cap == capRows {
		return
	}
	o.sampler = newTrainSampler(len(o.subset), capRows)
}

// SamplingEnabled reports whether a training reservoir is attached.
func (o *Online) SamplingEnabled() bool { return o.sampler != nil }

// TrainSamples returns the expert-metric names and the retained sample
// rows (one value per expert metric, in name order), for retraining.
// Nil rows with sampling disabled.
func (o *Online) TrainSamples() ([]string, [][]float64) {
	names := append([]string(nil), o.cl.cfg.ExpertMetrics...)
	if o.sampler == nil {
		return names, nil
	}
	return names, o.sampler.rows()
}

// Rebind atomically points this session at a different trained
// classifier — the hot-swap primitive. The new classifier must use the
// identical expert-metric list (the drift accumulators and retained
// samples are per-metric); counts, drift, gaps, phase
// segmentation, and the training reservoir all carry over, while
// subsequent snapshots classify under the new model with the supplied
// open-set thresholds (nil disables the open-set test). The caller must
// hold whatever lock guards Observe.
func (o *Online) Rebind(cl *Classifier, os *OpenSet) error {
	if err := cl.ready(); err != nil {
		return err
	}
	if len(cl.cfg.ExpertMetrics) != len(o.cl.cfg.ExpertMetrics) {
		return fmt.Errorf("classify: rebind: new model has %d expert metrics, session has %d",
			len(cl.cfg.ExpertMetrics), len(o.cl.cfg.ExpertMetrics))
	}
	for i, name := range cl.cfg.ExpertMetrics {
		if o.cl.cfg.ExpertMetrics[i] != name {
			return fmt.Errorf("classify: rebind: expert metric %d is %q, session expects %q",
				i, name, o.cl.cfg.ExpertMetrics[i])
		}
	}
	subset, err := o.schema.Subset(cl.cfg.ExpertMetrics)
	if err != nil {
		return fmt.Errorf("classify: rebind schema: %w", err)
	}
	o.cl = cl
	o.subset = subset
	o.scratch = Scratch{}
	o.openset = os
	return nil
}

// Observe classifies one arriving snapshot and updates the running
// state, returning the snapshot's class. The hot path is allocation-free
// at steady state: the expert-metric gather indices are cached at
// construction and the feature/vote buffers live in the Online's
// scratch.
func (o *Online) Observe(snap metrics.Snapshot) (appclass.Class, error) {
	if len(snap.Values) != o.schema.Len() {
		return "", fmt.Errorf("classify: snapshot has %d values, schema %d", len(snap.Values), o.schema.Len())
	}
	return o.observeOne(snap)
}

// observeOne classifies one pre-validated snapshot and folds it into
// the running state.
func (o *Online) observeOne(snap metrics.Snapshot) (appclass.Class, error) {
	id, dist, err := o.cl.classifySnapshotIDDist(o.subset, snap.Values, &o.scratch)
	if err != nil {
		return "", err
	}
	class := o.cl.classes[id]
	if o.openset != nil && o.openset.unknownID(id, dist) {
		o.unknown++
	}
	o.record(snap, class)
	if o.seg != nil {
		// The scratch still holds this snapshot's fused features; the
		// dimensionality is fixed by the model, so Observe cannot fail.
		_ = o.seg.Observe(snap.Time, class, o.scratch.feat[:o.cl.fused.Q()])
	}
	return class, nil
}

// record folds one classified snapshot into the running state.
func (o *Online) record(snap metrics.Snapshot, class appclass.Class) {
	o.counts[class]++
	if o.total == 0 {
		o.firstAt = snap.Time
	}
	o.total++
	o.last = class
	o.lastAt = snap.Time
	for i, j := range o.subset {
		o.drift[i].Add(snap.Values[j])
	}
	if o.sampler != nil {
		o.sampler.offer(snap.Values, o.subset)
	}
}

// ObserveBatch classifies a batch of arriving snapshots in input order,
// equivalent to calling Observe on each. The whole batch is validated
// before any snapshot is observed, so a dimension error leaves the
// running state untouched; classes is reused when it has capacity.
func (o *Online) ObserveBatch(snaps []metrics.Snapshot, classes []appclass.Class) ([]appclass.Class, error) {
	for i := range snaps {
		if len(snaps[i].Values) != o.schema.Len() {
			return nil, fmt.Errorf("classify: batch snapshot %d has %d values, schema %d",
				i, len(snaps[i].Values), o.schema.Len())
		}
	}
	if cap(classes) < len(snaps) {
		classes = make([]appclass.Class, 0, len(snaps))
	}
	classes = classes[:0]
	for i := range snaps {
		class, err := o.observeOne(snaps[i])
		if err != nil {
			return nil, err
		}
		classes = append(classes, class)
	}
	return classes, nil
}

// RecordGap accounts one known hole in the sample stream: wall is the
// stretch of coverage that was lost (a missed poll interval, a backoff
// wait, a breaker-open window). It does not touch composition or drift
// — those keep describing the snapshots that did arrive — it marks the
// session's estimates as computed over a gappy stream.
func (o *Online) RecordGap(wall time.Duration) {
	if wall < 0 {
		wall = 0
	}
	o.gaps++
	o.gapTime += wall
}

// Gaps returns how many sample gaps have been recorded and their total
// wall time.
func (o *Online) Gaps() (int, time.Duration) { return o.gaps, o.gapTime }

// Seen returns the number of snapshots observed.
func (o *Online) Seen() int { return o.total }

// UnknownCount returns how many snapshots fell outside their voted
// class's open-set threshold (0 with the open-set test disabled).
func (o *Online) UnknownCount() int { return o.unknown }

// UnknownFraction returns the fraction of observed snapshots counted
// unknown.
func (o *Online) UnknownFraction() float64 {
	if o.total == 0 {
		return 0
	}
	return float64(o.unknown) / float64(o.total)
}

// UnknownVerdictFraction is the unknown fraction above which a session's
// verdict flips from its majority class to appclass.Unknown: when more
// than half the run is not explained by any trained class, the run as a
// whole is novel.
const UnknownVerdictFraction = 0.5

// Verdict returns the session-level open-set verdict: the majority
// class, or appclass.Unknown when over half the snapshots were novel.
// Before any snapshot it returns "".
func (o *Online) Verdict() appclass.Class {
	if o.total == 0 {
		return ""
	}
	if o.UnknownFraction() > UnknownVerdictFraction {
		return appclass.Unknown
	}
	return o.majority()
}

// Phases returns the detected phase list (nil with segmentation
// disabled).
func (o *Online) Phases() []phase.Phase {
	if o.seg == nil {
		return nil
	}
	return o.seg.Phases()
}

// PhaseCount returns how many phases the session currently spans (0
// with segmentation disabled).
func (o *Online) PhaseCount() int {
	if o.seg == nil {
		return 0
	}
	return o.seg.Count()
}

// Last returns the most recent snapshot class.
func (o *Online) Last() appclass.Class { return o.last }

// Composition returns the running class composition.
func (o *Online) Composition() map[appclass.Class]float64 {
	out := make(map[appclass.Class]float64, len(o.counts))
	if o.total == 0 {
		return out
	}
	for c, n := range o.counts {
		out[c] = float64(n) / float64(o.total)
	}
	return out
}

// Class returns the running majority-vote class.
func (o *Online) Class() (appclass.Class, error) {
	if o.total == 0 {
		return "", fmt.Errorf("classify: no snapshots observed")
	}
	return o.majority(), nil
}

func (o *Online) majority() appclass.Class {
	var best appclass.Class
	bestN := -1
	for c, n := range o.counts {
		if n > bestN || (n == bestN && c < best) {
			best, bestN = c, n
		}
	}
	return best
}

// View is an immutable snapshot of an Online classifier's running
// state. All reference fields are copies: a View stays valid (and
// race-free) after further Observe calls, so a server can render it to
// JSON without holding the classifier's lock.
type View struct {
	// Class is the running majority-vote class ("" before any snapshot).
	Class appclass.Class
	// LastClass is the class of the most recent snapshot.
	LastClass appclass.Class
	// Composition maps each class to its fraction of snapshots.
	Composition map[appclass.Class]float64
	// Total is the number of snapshots observed.
	Total int
	// Drift is the current DriftScore.
	Drift float64
	// FirstAt and LastAt are the times of the first and last observed
	// snapshots (both zero before any snapshot).
	FirstAt, LastAt time.Duration
	// Gaps and GapTime account for known holes in the sample stream;
	// nonzero values mean Composition and Drift are estimates over a
	// stream with missing coverage.
	Gaps    int
	GapTime time.Duration
	// Phases is the detected phase list (nil with segmentation
	// disabled); each entry is a fresh copy safe to retain.
	Phases []phase.Phase
	// Unknown and UnknownFraction count snapshots outside their voted
	// class's open-set threshold; Verdict is the session-level class,
	// flipping to appclass.Unknown when UnknownFraction exceeds
	// UnknownVerdictFraction.
	Unknown         int
	UnknownFraction float64
	Verdict         appclass.Class
}

// Snapshot captures the classifier's running state as an immutable
// View.
func (o *Online) Snapshot() View {
	v := View{
		LastClass:       o.last,
		Composition:     o.Composition(),
		Total:           o.total,
		Drift:           o.DriftScore(),
		Gaps:            o.gaps,
		GapTime:         o.gapTime,
		Phases:          o.Phases(),
		Unknown:         o.unknown,
		UnknownFraction: o.UnknownFraction(),
	}
	if o.total > 0 {
		v.Class = o.majority()
		v.FirstAt = o.firstAt
		v.LastAt = o.lastAt
		v.Verdict = o.Verdict()
	}
	return v
}

// DriftScore measures how far the observed stream's per-metric means
// have moved from the classifier's training normalization, in units of
// training standard deviations (the maximum across metrics). Large
// scores suggest retraining.
func (o *Online) DriftScore() float64 {
	params := o.cl.normalizer.Params()
	var worst float64
	for i := range o.subset {
		if o.drift[i].Count() == 0 {
			continue
		}
		z := params[i]
		d := (o.drift[i].Mean() - z.Mean) / z.StdDev
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	return worst
}
