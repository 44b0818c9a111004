// Package classify implements the paper's classification center
// (Figure 1, right; Figure 2 pipeline): the data preprocessor selects
// the expert-chosen performance metrics and normalizes them to zero mean
// and unit variance, the PCA processor extracts the principal components
// (q = 2 in the paper's configuration), and a trained 3-NN classifier
// assigns each snapshot a class; the majority vote of the snapshot
// classes is the application's class, and the per-class fractions are
// its class composition.
package classify

import (
	"fmt"
	"sync"

	"repro/internal/appclass"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/metrics"
	"repro/internal/pca"
)

// Config parameterizes the classification center. The zero value is the
// paper's configuration.
type Config struct {
	// ExpertMetrics are the preselected metrics (Table 1). Defaults to
	// metrics.ExpertNames().
	ExpertMetrics []string
	// Components fixes the number of principal components (paper: 2).
	// Mutually exclusive with MinFractionVariance.
	Components int
	// MinFractionVariance selects components by cumulative explained
	// variance instead of a fixed count.
	MinFractionVariance float64
	// K is the neighbour count of the k-NN classifier (paper: 3).
	K int
}

func (c Config) withDefaults() Config {
	if len(c.ExpertMetrics) == 0 {
		c.ExpertMetrics = metrics.ExpertNames()
	}
	if c.Components == 0 && c.MinFractionVariance == 0 {
		c.Components = 2
	}
	if c.K == 0 {
		c.K = 3
	}
	return c
}

// TrainingRun is one labelled profiling run used to train the
// classifier.
type TrainingRun struct {
	Class appclass.Class
	Trace *metrics.Trace
}

// Classifier is a trained classification center.
type Classifier struct {
	cfg        Config
	normalizer *pca.Normalizer
	model      *pca.Model
	nn         *knn.Classifier
	// fused is the preprocess→normalize→PCA-project chain collapsed
	// into one affine map feat = W·x + b, precomputed at train/load
	// time; every classification path applies it instead of running the
	// stages (see pca.Fuse for the derivation).
	fused *pca.Affine
	// classes maps the k-NN classifier's interned class IDs back to
	// Class values, so the hot path never parses a label string.
	classes []appclass.Class
	// subsets caches schema → expert-metric gather indices, keyed by
	// schema pointer (a daemon holds one schema, so this stays tiny).
	subsets sync.Map
	// trainPoints and trainLabels retain the projected training data
	// for the clustering diagrams (Figure 3a).
	trainPoints *linalg.Matrix
	trainLabels []appclass.Class
}

// Train builds a classifier from labelled runs. Every training trace
// must contain the configured expert metrics.
func Train(runs []TrainingRun, cfg Config) (*Classifier, error) {
	cfg = cfg.withDefaults()
	if len(runs) == 0 {
		return nil, fmt.Errorf("classify: no training runs")
	}
	var rows [][]float64
	var labels []appclass.Class
	for i, run := range runs {
		if !appclass.Valid(run.Class) {
			return nil, fmt.Errorf("classify: training run %d has invalid class %q", i, run.Class)
		}
		if run.Trace == nil || run.Trace.Len() == 0 {
			return nil, fmt.Errorf("classify: training run %d (%s) has no snapshots", i, run.Class)
		}
		proj, err := run.Trace.Project(cfg.ExpertMetrics)
		if err != nil {
			return nil, fmt.Errorf("classify: training run %d (%s): %w", i, run.Class, err)
		}
		for s := 0; s < proj.Len(); s++ {
			rows = append(rows, proj.At(s).Values)
			labels = append(labels, run.Class)
		}
	}
	raw, err := linalg.FromRows(rows)
	if err != nil {
		return nil, fmt.Errorf("classify: assemble training matrix: %w", err)
	}

	norm, err := pca.FitNormalizer(raw)
	if err != nil {
		return nil, fmt.Errorf("classify: fit normalizer: %w", err)
	}
	normalized, err := norm.Apply(raw)
	if err != nil {
		return nil, err
	}
	model, err := pca.Fit(normalized, pca.Options{
		Components:          cfg.Components,
		MinFractionVariance: cfg.MinFractionVariance,
	})
	if err != nil {
		return nil, fmt.Errorf("classify: fit PCA: %w", err)
	}
	features, err := model.Transform(normalized)
	if err != nil {
		return nil, err
	}
	nn, err := knn.New(cfg.K)
	if err != nil {
		return nil, fmt.Errorf("classify: build k-NN: %w", err)
	}
	points := make([]linalg.Vector, features.Rows())
	labelStrs := make([]string, features.Rows())
	for i := range points {
		points[i] = features.Row(i)
		labelStrs[i] = string(labels[i])
	}
	if err := nn.Train(points, labelStrs); err != nil {
		return nil, fmt.Errorf("classify: train k-NN: %w", err)
	}
	if model.Q == 2 {
		// The paper's 2-D feature space admits the 2-d tree index;
		// results are identical, queries are an order of magnitude faster.
		if err := nn.EnableIndex(); err != nil {
			return nil, fmt.Errorf("classify: index k-NN: %w", err)
		}
	}
	c := &Classifier{
		cfg:         cfg,
		normalizer:  norm,
		model:       model,
		nn:          nn,
		trainPoints: features,
		trainLabels: labels,
	}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// finish precomputes the derived fast-path state of a classifier whose
// staged components are in place: the fused affine kernel and the
// interned class-ID → Class table. Train and Load both call it.
func (c *Classifier) finish() error {
	fused, err := pca.Fuse(c.normalizer, c.model)
	if err != nil {
		return fmt.Errorf("classify: fuse pipeline: %w", err)
	}
	names := c.nn.Classes()
	classes := make([]appclass.Class, len(names))
	for i, n := range names {
		cl, err := appclass.Parse(n)
		if err != nil {
			return fmt.Errorf("classify: training label: %w", err)
		}
		classes[i] = cl
	}
	c.fused = fused
	c.classes = classes
	return nil
}

// Config returns the effective configuration (defaults resolved).
func (c *Classifier) Config() Config { return c.cfg }

// ready guards against classifying with a classifier that has not been
// trained (or loaded): a zero-value or nil *Classifier must yield an
// error, not a nil-pointer panic deep in the pipeline.
func (c *Classifier) ready() error {
	if c == nil || c.normalizer == nil || c.model == nil || c.nn == nil || c.fused == nil {
		return fmt.Errorf("classify: classifier is not trained")
	}
	return nil
}

// Model exposes the fitted PCA model (for reports and ablations).
func (c *Classifier) Model() *pca.Model { return c.model }

// TrainingPoints returns the projected training data and its labels —
// the contents of the paper's Figure 3a clustering diagram.
func (c *Classifier) TrainingPoints() (*linalg.Matrix, []appclass.Class) {
	return c.trainPoints.Clone(), append([]appclass.Class(nil), c.trainLabels...)
}

// FusedParams returns deep copies of the fused kernel's weight matrix W
// (q×p) and offset b — the complete affine map feat = W·x + b that every
// serving path applies. The model registry hashes these to derive a
// model's compatibility hash. Nil for an untrained classifier.
func (c *Classifier) FusedParams() (*linalg.Matrix, linalg.Vector) {
	if err := c.ready(); err != nil {
		return nil, nil
	}
	return c.fused.Params()
}

// Result is the outcome of classifying one application run.
type Result struct {
	// Class is the application class: the majority vote of the snapshot
	// classes.
	Class appclass.Class
	// Composition maps each class to the fraction of snapshots
	// assigned to it (Table 3's rows).
	Composition map[appclass.Class]float64
	// Snapshots is the per-snapshot class vector C(1×m).
	Snapshots []appclass.Class
	// Points is the m×q matrix of PCA feature coordinates, the data
	// behind the Figure 3 clustering diagrams.
	Points *linalg.Matrix
}

// featuresOf runs the preprocess→normalize→PCA pipeline on a trace,
// applying the fused affine kernel row by row instead of the staged
// transforms (same features within float roundoff).
func (c *Classifier) featuresOf(trace *metrics.Trace) (*linalg.Matrix, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("classify: empty trace")
	}
	proj, err := trace.Project(c.cfg.ExpertMetrics)
	if err != nil {
		return nil, fmt.Errorf("classify: project trace: %w", err)
	}
	return c.fused.ApplyRows(proj.Matrix())
}

// stagedFeaturesOf is featuresOf through the original staged pipeline
// (normalize, center, project as separate passes). It is retained as
// the reference implementation the fused kernel is verified against.
func (c *Classifier) stagedFeaturesOf(trace *metrics.Trace) (*linalg.Matrix, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if trace == nil || trace.Len() == 0 {
		return nil, fmt.Errorf("classify: empty trace")
	}
	proj, err := trace.Project(c.cfg.ExpertMetrics)
	if err != nil {
		return nil, fmt.Errorf("classify: project trace: %w", err)
	}
	normalized, err := c.normalizer.Apply(proj.Matrix())
	if err != nil {
		return nil, err
	}
	return c.model.Transform(normalized)
}

// ClassifyTrace classifies every snapshot of a profiling run and
// aggregates the result.
func (c *Classifier) ClassifyTrace(trace *metrics.Trace) (*Result, error) {
	features, err := c.featuresOf(trace)
	if err != nil {
		return nil, err
	}
	ids := make([]int, features.Rows())
	if err := c.nn.ClassifyIDs(features, ids, nil); err != nil {
		return nil, err
	}
	classes := make([]appclass.Class, len(ids))
	counts := make(map[appclass.Class]float64)
	for i, id := range ids {
		cl := c.classes[id]
		classes[i] = cl
		counts[cl]++
	}
	composition := make(map[appclass.Class]float64, len(counts))
	var best appclass.Class
	bestCount := -1.0
	for cl, n := range counts {
		composition[cl] = n / float64(len(classes))
		if n > bestCount || (n == bestCount && cl < best) {
			best, bestCount = cl, n
		}
	}
	return &Result{
		Class:       best,
		Composition: composition,
		Snapshots:   classes,
		Points:      features,
	}, nil
}

// GatherIndices returns the positions of the classifier's expert
// metrics within schema — the gather map of the fused snapshot path.
// Results are cached per schema instance, so repeated calls with the
// same *Schema are lock-free lookups. The returned slice is shared and
// must be treated as read-only.
func (c *Classifier) GatherIndices(schema *metrics.Schema) ([]int, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	if schema == nil {
		return nil, fmt.Errorf("classify: nil schema")
	}
	if v, ok := c.subsets.Load(schema); ok {
		return v.([]int), nil
	}
	idx, err := schema.Subset(c.cfg.ExpertMetrics)
	if err != nil {
		return nil, err
	}
	v, _ := c.subsets.LoadOrStore(schema, idx)
	return v.([]int), nil
}

// Scratch holds the caller-owned buffers of the allocation-free
// snapshot path (ClassifySnapshotScratch). The zero value is ready to
// use; buffers grow on first use and are reused afterwards. A Scratch
// must not be shared between concurrent classifications.
type Scratch struct {
	feat linalg.Vector
	knn  knn.Scratch
}

// ClassifySnapshotScratch classifies a single snapshot through the
// fused kernel: one gathered mat-vec (feat = W·values[subset] + b) and
// one integer-label k-NN vote, with every buffer owned by scratch —
// the steady state performs no allocation. subset is the gather map
// from GatherIndices (or a schema Subset of the expert metrics);
// values is the full snapshot vector it indexes into.
func (c *Classifier) ClassifySnapshotScratch(subset []int, values []float64, s *Scratch) (appclass.Class, error) {
	id, _, err := c.classifySnapshotIDDist(subset, values, s)
	if err != nil {
		return "", err
	}
	return c.classes[id], nil
}

// classifySnapshotIDDist is the shared fused-kernel snapshot path: one
// gathered mat-vec into s.feat, then the integer k-NN vote with the
// kth-neighbour distance exported for the open-set test. After a
// successful return, s.feat[:c.fused.Q()] holds the snapshot's fused
// feature vector (the phase segmenter reads it from there).
func (c *Classifier) classifySnapshotIDDist(subset []int, values []float64, s *Scratch) (int, float64, error) {
	if err := c.ready(); err != nil {
		return 0, 0, err
	}
	q := c.fused.Q()
	if cap(s.feat) < q {
		s.feat = make(linalg.Vector, q)
	}
	feat := s.feat[:q]
	if err := c.fused.GatherInto(feat, values, subset); err != nil {
		return 0, 0, err
	}
	return c.nn.ClassifyIDDist(feat, &s.knn)
}

// ClassifySnapshot classifies a single snapshot given the full metric
// vector in the trace schema used at call sites. The snapshot's values
// must be ordered by schema, which must contain the expert metrics.
// Streaming callers should hold a Scratch and use
// ClassifySnapshotScratch; this convenience form allocates its scratch
// per call.
func (c *Classifier) ClassifySnapshot(schema *metrics.Schema, values []float64) (appclass.Class, error) {
	if err := c.ready(); err != nil {
		return "", err
	}
	if schema == nil {
		return "", fmt.Errorf("classify: nil schema")
	}
	if schema.Len() != len(values) {
		return "", fmt.Errorf("classify: %d values for %d-metric schema", len(values), schema.Len())
	}
	idx, err := c.GatherIndices(schema)
	if err != nil {
		return "", err
	}
	var s Scratch
	return c.ClassifySnapshotScratch(idx, values, &s)
}
