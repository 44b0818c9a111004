// Package knn implements the k-nearest-neighbour classifier of
// Section 3: the class of a test point is the majority vote of the k
// training points geometrically closest to it in the feature space. The
// paper uses k = 3 ("an odd number") over the two-dimensional PCA
// feature space.
package knn

import (
	"fmt"
	"math"

	"repro/internal/linalg"
)

// Distance measures how far apart two feature vectors are.
type Distance func(a, b linalg.Vector) (float64, error)

// Manhattan is the L1 distance, available for ablation experiments.
func Manhattan(a, b linalg.Vector) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("knn: manhattan distance of %d vs %d dims", len(a), len(b))
	}
	var s float64
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s, nil
}

// sqDist is the squared Euclidean distance. Every product is rounded on
// its own (the float64 conversions forbid fused multiply-adds), so for
// 2-D points it is bit-identical to the index's float64(dx*dx) +
// float64(dy*dy) on every architecture.
func sqDist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := b[i] - a[i]
		s += float64(d * d)
	}
	return s
}

// Classifier is a k-NN classifier over labelled feature vectors.
type Classifier struct {
	k int
	// dist is a WithDistance override; nil selects the default
	// Euclidean ranking by squared distance.
	dist Distance
	// coords holds the training points row-major, dims values each.
	coords []float64
	dims   int
	// Labels are interned at Train time: classNames holds the distinct
	// labels in first-seen order, classIDs the per-point index into it.
	// The vote counts these IDs and never touches a label string.
	classNames []string
	classIDs   []int
	classIndex map[string]int
	// index, when enabled, accelerates Euclidean 2-D queries without
	// changing results.
	index *kdIndex
}

// Option configures a Classifier.
type Option func(*Classifier)

// WithDistance overrides the Euclidean default.
func WithDistance(d Distance) Option {
	return func(c *Classifier) { c.dist = d }
}

// New creates a k-NN classifier. k must be positive and odd (the paper's
// tie-avoidance rule).
func New(k int, opts ...Option) (*Classifier, error) {
	if k <= 0 {
		return nil, fmt.Errorf("knn: k must be positive, got %d", k)
	}
	if k%2 == 0 {
		return nil, fmt.Errorf("knn: k must be odd (the paper's rule), got %d", k)
	}
	c := &Classifier{k: k}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// K returns the configured neighbour count.
func (c *Classifier) K() int { return c.k }

// Len returns the number of training points.
func (c *Classifier) Len() int { return len(c.classIDs) }

// point returns training point i as a view into coords.
func (c *Classifier) point(i int) linalg.Vector {
	return c.coords[i*c.dims : (i+1)*c.dims : (i+1)*c.dims]
}

// Train adds labelled points to the training set. All points across all
// Train calls must have the same dimensionality.
func (c *Classifier) Train(points []linalg.Vector, labels []string) error {
	if len(points) != len(labels) {
		return fmt.Errorf("knn: %d points but %d labels", len(points), len(labels))
	}
	for i, p := range points {
		if len(p) == 0 {
			return fmt.Errorf("knn: empty training point at %d", i)
		}
		if c.dims == 0 {
			c.dims = len(p)
		}
		if len(p) != c.dims {
			return fmt.Errorf("knn: training point %d has %d dims, want %d", i, len(p), c.dims)
		}
		if labels[i] == "" {
			return fmt.Errorf("knn: empty label at %d", i)
		}
		c.coords = append(c.coords, p...)
		if c.classIndex == nil {
			c.classIndex = make(map[string]int)
		}
		id, ok := c.classIndex[labels[i]]
		if !ok {
			id = len(c.classNames)
			c.classIndex[labels[i]] = id
			c.classNames = append(c.classNames, labels[i])
		}
		c.classIDs = append(c.classIDs, id)
	}
	// New training data invalidates any built index.
	c.index = nil
	return nil
}

// NumClasses returns the number of distinct training labels.
func (c *Classifier) NumClasses() int { return len(c.classNames) }

// ClassName returns the label interned as id (see ClassifyID).
func (c *Classifier) ClassName(id int) string {
	if id < 0 || id >= len(c.classNames) {
		panic(fmt.Sprintf("knn: class id %d out of range [0,%d)", id, len(c.classNames)))
	}
	return c.classNames[id]
}

// Classes returns the distinct training labels in interning order: the
// label interned as id i is at position i.
func (c *Classifier) Classes() []string {
	return append([]string(nil), c.classNames...)
}

// EnableIndex builds a static 2-d tree over the training data,
// accelerating subsequent queries. It requires two-dimensional points
// and the default Euclidean distance (the classifier's PCA feature
// space satisfies both); results are bit-identical to brute force.
func (c *Classifier) EnableIndex() error {
	if c.Len() == 0 {
		return fmt.Errorf("knn: cannot index an untrained classifier")
	}
	if c.dims != 2 {
		return fmt.Errorf("knn: index requires 2-D points, trained on %d dims", c.dims)
	}
	if c.dist != nil {
		return fmt.Errorf("knn: index requires the default Euclidean distance")
	}
	c.index = buildKDIndex(c.coords)
	return nil
}

// Indexed reports whether an index is active.
func (c *Classifier) Indexed() bool { return c.index != nil }

// Neighbor is one training point ranked by distance to a query.
type Neighbor struct {
	Index    int
	Label    string
	Distance float64
}

// cand is a search candidate: a training point and its rank key, the
// squared distance under the default metric (the WithDistance value
// otherwise).
type cand struct {
	d  float64
	id int32
}

// less orders candidates by distance, breaking exact ties by training
// insertion order, so brute force and the index agree on every tie.
func (a cand) less(b cand) bool {
	return a.d < b.d || a.d == b.d && a.id < b.id
}

// insertTopK inserts c into best — kept sorted by less with at most k
// entries — shifting worse entries down. best must have capacity k so
// steady-state insertion never allocates.
func insertTopK(best []cand, c cand, k int) []cand {
	if len(best) == k {
		if !c.less(best[k-1]) {
			return best
		}
	} else {
		best = append(best, cand{})
	}
	i := len(best) - 1
	for i > 0 && c.less(best[i-1]) {
		best[i] = best[i-1]
		i--
	}
	best[i] = c
	return best
}

// Scratch holds the caller-owned buffers of the allocation-free query
// path (ClassifyID and the batch kernels). The zero value is ready to
// use; buffers grow on first use and are reused afterwards. A Scratch
// must not be shared between concurrent queries.
type Scratch struct {
	cand  []cand
	votes []int
}

// search finds the k nearest training points to x, closest first,
// reusing best's backing array. The default metric leaves squared
// distances in the candidates; callers take square roots of what they
// report. Only a WithDistance metric can fail or allocate.
func (c *Classifier) search(x linalg.Vector, k int, best []cand) ([]cand, error) {
	if c.index != nil {
		return c.index.search(x[0], x[1], k, best[:0]), nil
	}
	best = best[:0]
	for i := 0; i < c.Len(); i++ {
		p := c.point(i)
		var d float64
		if c.dist == nil {
			d = sqDist(x, p)
		} else {
			var err error
			if d, err = c.dist(x, p); err != nil {
				return nil, err
			}
		}
		best = insertTopK(best, cand{d: d, id: int32(i)}, k)
	}
	return best, nil
}

// distance converts a candidate's rank key to the reported distance.
func (c *Classifier) distance(n cand) float64 {
	if c.dist == nil {
		return math.Sqrt(n.d)
	}
	return n.d
}

// query validates x and returns the effective neighbour count.
func (c *Classifier) query(x linalg.Vector) (int, error) {
	if c.Len() == 0 {
		return 0, fmt.Errorf("knn: classifier has no training data")
	}
	if len(x) != c.dims {
		return 0, fmt.Errorf("knn: query has %d dims, trained on %d", len(x), c.dims)
	}
	return min(c.k, c.Len()), nil
}

// Neighbors returns the k training points nearest to x, closest first.
// Equal distances break ties by training insertion order, keeping
// results deterministic.
func (c *Classifier) Neighbors(x linalg.Vector) ([]Neighbor, error) {
	k, err := c.query(x)
	if err != nil {
		return nil, err
	}
	best, err := c.search(x, k, make([]cand, 0, k))
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, len(best))
	for i, n := range best {
		out[i] = Neighbor{Index: int(n.id), Label: c.classNames[c.classIDs[n.id]], Distance: c.distance(n)}
	}
	return out, nil
}

// ClassifyID returns the interned class ID (see ClassName) of the
// majority vote of the k nearest neighbours of x — the integer fast
// path: no label strings are touched and, with the default metric and a
// reused Scratch, nothing is allocated. A nil scratch classifies with
// temporary buffers. The tie rule matches Classify: the nearest
// neighbour among tied classes wins.
func (c *Classifier) ClassifyID(x linalg.Vector, s *Scratch) (int, error) {
	id, _, err := c.ClassifyIDDist(x, s)
	return id, err
}

// ClassifyIDDist is ClassifyID plus the distance to the kth nearest
// neighbour — the open-set novelty signal: a query far from all
// training points of its voted class is not well explained by that
// class. The distance comes for free from the neighbour search, so
// this path is exactly as fast and allocation-free as ClassifyID.
func (c *Classifier) ClassifyIDDist(x linalg.Vector, s *Scratch) (int, float64, error) {
	k, err := c.query(x)
	if err != nil {
		return 0, 0, err
	}
	if s == nil {
		s = &Scratch{}
	}
	if cap(s.cand) < k {
		s.cand = make([]cand, 0, k)
	}
	nbrs, err := c.search(x, k, s.cand)
	if err != nil {
		return 0, 0, err
	}
	if cap(s.votes) < len(c.classNames) {
		s.votes = make([]int, len(c.classNames))
	}
	votes := s.votes[:len(c.classNames)]
	clear(votes)
	best := 0
	for _, n := range nbrs {
		id := c.classIDs[n.id]
		votes[id]++
		best = max(best, votes[id])
	}
	// Neighbours are sorted by distance: the kth distance is the last
	// entry's, and the first tied class is the nearest one.
	kth := c.distance(nbrs[len(nbrs)-1])
	for _, n := range nbrs {
		if id := c.classIDs[n.id]; votes[id] == best {
			return id, kth, nil
		}
	}
	return 0, 0, fmt.Errorf("knn: vote produced no label") // unreachable
}

// Classify returns the majority label of the k nearest neighbours of x.
// If the vote ties (possible with more classes than k), the label of the
// nearest neighbour among the tied labels wins.
func (c *Classifier) Classify(x linalg.Vector) (string, error) {
	id, err := c.ClassifyID(x, nil)
	if err != nil {
		return "", err
	}
	return c.classNames[id], nil
}

// ClassifyIDs classifies every row of a matrix into out (one interned
// class ID per row), reusing scratch across the whole batch and reading
// rows in place. out must have rows.Rows() entries.
func (c *Classifier) ClassifyIDs(rows *linalg.Matrix, out []int, s *Scratch) error {
	if len(out) != rows.Rows() {
		return fmt.Errorf("knn: %d outputs for %d rows", len(out), rows.Rows())
	}
	if s == nil {
		s = &Scratch{}
	}
	for i := range out {
		id, err := c.ClassifyID(rows.RowView(i), s)
		if err != nil {
			return fmt.Errorf("knn: row %d: %w", i, err)
		}
		out[i] = id
	}
	return nil
}

// ClassifyBatch classifies each row of a matrix, returning one label per
// row.
func (c *Classifier) ClassifyBatch(rows *linalg.Matrix) ([]string, error) {
	ids := make([]int, rows.Rows())
	if err := c.ClassifyIDs(rows, ids, nil); err != nil {
		return nil, err
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = c.classNames[id]
	}
	return out, nil
}
