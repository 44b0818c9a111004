package knn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

// trainPair trains the brute-force oracle and an indexed classifier on
// the same points.
func trainPair(t testing.TB, k int, points []linalg.Vector, labels []string) (brute, indexed *Classifier) {
	t.Helper()
	for _, c := range []**Classifier{&brute, &indexed} {
		var err error
		if *c, err = New(k); err != nil {
			t.Fatal(err)
		}
		if err := (*c).Train(points, labels); err != nil {
			t.Fatal(err)
		}
	}
	if err := indexed.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	return brute, indexed
}

// assertIndexMatchesBrute checks, for every query, that the index
// returns the oracle's neighbours in the oracle's order with
// bit-identical distances, and the same vote and kth distance from
// ClassifyIDDist.
func assertIndexMatchesBrute(t testing.TB, k int, points []linalg.Vector, labels []string, queries []linalg.Vector) {
	t.Helper()
	brute, indexed := trainPair(t, k, points, labels)
	var bs, is Scratch
	for qi, q := range queries {
		want, err := brute.Neighbors(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := indexed.Neighbors(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("query %d %v: %d neighbours, want %d", qi, q, len(got), len(want))
		}
		for i := range want {
			if got[i].Index != want[i].Index || got[i].Label != want[i].Label ||
				math.Float64bits(got[i].Distance) != math.Float64bits(want[i].Distance) {
				t.Fatalf("query %d %v neighbour %d: %+v, want %+v", qi, q, i, got[i], want[i])
			}
		}
		wantID, wantKth, err := brute.ClassifyIDDist(q, &bs)
		if err != nil {
			t.Fatal(err)
		}
		gotID, gotKth, err := indexed.ClassifyIDDist(q, &is)
		if err != nil {
			t.Fatal(err)
		}
		if gotID != wantID || math.Float64bits(gotKth) != math.Float64bits(wantKth) {
			t.Fatalf("query %d %v: vote (%d, %v), want (%d, %v)", qi, q, gotID, gotKth, wantID, wantKth)
		}
	}
}

// paperLikeClusters draws five tight Gaussian clusters of unequal size,
// 369 points in all, like the paper's training set in PCA space.
func paperLikeClusters(rng *rand.Rand) ([]linalg.Vector, []string) {
	var points []linalg.Vector
	var labels []string
	for _, c := range []struct {
		n      int
		x, y   float64
		spread float64
		label  string
	}{
		{134, 0, 0, 0.05, "idle"},
		{80, 3, -1, 0.2, "cpu"},
		{70, -2, 2.5, 0.15, "io"},
		{50, 4, 3, 0.3, "net"},
		{35, -3, -2, 0.1, "mem"},
	} {
		for j := 0; j < c.n; j++ {
			points = append(points, linalg.Vector{c.x + c.spread*rng.NormFloat64(), c.y + c.spread*rng.NormFloat64()})
			labels = append(labels, c.label)
		}
	}
	return points, labels
}

// TestIndexMatchesBrute is the exact-equivalence property of the index:
// on every input shape the indexed search is the brute-force search.
func TestIndexMatchesBrute(t *testing.T) {
	classes := []string{"a", "b", "c", "d"}
	t.Run("paper-like-clusters", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		points, labels := paperLikeClusters(rng)
		queries := make([]linalg.Vector, 2000)
		for i := range queries {
			p := points[rng.Intn(len(points))]
			queries[i] = linalg.Vector{p[0] + 0.3*rng.NormFloat64(), p[1] + 0.3*rng.NormFloat64()}
		}
		assertIndexMatchesBrute(t, 3, points, labels, queries)
	})
	t.Run("lattice-ties", func(t *testing.T) {
		// Every coordinate is an integer, so many points sit exactly on
		// split lines and many queries are equidistant from several
		// points; half-integer queries tie four ways.
		rng := rand.New(rand.NewSource(5))
		var points []linalg.Vector
		var labels []string
		for x := 0; x <= 12; x++ {
			for y := 0; y <= 9; y++ {
				points = append(points, linalg.Vector{float64(x), float64(y)})
				labels = append(labels, classes[rng.Intn(len(classes))])
			}
		}
		var queries []linalg.Vector
		for x := -4; x <= 32; x++ {
			for y := -4; y <= 24; y++ {
				queries = append(queries, linalg.Vector{float64(x) / 2, float64(y) / 2})
			}
		}
		for _, k := range []int{1, 3, 5, 9} {
			assertIndexMatchesBrute(t, k, points, labels, queries)
		}
	})
	t.Run("duplicates", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		var points []linalg.Vector
		var labels []string
		for i := 0; i < 40; i++ {
			p := linalg.Vector{float64(rng.Intn(5)), float64(rng.Intn(5))}
			for j := rng.Intn(6); j >= 0; j-- {
				points = append(points, p)
				labels = append(labels, classes[rng.Intn(len(classes))])
			}
		}
		queries := append([]linalg.Vector(nil), points...)
		for i := 0; i < 200; i++ {
			queries = append(queries, linalg.Vector{rng.Float64()*6 - 0.5, rng.Float64()*6 - 0.5})
		}
		for _, k := range []int{1, 3, 7} {
			assertIndexMatchesBrute(t, k, points, labels, queries)
		}
	})
	t.Run("far-queries", func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		points, labels := paperLikeClusters(rng)
		var queries []linalg.Vector
		for _, r := range []float64{50, 1e6, 1e150, 1e200} {
			for i := 0; i < 50; i++ {
				a := rng.Float64() * 2 * math.Pi
				queries = append(queries, linalg.Vector{r * math.Cos(a), r * math.Sin(a)})
			}
		}
		assertIndexMatchesBrute(t, 3, points, labels, queries)
	})
	t.Run("k-exceeds-n", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		for n := 1; n <= 12; n++ {
			points := make([]linalg.Vector, n)
			labels := make([]string, n)
			for i := range points {
				points[i] = linalg.Vector{float64(rng.Intn(3)), rng.NormFloat64()}
				labels[i] = classes[rng.Intn(len(classes))]
			}
			queries := []linalg.Vector{{0, 0}, {1, 1}, {-40, 7}, points[0]}
			assertIndexMatchesBrute(t, 2*n+1, points, labels, queries)
		}
	})
}

// FuzzIndexMatchesBrute checks the same property on fuzzed inputs:
// every 4 bytes of data is one point on an integer lattice (two int16s)
// scaled by scale, so ties and collinear points are common, and the
// scale reaches from subnormal spacing to coordinates whose squared
// distances overflow.
func FuzzIndexMatchesBrute(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 0, 1, 0, 2, 0, 0, 0}, 1.0, 0.5, 0.5, uint8(1))
	f.Add([]byte{1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 255, 255, 3, 0}, 0.25, 0.25, 0.25, uint8(2))
	f.Add([]byte{10, 0, 20, 0, 30, 0, 40, 0, 50, 0, 60, 0, 70, 0, 80, 0}, 1e300, -1e300, 1e300, uint8(1))
	f.Add([]byte{7, 0, 7, 0, 8, 0, 8, 0}, 5e-324, 0.0, 0.0, uint8(0))
	f.Fuzz(func(t *testing.T, data []byte, scale, qx, qy float64, kSel uint8) {
		n := len(data) / 4
		if n == 0 || n > 512 {
			return
		}
		finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
		if !finite(scale) || !finite(qx) || !finite(qy) {
			return
		}
		points := make([]linalg.Vector, n)
		labels := make([]string, n)
		for i := range points {
			x := float64(int16(binary.LittleEndian.Uint16(data[4*i:])))
			y := float64(int16(binary.LittleEndian.Uint16(data[4*i+2:])))
			points[i] = linalg.Vector{x * scale, y * scale}
			if !finite(points[i][0]) || !finite(points[i][1]) {
				return
			}
			labels[i] = []string{"a", "b", "c"}[int(data[4*i])%3]
		}
		queries := []linalg.Vector{{qx, qy}, points[0], points[n-1]}
		assertIndexMatchesBrute(t, 2*int(kSel%8)+1, points, labels, queries)
	})
}

// TestGridIndexAgreesWithBruteForce exercises the 2-D index through
// EnableIndex on four Gaussian clusters: the same neighbours in the same
// order as brute force, for queries in, around and far outside the data.
func TestGridIndexAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	var points []linalg.Vector
	var labels []string
	for i, c := range [][2]float64{{0, 0}, {8, 0}, {0, 8}, {8, 8}} {
		for j := 0; j < 50+i%2; j++ {
			points = append(points, linalg.Vector{c[0] + rng.NormFloat64(), c[1] + rng.NormFloat64()})
			labels = append(labels, string(rune('a'+i)))
		}
	}
	queries := make([]linalg.Vector, 300)
	for i := range queries {
		switch i % 3 {
		case 0: // in-distribution
			queries[i] = linalg.Vector{rng.Float64() * 8, rng.Float64() * 8}
		case 1: // near the edges
			queries[i] = linalg.Vector{rng.NormFloat64() * 3, rng.NormFloat64() * 3}
		default: // far away
			queries[i] = linalg.Vector{rng.Float64()*200 - 100, rng.Float64()*200 - 100}
		}
	}
	assertIndexMatchesBrute(t, 3, points, labels, queries)
}

// TestGridIndexValidation: the 2-D index refuses what it cannot serve,
// and an indexed classifier still validates its queries.
func TestGridIndexValidation(t *testing.T) {
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIndex(); err == nil {
		t.Error("no points: want error")
	}
	if err := c.Train([]linalg.Vector{{1, 2}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Neighbors(linalg.Vector{1}); err == nil {
		t.Error("1-D query: want error")
	}
	if _, _, err := c.ClassifyIDDist(linalg.Vector{1, 2, 3}, nil); err == nil {
		t.Error("3-D query: want error")
	}
}

// TestGridIndexIdenticalPoints: with every point in one place the index
// has a zero-area box and must still rank by insertion order.
func TestGridIndexIdenticalPoints(t *testing.T) {
	_, c := trainPair(t, 3, []linalg.Vector{{5, 5}, {5, 5}, {5, 5}, {5, 5}}, []string{"a", "b", "c", "d"})
	nbrs, err := c.Neighbors(linalg.Vector{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 3 || nbrs[0].Index != 0 || nbrs[1].Index != 1 || nbrs[2].Index != 2 {
		t.Errorf("identical points neighbors = %v", nbrs)
	}
}

// TestGridIndexKLargerThanData: an indexed classifier with k above its
// point count returns every point.
func TestGridIndexKLargerThanData(t *testing.T) {
	_, c := trainPair(t, 11, []linalg.Vector{{0, 0}, {1, 1}}, []string{"a", "b"})
	nbrs, err := c.Neighbors(linalg.Vector{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 2 {
		t.Errorf("got %d neighbors, want all 2", len(nbrs))
	}
}

func TestEnableIndexTransparent(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	points, labels := paperLikeClusters(rng)
	brute, indexed := trainPair(t, 3, points, labels)
	if brute.Indexed() || !indexed.Indexed() {
		t.Fatal("Indexed() does not follow EnableIndex")
	}
	for trial := 0; trial < 100; trial++ {
		q := linalg.Vector{rng.Float64()*12 - 6, rng.Float64()*12 - 6}
		a, err := brute.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		b, err := indexed.Classify(q)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("trial %d: indexed %q != brute %q", trial, b, a)
		}
	}
}

func TestEnableIndexValidation(t *testing.T) {
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIndex(); err == nil {
		t.Error("untrained: want error")
	}
	if err := c.Train([]linalg.Vector{{1, 2, 3}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIndex(); err == nil {
		t.Error("3-D data: want error")
	}
	m, err := New(3, WithDistance(Manhattan))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Train([]linalg.Vector{{1, 2}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableIndex(); err == nil {
		t.Error("custom distance: want error")
	}
}

func TestTrainInvalidatesIndex(t *testing.T) {
	c, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]linalg.Vector{{0, 0}}, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := c.EnableIndex(); err != nil {
		t.Fatal(err)
	}
	if err := c.Train([]linalg.Vector{{9, 9}}, []string{"b"}); err != nil {
		t.Fatal(err)
	}
	if c.Indexed() {
		t.Error("index survived new training data")
	}
	got, err := c.Classify(linalg.Vector{9, 9})
	if err != nil || got != "b" {
		t.Errorf("post-retrain classify = (%q, %v)", got, err)
	}
}

// TestBruteForceZeroAllocs: the unindexed default-metric search (any
// dimensionality) allocates nothing with a reused Scratch.
func TestBruteForceZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]linalg.Vector, 200)
	labels := make([]string, len(points))
	for i := range points {
		points[i] = linalg.Vector{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		labels[i] = []string{"a", "b"}[i%2]
	}
	if err := c.Train(points, labels); err != nil {
		t.Fatal(err)
	}
	q := linalg.Vector{0.1, 0.2, 0.3}
	var s Scratch
	allocs := testing.AllocsPerRun(200, func() {
		if _, _, err := c.ClassifyIDDist(q, &s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("brute-force ClassifyIDDist allocates %v per run, want 0", allocs)
	}
}
