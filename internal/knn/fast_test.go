package knn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/linalg"
)

// trainRandom2D builds a classifier over n random 2-D points with
// random labels from the given label set.
func trainRandom2D(t testing.TB, rng *rand.Rand, n int, labels []string, indexed bool) *Classifier {
	t.Helper()
	c, err := New(3)
	if err != nil {
		t.Fatal(err)
	}
	points := make([]linalg.Vector, n)
	labs := make([]string, n)
	for i := range points {
		points[i] = linalg.Vector{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
		labs[i] = labels[rng.Intn(len(labels))]
	}
	if err := c.Train(points, labs); err != nil {
		t.Fatal(err)
	}
	if indexed {
		if err := c.EnableIndex(); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestClassifyIDMatchesClassify(t *testing.T) {
	labels := []string{"cpu", "io", "net", "mem", "idle"}
	for _, indexed := range []bool{false, true} {
		t.Run(fmt.Sprintf("indexed-%v", indexed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(31))
			c := trainRandom2D(t, rng, 300, labels, indexed)
			if got, want := c.NumClasses(), len(labels); got > want || got < 2 {
				t.Fatalf("NumClasses = %d", got)
			}
			var s Scratch
			for probe := 0; probe < 500; probe++ {
				x := linalg.Vector{rng.NormFloat64() * 12, rng.NormFloat64() * 12}
				label, err := c.Classify(x)
				if err != nil {
					t.Fatal(err)
				}
				id, err := c.ClassifyID(x, &s)
				if err != nil {
					t.Fatal(err)
				}
				if c.ClassName(id) != label {
					t.Fatalf("probe %d: ClassifyID → %q, Classify → %q", probe, c.ClassName(id), label)
				}
			}
		})
	}
}

// TestIndexedMatchesBruteTopK re-checks the index search against the
// brute-force path, neighbours, order and distances included.
func TestIndexedMatchesBruteTopK(t *testing.T) {
	brute := trainRandom2D(t, rand.New(rand.NewSource(77)), 400, []string{"a", "b", "c"}, false)
	rng := rand.New(rand.NewSource(77))
	idx := trainRandom2D(t, rng, 400, []string{"a", "b", "c"}, true)
	for probe := 0; probe < 300; probe++ {
		x := linalg.Vector{rng.NormFloat64() * 15, rng.NormFloat64() * 15}
		want, err := brute.Neighbors(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := idx.Neighbors(x)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("probe %d: %d neighbours, want %d", probe, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("probe %d neighbour %d: %+v, want %+v", probe, i, got[i], want[i])
			}
		}
	}
}

func TestClassifyIDZeroAllocsIndexed(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := trainRandom2D(t, rng, 500, []string{"cpu", "io", "net"}, true)
	queries := make([]linalg.Vector, 64)
	for i := range queries {
		queries[i] = linalg.Vector{rng.NormFloat64() * 10, rng.NormFloat64() * 10}
	}
	var s Scratch
	i := 0
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.ClassifyID(queries[i%len(queries)], &s); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("indexed ClassifyID allocates %v per run, want 0", allocs)
	}
}

// TestClassifyIDsMatchesBatchAndParallel: the ID batch kernel agrees
// with the label batch, and concurrent batches over one shared indexed
// classifier, each with its own Scratch, agree with both.
func TestClassifyIDsMatchesBatchAndParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	c := trainRandom2D(t, rng, 250, []string{"cpu", "io", "net", "mem"}, true)
	rows := linalg.NewMatrix(333, 2)
	for i := 0; i < rows.Rows(); i++ {
		rows.Set(i, 0, rng.NormFloat64()*10)
		rows.Set(i, 1, rng.NormFloat64()*10)
	}
	labels, err := c.ClassifyBatch(rows)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, rows.Rows())
	if err := c.ClassifyIDs(rows, ids, nil); err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if c.ClassName(ids[i]) != labels[i] {
			t.Fatalf("row %d: ids %q, batch %q", i, c.ClassName(ids[i]), labels[i])
		}
	}
	const workers = 4
	out := make([][]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range out {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var s Scratch
			out[w] = make([]int, rows.Rows())
			errs[w] = c.ClassifyIDs(rows, out[w], &s)
		}(w)
	}
	wg.Wait()
	for w := range out {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for i := range ids {
			if out[w][i] != ids[i] {
				t.Fatalf("worker %d row %d: id %d, want %d", w, i, out[w][i], ids[i])
			}
		}
	}
}

func TestClassesInterning(t *testing.T) {
	c, err := New(1)
	if err != nil {
		t.Fatal(err)
	}
	pts := []linalg.Vector{{0, 0}, {1, 0}, {2, 0}, {3, 0}}
	if err := c.Train(pts, []string{"b", "a", "b", "c"}); err != nil {
		t.Fatal(err)
	}
	want := []string{"b", "a", "c"} // first-seen order
	got := c.Classes()
	if len(got) != len(want) {
		t.Fatalf("Classes = %v", got)
	}
	for i := range want {
		if got[i] != want[i] || c.ClassName(i) != want[i] {
			t.Fatalf("class %d = %q, want %q", i, got[i], want[i])
		}
	}
}
