package knn_test

import (
	"sync"
	"testing"

	"repro/internal/classify"
	"repro/internal/experiments"
	"repro/internal/knn"
	"repro/internal/linalg"
	"repro/internal/testbed"
	"repro/internal/workload"
)

var (
	paperOnce    sync.Once
	paperPoints  []linalg.Vector
	paperLabels  []string
	paperQueries []linalg.Vector
	paperErr     error
)

// paperSpace returns the classifier's 2-D PCA point set as classify.Train
// builds it from the paper's training runs, and the feature of every
// snapshot of the paper's test runs in that space.
func paperSpace(b *testing.B) ([]linalg.Vector, []string, []linalg.Vector) {
	b.Helper()
	paperOnce.Do(func() {
		var runs []classify.TrainingRun
		for _, e := range workload.TrainingSet() {
			res, err := testbed.ProfileEntry(e, experiments.DefaultSeed)
			if err != nil {
				paperErr = err
				return
			}
			runs = append(runs, classify.TrainingRun{Class: e.Expected, Trace: res.Trace})
		}
		cl, err := classify.Train(runs, classify.Config{})
		if err != nil {
			paperErr = err
			return
		}
		points, labels := cl.TrainingPoints()
		for i, l := range labels {
			paperPoints = append(paperPoints, points.Row(i))
			paperLabels = append(paperLabels, string(l))
		}
		for _, e := range workload.TestSet() {
			res, err := testbed.ProfileEntry(e, experiments.DefaultSeed)
			if err != nil {
				paperErr = err
				return
			}
			out, err := cl.ClassifyTrace(res.Trace)
			if err != nil {
				paperErr = err
				return
			}
			for i := 0; i < out.Points.Rows(); i++ {
				paperQueries = append(paperQueries, out.Points.Row(i))
			}
		}
	})
	if paperErr != nil {
		b.Fatal(paperErr)
	}
	return paperPoints, paperLabels, paperQueries
}

// BenchmarkNeighborSearch times one 3-NN vote with its kth distance in
// the paper's feature space, with the index ("index") and by brute
// force ("oracle"). CI gates the same-run ratio of the two.
func BenchmarkNeighborSearch(b *testing.B) {
	points, labels, queries := paperSpace(b)
	for _, indexed := range []bool{true, false} {
		name := "oracle"
		if indexed {
			name = "index"
		}
		b.Run(name, func(b *testing.B) {
			c, err := knn.New(3)
			if err != nil {
				b.Fatal(err)
			}
			if err := c.Train(points, labels); err != nil {
				b.Fatal(err)
			}
			if indexed {
				if err := c.EnableIndex(); err != nil {
					b.Fatal(err)
				}
			}
			var s knn.Scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.ClassifyIDDist(queries[i%len(queries)], &s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
