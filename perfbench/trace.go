package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// spanKind names a layer boundary the traced run times.
type spanKind uint8

const (
	// Spans around the load generator's calls into the daemon.
	spanRun spanKind = iota // one run-lifecycle op (root of the three below)
	spanIngestBin
	spanIngestJSON
	spanFinish
	spanRuns
	// Spans around in-process calls into each layer's public functions.
	spanWireDecode   // wire.ParseBatchHeader + BatchView.Next + GroupView.Value
	spanServeBin     // server.Handler().ServeHTTP, POST /v1/ingest.bin
	spanServeJSON    // server.Handler().ServeHTTP, POST /v1/ingest
	spanServeFinish  // server.Handler().ServeHTTP, POST /v1/vms/{app}/finish
	spanServeRuns    // server.Handler().ServeHTTP, GET /v1/runs
	spanRecover      // server.Server.Recover
	spanCheckpoint   // server.Server.Checkpoint
	spanObserve      // classify.Online.ObserveBatch
	spanAffine       // fused affine kernel (pca.Affine.GatherInto's kernel)
	spanKNN          // knn.Classifier.ClassifyIDDist
	spanSegment      // phase.Segmenter.Observe
	spanWALAppend    // wal.Journal.AppendBatchDeferred, one writer
	spanWALAppend2W  // wal.Journal.AppendBatchDeferred, two writers
	spanWALReplay    // wal.Replay
	spanWALFinalize  // wal.Journal.AppendFinalize
	spanStoreOpen    // appdb.Open
	spanPut          // appdb.DB.Put
	spanFingerprints // appdb.DB.Fingerprints
	spanBestMatch    // phase.BestMatch
	spanScan         // appdb.DB.Scan
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"gen.run", "http.ingest.bin", "http.ingest.json", "http.finish", "http.runs",
	"wire.decode", "server.ingest.bin", "server.ingest.json", "server.finish", "server.runs",
	"server.Recover", "server.Checkpoint",
	"classify.ObserveBatch", "pca.affine", "knn.ClassifyIDDist", "phase.Segmenter.Observe",
	"wal.AppendBatch", "wal.AppendBatch.2w", "wal.Replay", "wal.AppendFinalize",
	"appdb.Open", "appdb.Put", "appdb.Fingerprints", "phase.BestMatch", "appdb.Scan",
}

// span is one timed call: [start, end) in nanoseconds since the
// recorder's epoch, the span that caused it (-1 for a root), and the op
// id every span of one operation shares. items counts the units of work
// inside (snapshots, requests) for per-item cost.
type span struct {
	kind       spanKind
	parent     int32
	op         int64
	start, end int64
	items      int32
}

// recorder keeps one goroutine's spans in memory; nothing is written
// until the run ends. A nil recorder records nothing, so untraced runs
// pay only a nil check per call site.
type recorder struct {
	epoch time.Time
	id    int64
	ops   int64
	spans []span
}

func newRecorder(epoch time.Time, id int) *recorder {
	return &recorder{epoch: epoch, id: int64(id), spans: make([]span, 0, 1<<14)}
}

// begin opens a span under parent (-1 starts a new op) and returns its
// handle for end.
func (r *recorder) begin(kind spanKind, parent int) int {
	if r == nil {
		return -1
	}
	op := int64(0)
	if parent >= 0 {
		op = r.spans[parent].op
	} else {
		r.ops++
		op = r.id<<40 | r.ops
	}
	r.spans = append(r.spans, span{kind: kind, parent: int32(parent), op: op, start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

func (r *recorder) end(i, items int) {
	if r == nil || i < 0 {
		return
	}
	r.spans[i].end = int64(time.Since(r.epoch))
	r.spans[i].items = int32(items)
}

// layerStat aggregates every span of one kind.
type layerStat struct {
	count, items int64
	total, self  time.Duration
	durs         []time.Duration
	allocs       float64 // allocations per item, where measured
	allocsSet    bool
}

func (s *layerStat) perItem() time.Duration {
	if s.items == 0 {
		return 0
	}
	return s.self / time.Duration(s.items)
}

// aggregate computes per-kind totals and self times: a span's self time
// is its duration minus the part its children cover.
func aggregate(recs []*recorder) [numSpanKinds]*layerStat {
	var out [numSpanKinds]*layerStat
	for k := range out {
		out[k] = &layerStat{}
	}
	for _, r := range recs {
		child := make([]int64, len(r.spans))
		for _, sp := range r.spans {
			if sp.parent >= 0 {
				child[sp.parent] += sp.end - sp.start
			}
		}
		for i, sp := range r.spans {
			st := out[sp.kind]
			d := time.Duration(sp.end - sp.start)
			st.count++
			st.items += int64(sp.items)
			st.total += d
			st.self += d - time.Duration(child[i])
			st.durs = append(st.durs, d)
		}
	}
	return out
}

// writeTable prints the per-layer table: span count, items, total and
// self time, self time per item and allocations per item.
func writeTable(w io.Writer, stats [numSpanKinds]*layerStat) {
	fmt.Fprintf(w, "%-24s %8s %9s %11s %11s %13s %12s\n", "layer", "spans", "items", "total_ms", "self_ms", "self_ns/item", "allocs/item")
	for k, st := range stats {
		if st.count == 0 {
			continue
		}
		allocs := "-"
		if st.allocsSet {
			allocs = fmt.Sprintf("%.2f", st.allocs)
		}
		fmt.Fprintf(w, "%-24s %8d %9d %11.3f %11.3f %13d %12s\n", spanNames[k], st.count, st.items,
			ms(st.total), ms(st.self), st.perItem().Nanoseconds(), allocs)
	}
}

// dumpSpans writes every span as one JSON object per line.
func dumpSpans(path string, recs []*recorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	for _, r := range recs {
		for i, sp := range r.spans {
			parent := int64(-1)
			if sp.parent >= 0 {
				parent = r.id<<40 | int64(sp.parent)
			}
			fmt.Fprintf(bw, `{"id":%d,"name":%q,"op":%d,"parent":%d,"start_ns":%d,"end_ns":%d,"items":%d}`+"\n",
				r.id<<40|int64(i), spanNames[sp.kind], sp.op, parent, sp.start, sp.end, sp.items)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// medianDur returns the median of ds (sorted in place).
func medianDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}
