package knn

import "sort"

// leafSize caps the points a k-d tree leaf holds.
const leafSize = 8

// kdIndex is a static 2-d tree over the training points, built once by
// EnableIndex. The points are stored in tree order in flat coordinate
// arrays, so every node covers a contiguous slot range; each node also
// keeps the tight bounding box of its points. A query descends into
// the child on its side of each split first and skips any subtree whose
// box lies farther than the current kth candidate, so on clustered data
// (the paper's training set is five tight clusters) it touches only a
// few leaves.
type kdIndex struct {
	xs, ys []float64
	ids    []int32 // training index of the point in each slot
	nodes  []kdNode
}

// kdNode is one tree node. The left child of an inner node is the next
// node in the array; right is 0 for a leaf (node 0 is the root, never a
// child).
type kdNode struct {
	minX, minY, maxX, maxY float64
	lo, hi, right, axis    int32
}

// buildKDIndex indexes 2-D points stored row-major in coords.
func buildKDIndex(coords []float64) *kdIndex {
	n := len(coords) / 2
	t := &kdIndex{
		xs:  make([]float64, n),
		ys:  make([]float64, n),
		ids: make([]int32, n),
	}
	for i := range t.ids {
		t.ids[i] = int32(i)
	}
	// Median splits need the coordinates in slot order as they move, so
	// sort the IDs and gather the coordinates at the end.
	t.build(coords, 0, n)
	for s, id := range t.ids {
		t.xs[s], t.ys[s] = coords[2*id], coords[2*id+1]
	}
	return t
}

// build appends the node covering slots [lo, hi) and its subtree,
// returning the node's position.
func (t *kdIndex) build(coords []float64, lo, hi int) int32 {
	ids := t.ids[lo:hi]
	nd := kdNode{minX: coords[2*ids[0]], minY: coords[2*ids[0]+1], lo: int32(lo), hi: int32(hi)}
	nd.maxX, nd.maxY = nd.minX, nd.minY
	for _, id := range ids[1:] {
		x, y := coords[2*id], coords[2*id+1]
		nd.minX, nd.maxX = min(nd.minX, x), max(nd.maxX, x)
		nd.minY, nd.maxY = min(nd.minY, y), max(nd.maxY, y)
	}
	pos := int32(len(t.nodes))
	t.nodes = append(t.nodes, nd)
	if hi-lo <= leafSize {
		return pos
	}
	// Split the wider side at the median.
	axis := int32(0)
	if nd.maxY-nd.minY > nd.maxX-nd.minX {
		axis = 1
	}
	t.nodes[pos].axis = axis
	sort.Slice(ids, func(a, b int) bool {
		ca, cb := coords[2*ids[a]+axis], coords[2*ids[b]+axis]
		return ca < cb || ca == cb && ids[a] < ids[b]
	})
	mid := (lo + hi) / 2
	t.build(coords, lo, mid)
	right := t.build(coords, mid, hi)
	t.nodes[pos].right = right
	return pos
}

// boxDist is the squared distance from (qx, qy) to node n's bounding
// box. Rounding is monotone, so it never exceeds the squared distance
// the leaf scan computes for any point inside the box.
func (t *kdIndex) boxDist(n int32, qx, qy float64) float64 {
	nd := &t.nodes[n]
	var dx, dy float64
	if qx < nd.minX {
		dx = nd.minX - qx
	} else if qx > nd.maxX {
		dx = qx - nd.maxX
	}
	if qy < nd.minY {
		dy = nd.minY - qy
	} else if qy > nd.maxY {
		dy = qy - nd.maxY
	}
	return float64(dx*dx) + float64(dy*dy)
}

// search returns the k nearest points to (qx, qy) as (squared distance,
// training index) candidates, closest first, appended to best[:0].
// Ties break by training index, exactly as brute force does: a subtree
// is skipped only when its box is strictly farther than the kth
// candidate, since an equally distant point with a lower index still
// wins.
func (t *kdIndex) search(qx, qy float64, k int, best []cand) []cand {
	// Each inner node visited pushes its far child before descending,
	// so the stack never holds more than the tree's depth: at most 32
	// for median splits over int32 slot ranges.
	var stack [32]int32
	sp := 0
	n := int32(0)
	for {
		nd := &t.nodes[n]
		switch {
		case len(best) == k && t.boxDist(n, qx, qy) > best[k-1].d:
			// Nothing in this subtree can enter the top k.
		case nd.right == 0:
			for s := nd.lo; s < nd.hi; s++ {
				dx, dy := t.xs[s]-qx, t.ys[s]-qy
				c := cand{d: float64(dx*dx) + float64(dy*dy), id: t.ids[s]}
				if len(best) < k || c.less(best[k-1]) {
					best = insertTopK(best, c, k)
				}
			}
		default:
			// Descend into the child on the query's side of the split.
			near, far := n+1, nd.right
			if nd.axis == 0 && qx >= t.nodes[far].minX || nd.axis == 1 && qy >= t.nodes[far].minY {
				near, far = far, near
			}
			stack[sp] = far
			sp++
			n = near
			continue
		}
		if sp == 0 {
			return best
		}
		sp--
		n = stack[sp]
	}
}
