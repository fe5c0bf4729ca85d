package graph

import (
	"math"
	"sort"
)

// WeightFunc supplies a vertex weight (e.g. execution time of the task on
// its allocated processors).
type WeightFunc func(v int) float64

// EdgeWeightFunc supplies an edge weight (e.g. the redistribution cost
// between the processor groups of the incident tasks). Pseudo-edges induced
// by resource constraints carry weight zero.
type EdgeWeightFunc func(u, v int) float64

// Levels holds top and bottom levels for every vertex of a weighted DAG.
//
// topL(v) is the length of the longest path from any source to v excluding
// v's own weight; bottomL(v) is the length of the longest path from v to any
// sink including v's own weight (paper §II). Lengths sum vertex and edge
// weights along the path.
type Levels struct {
	Top    []float64
	Bottom []float64
}

// ComputeLevels computes top and bottom levels in a single forward and a
// single backward sweep over a topological order. It returns ErrCycle for
// cyclic graphs.
func ComputeLevels(d Digraph, vw WeightFunc, ew EdgeWeightFunc) (Levels, error) {
	var s PathScratch
	if err := topoOrderInto(d, &s); err != nil {
		return Levels{}, err
	}
	return levelsOver(d, s.order, vw, ew, nil, nil), nil
}

// ComputeLevelsOrder is ComputeLevels over a pre-computed topological order
// (e.g. the one cached on a task graph), writing into the caller's Levels
// buffers when they are large enough. The order must be a valid topological
// order of d covering all vertices.
func ComputeLevelsOrder(d Digraph, order []int, vw WeightFunc, ew EdgeWeightFunc, buf *Levels) Levels {
	return levelsOver(d, order, vw, ew, buf.Top, buf.Bottom)
}

func levelsOver(d Digraph, order []int, vw WeightFunc, ew EdgeWeightFunc, top, bottom []float64) Levels {
	n := d.N()
	if cap(top) < n {
		top = make([]float64, n)
	} else {
		top = top[:n]
	}
	if cap(bottom) < n {
		bottom = make([]float64, n)
	} else {
		bottom = bottom[:n]
	}
	for _, v := range order {
		best := 0.0
		for _, u := range d.Pred(v) {
			cand := top[u] + vw(u) + ew(u, v)
			if cand > best {
				best = cand
			}
		}
		top[v] = best
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, w := range d.Succ(v) {
			cand := ew(v, w) + bottom[w]
			if cand > best {
				best = cand
			}
		}
		bottom[v] = vw(v) + best
	}
	return Levels{Top: top, Bottom: bottom}
}

// PathScratch holds the reusable buffers of repeated level and critical-path
// computations: topological-order state, levels and the reconstructed path.
// The zero value is ready to use; a scratch must not be shared between
// goroutines.
type PathScratch struct {
	indeg    []int
	frontier []int
	order    []int
	lv       Levels
	path     []int
}

// topoOrderInto is Kahn's algorithm over a sorted frontier (identical
// ordering to DAG.TopoOrder), leaving the order in s.order. Every buffer it
// uses lives in s, so a reused scratch stops allocating after one call.
func topoOrderInto(d Digraph, s *PathScratch) error {
	n := d.N()
	if cap(s.indeg) < n {
		s.indeg = make([]int, n)
	}
	indeg := s.indeg[:n]
	frontier, order := s.frontier[:0], s.order[:0]
	for v := 0; v < n; v++ {
		indeg[v] = len(d.Pred(v))
		if indeg[v] == 0 {
			frontier = append(frontier, v)
		}
	}
	// Popping by head index (not by reslicing) keeps the frontier's
	// capacity for the next call.
	for head := 0; head < len(frontier); head++ {
		sort.Ints(frontier[head:])
		v := frontier[head]
		order = append(order, v)
		for _, w := range d.Succ(v) {
			indeg[w]--
			if indeg[w] == 0 {
				frontier = append(frontier, w)
			}
		}
	}
	s.frontier, s.order = frontier, order
	if len(order) != n {
		return ErrCycle
	}
	return nil
}

// CriticalPathScratch is CriticalPath reusing the caller's scratch buffers.
// The returned path aliases the scratch and is valid until the next call.
func CriticalPathScratch(d Digraph, vw WeightFunc, ew EdgeWeightFunc, s *PathScratch) (float64, []int, error) {
	if d.N() == 0 {
		return 0, nil, nil
	}
	if err := topoOrderInto(d, s); err != nil {
		return 0, nil, err
	}
	s.lv = levelsOver(d, s.order, vw, ew, s.lv.Top, s.lv.Bottom)
	length, path := reconstructPath(d, s.lv, vw, ew, s.path[:0])
	s.path = path
	return length, path, nil
}

// CriticalPath returns the longest weighted path in the DAG: its length and
// the vertices along it in execution order. Any vertex v maximizing
// topL(v)+bottomL(v) lies on a critical path; the path is reconstructed by
// walking from such a source-side start greedily through successors that
// preserve the bottom level. For an empty graph it returns (0, nil).
func CriticalPath(d Digraph, vw WeightFunc, ew EdgeWeightFunc) (float64, []int, error) {
	if d.N() == 0 {
		return 0, nil, nil
	}
	lv, err := ComputeLevels(d, vw, ew)
	if err != nil {
		return 0, nil, err
	}
	length, path := reconstructPath(d, lv, vw, ew, nil)
	return length, path, nil
}

// reconstructPath finds the critical-path length and walks one critical path
// from a source, appending into the caller's buffer. The path starts at a
// source vertex whose bottom level equals the overall critical-path length.
func reconstructPath(d Digraph, lv Levels, vw WeightFunc, ew EdgeWeightFunc, path []int) (float64, []int) {
	n := d.N()
	length := 0.0
	for v := 0; v < n; v++ {
		if l := lv.Top[v] + lv.Bottom[v]; l > length {
			length = l
		}
	}
	start := -1
	for s := 0; s < n; s++ {
		if len(d.Pred(s)) == 0 && approxEq(lv.Bottom[s], length) {
			start = s
			break
		}
	}
	if start == -1 {
		// Defensive: with non-negative weights a source must achieve the
		// maximum, but floating error could hide it; fall back to the best
		// source.
		best := math.Inf(-1)
		for s := 0; s < n; s++ {
			if len(d.Pred(s)) == 0 && lv.Bottom[s] > best {
				best = lv.Bottom[s]
				start = s
			}
		}
	}
	path = append(path, start)
	v := start
	for {
		next := -1
		for _, w := range d.Succ(v) {
			if approxEq(lv.Bottom[v], vw(v)+ew(v, w)+lv.Bottom[w]) {
				next = w
				break
			}
		}
		if next == -1 {
			break
		}
		path = append(path, next)
		v = next
	}
	return length, path
}

// PathCosts splits a path's total length into the computation part (sum of
// vertex weights) and the communication part (sum of edge weights), the
// quantities LoC-MPS compares to decide whether to widen a task or an edge.
func PathCosts(path []int, vw WeightFunc, ew EdgeWeightFunc) (comp, comm float64) {
	for i, v := range path {
		comp += vw(v)
		if i+1 < len(path) {
			comm += ew(v, path[i+1])
		}
	}
	return comp, comm
}

// approxEq compares floats with a relative-and-absolute tolerance suited to
// schedule arithmetic (sums of task durations).
func approxEq(a, b float64) bool {
	diff := math.Abs(a - b)
	if diff <= 1e-9 {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-9*scale
}
