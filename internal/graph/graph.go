// Package graph provides the directed-acyclic-graph substrate used by every
// scheduler in this module: adjacency storage, topological ordering, DFS
// reachability, transposition, and weighted longest-path (critical path)
// computations over caller-supplied vertex and edge weight functions.
//
// Vertices are dense integer identifiers in [0, N). The package is purely
// structural: task execution times, data volumes and processor allocations
// live in higher layers (internal/model, internal/schedule) and are passed
// in as weight functions where needed.
package graph

import (
	"errors"
	"fmt"
	"sort"
)

// ErrCycle is returned by TopoOrder (and functions built on it) when the
// graph contains a directed cycle and therefore is not a DAG.
var ErrCycle = errors.New("graph: cycle detected")

// DAG is a directed graph intended to be acyclic. Acyclicity is not enforced
// on edge insertion (pseudo-edge construction benefits from cheap appends);
// call TopoOrder or Validate to check it.
type DAG struct {
	n    int
	succ [][]int
	pred [][]int
	// edgeSet dedups edges so repeated AddEdge calls are idempotent.
	edgeSet map[[2]int]struct{}
	m       int
}

// New returns an empty DAG with n vertices and no edges.
func New(n int) *DAG {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative vertex count %d", n))
	}
	return &DAG{
		n:       n,
		succ:    make([][]int, n),
		pred:    make([][]int, n),
		edgeSet: make(map[[2]int]struct{}),
	}
}

// N reports the number of vertices.
func (d *DAG) N() int { return d.n }

// M reports the number of distinct edges.
func (d *DAG) M() int { return d.m }

// AddEdge inserts the edge u -> v. Inserting an existing edge is a no-op.
// Self loops are rejected with an error since they can never be part of a
// valid precedence graph.
func (d *DAG) AddEdge(u, v int) error {
	if u < 0 || u >= d.n || v < 0 || v >= d.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, d.n)
	}
	if u == v {
		return fmt.Errorf("graph: self loop on vertex %d", u)
	}
	key := [2]int{u, v}
	if _, dup := d.edgeSet[key]; dup {
		return nil
	}
	d.edgeSet[key] = struct{}{}
	d.succ[u] = append(d.succ[u], v)
	d.pred[v] = append(d.pred[v], u)
	d.m++
	return nil
}

// HasEdge reports whether the edge u -> v exists.
func (d *DAG) HasEdge(u, v int) bool {
	_, ok := d.edgeSet[[2]int{u, v}]
	return ok
}

// Succ returns the successors of v. The returned slice must not be modified.
func (d *DAG) Succ(v int) []int { return d.succ[v] }

// Pred returns the predecessors of v. The returned slice must not be modified.
func (d *DAG) Pred(v int) []int { return d.pred[v] }

// Edges returns all edges as (u,v) pairs in deterministic (sorted) order.
func (d *DAG) Edges() [][2]int {
	es := make([][2]int, 0, d.m)
	for e := range d.edgeSet {
		es = append(es, e)
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i][0] != es[j][0] {
			return es[i][0] < es[j][0]
		}
		return es[i][1] < es[j][1]
	})
	return es
}

// Clone returns a deep copy of the DAG. Pseudo-edges added to the copy do
// not affect the original, which is how schedule-DAGs (G') are derived from
// the application graph G.
func (d *DAG) Clone() *DAG {
	c := New(d.n)
	for e := range d.edgeSet {
		c.edgeSet[e] = struct{}{}
	}
	for v := 0; v < d.n; v++ {
		c.succ[v] = append([]int(nil), d.succ[v]...)
		c.pred[v] = append([]int(nil), d.pred[v]...)
	}
	c.m = d.m
	return c
}

// Transpose returns a new DAG with every edge reversed.
func (d *DAG) Transpose() *DAG {
	t := New(d.n)
	for e := range d.edgeSet {
		t.edgeSet[[2]int{e[1], e[0]}] = struct{}{}
	}
	for v := 0; v < d.n; v++ {
		t.succ[v] = append([]int(nil), d.pred[v]...)
		t.pred[v] = append([]int(nil), d.succ[v]...)
	}
	t.m = d.m
	return t
}

// TopoOrder returns the vertices in a topological order, or ErrCycle if the
// graph is cyclic. The order is deterministic: among ready vertices, lower
// identifiers come first (Kahn's algorithm over a sorted frontier).
func (d *DAG) TopoOrder() ([]int, error) {
	// Min-ordered frontier for determinism. A simple sorted slice is fine
	// at the graph sizes mixed-parallel applications exhibit (tens of
	// vertices); correctness does not depend on the ordering.
	s := PathScratch{order: make([]int, 0, d.n)}
	if err := topoOrderInto(d, &s); err != nil {
		return nil, err
	}
	return s.order, nil
}

// Validate returns an error if the graph is not acyclic.
func (d *DAG) Validate() error {
	_, err := d.TopoOrder()
	return err
}

// Sources returns all vertices with no predecessors, sorted.
func (d *DAG) Sources() []int {
	var s []int
	for v := 0; v < d.n; v++ {
		if len(d.pred[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// Sinks returns all vertices with no successors, sorted.
func (d *DAG) Sinks() []int {
	var s []int
	for v := 0; v < d.n; v++ {
		if len(d.succ[v]) == 0 {
			s = append(s, v)
		}
	}
	return s
}

// ReachableFrom returns a boolean vector marking every vertex reachable from
// v by following edges forward, including v itself.
func (d *DAG) ReachableFrom(v int) []bool {
	seen := make([]bool, d.n)
	stack := []int{v}
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.succ[u] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Ancestors returns a boolean vector marking every vertex from which v is
// reachable (its transitive predecessors), including v itself.
func (d *DAG) Ancestors(v int) []bool {
	seen := make([]bool, d.n)
	stack := []int{v}
	seen[v] = true
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, w := range d.pred[u] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return seen
}

// Concurrent returns cG(v): the maximal set of vertices with no path to or
// from v, i.e. tasks that may run concurrently with v (paper §III.C). The
// result is sorted ascending.
func (d *DAG) Concurrent(v int) []int {
	down := d.ReachableFrom(v)
	up := d.Ancestors(v)
	var c []int
	for w := 0; w < d.n; w++ {
		if !down[w] && !up[w] {
			c = append(c, w)
		}
	}
	return c
}
