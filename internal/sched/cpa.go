package sched

import (
	"time"

	"locmps/internal/core"
	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

// CPA implements Critical Path and Allocation (Radulescu & van Gemund,
// ICPP 2001), the low-cost two-phase scheme:
//
// Phase 1 (allocation): while the critical-path length exceeds the average
// processor area TA = (1/P) * sum np(t)*et(t,np(t)), give one more
// processor to the critical-path task with the largest reduction in
// execution time per processor, et(t,np)/np - et(t,np+1)/(np+1).
//
// Phase 2 (scheduling): priority list scheduling by bottom level with
// earliest-finish placement (communication aware, not locality aware).
//
// The decoupling of the two phases is what limits CPA's schedule quality
// relative to the single-step schemes (paper §V).
type CPA struct{}

// Name implements schedule.Scheduler.
func (CPA) Name() string { return "CPA" }

// Schedule implements schedule.Scheduler.
func (CPA) Schedule(tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	started := time.Now()
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// Phase 1 recomputes the critical path up to n·P times, so every
	// weight is an array load: et from the graph's tables, edge volumes
	// from the indexed adjacency, and one path scratch for all iterations.
	n := tg.N()
	tb := tg.Tables(c.P)
	pbest := make([]int, n)
	np := make([]int, n)
	for t := 0; t < n; t++ {
		pbest[t] = tb.Pbest(t, c.P)
		np[t] = 1
	}

	vw := func(v int) float64 { return tb.ExecTime(v, np[v]) }
	ew := func(u, v int) float64 {
		for _, se := range tg.SuccEdges(u) {
			if se.Other == v {
				return c.EdgeCost(se.Volume, np[u], np[v])
			}
		}
		return 0
	}
	area := func() float64 {
		var a float64
		for t := 0; t < n; t++ {
			a += float64(np[t]) * tb.ExecTime(t, np[t])
		}
		return a / float64(c.P)
	}

	// Phase 1: grow allocations while the critical path dominates the
	// average area.
	var ps graph.PathScratch
	for iter := 0; iter < n*c.P; iter++ {
		cpLen, path, err := graph.CriticalPathScratch(tg.DAG(), vw, ew, &ps)
		if err != nil {
			return nil, err
		}
		if cpLen <= area()+schedule.Eps {
			break
		}
		bestTask, bestGain := -1, 0.0
		for _, t := range path {
			limit := pbest[t]
			if c.P < limit {
				limit = c.P
			}
			if np[t] >= limit {
				continue
			}
			gain := tb.ExecTime(t, np[t])/float64(np[t]) -
				tb.ExecTime(t, np[t]+1)/float64(np[t]+1)
			if bestTask < 0 || gain > bestGain {
				bestTask, bestGain = t, gain
			}
		}
		if bestTask < 0 {
			break
		}
		np[bestTask]++
	}

	// Phase 2: list scheduling.
	s, err := core.LoCBS(tg, c, np, listConfig())
	if err != nil {
		return nil, err
	}
	s.Algorithm = "CPA"
	s.SchedulingTime = time.Since(started)
	return s, nil
}
