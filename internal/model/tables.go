package model

import "fmt"

// Tables is an immutable per-graph cache of the quantities the scheduler
// hot path asks for millions of times per search: execution times et(t, p)
// for every processor count up to MaxP, the prefix Pbest values of every
// task, and the P-independent concurrency ratios. One LoC-MPS search calls
// Profile.Time (a sqrt-heavy Downey evaluation) and the O(V^2)
// Concurrent(t) sweep from its innermost weight closures; routing them
// through a Tables turns both into array loads.
//
// Tables are built once per (graph, MaxP) via TaskGraph.Tables and shared
// by concurrent searches; all fields are written before publication and
// never mutated afterwards.
type Tables struct {
	maxP int
	// et[t][p] is Profile.Time(p) for p in [1, maxP]; index 0 duplicates
	// index 1, matching Profile's "p < 1 is treated as 1" contract.
	et [][]float64
	// pbest[t][p] is speedup.Pbest(profile, p): the running argmin of the
	// prefix scan, so a single row answers Pbest for every cap at once.
	pbest [][]int32
	// cr[t] is ConcurrencyRatio(t).
	cr []float64
}

// MaxP reports the largest processor count the tables cover.
func (tb *Tables) MaxP() int { return tb.maxP }

// ExecTime returns et(t, p) for p <= MaxP; p below 1 is treated as 1.
func (tb *Tables) ExecTime(t, p int) float64 {
	if p < 1 {
		p = 1
	}
	return tb.et[t][p]
}

// Pbest returns the smallest processor count in [1, maxP] minimizing t's
// execution time, bit-identical to speedup.Pbest on the task's profile.
// maxP must not exceed MaxP.
func (tb *Tables) Pbest(t, maxP int) int {
	if maxP < 1 {
		return 1
	}
	return int(tb.pbest[t][maxP])
}

// ConcurrencyRatio returns cr(t) of the paper's §III.C.
func (tb *Tables) ConcurrencyRatio(t int) float64 { return tb.cr[t] }

// AdoptTables installs a prebuilt Tables as this graph's cache, so the
// graph skips rebuilding tables the caller already paid for (the streaming
// scheduler installs ConcatTables results on its combined graphs). The
// caller must guarantee tb was built for a graph with identical content —
// same task profiles and same DAG structure — as ConcatTables does;
// AdoptTables itself can only check shape. Adoption is
// skipped (returning false) when tb is nil, covers a different task count,
// or is no wider than tables the graph already has.
func (tg *TaskGraph) AdoptTables(tb *Tables) bool {
	if tb == nil || len(tb.et) != tg.N() {
		return false
	}
	tg.tablesMu.Lock()
	defer tg.tablesMu.Unlock()
	if prev := tg.tables.Load(); prev != nil && prev.maxP >= tb.maxP {
		return false
	}
	tg.tables.Store(tb)
	return true
}

// Tables returns the execution-time/Pbest/concurrency-ratio cache covering
// processor counts up to at least maxP, building (or widening) it on first
// use. Safe for concurrent use; the returned value is immutable.
func (tg *TaskGraph) Tables(maxP int) *Tables {
	if maxP < 1 {
		maxP = 1
	}
	if tb := tg.tables.Load(); tb != nil && tb.maxP >= maxP {
		return tb
	}
	tg.tablesMu.Lock()
	defer tg.tablesMu.Unlock()
	prev := tg.tables.Load()
	if prev != nil && prev.maxP >= maxP {
		return prev
	}
	n := tg.N()
	tb := &Tables{
		maxP:  maxP,
		et:    make([][]float64, n),
		pbest: make([][]int32, n),
	}
	for t := 0; t < n; t++ {
		prof := tg.Tasks[t].Profile
		row := make([]float64, maxP+1)
		pb := make([]int32, maxP+1)
		row[1] = prof.Time(1)
		row[0] = row[1]
		pb[0], pb[1] = 1, 1
		best, bestT := int32(1), row[1]
		for p := 2; p <= maxP; p++ {
			row[p] = prof.Time(p)
			if row[p] < bestT-1e-12 {
				best, bestT = int32(p), row[p]
			}
			pb[p] = best
		}
		tb.et[t] = row
		tb.pbest[t] = pb
	}
	if prev != nil {
		tb.cr = prev.cr // P-independent: reuse across widenings
	} else {
		tb.cr = make([]float64, n)
		for t := 0; t < n; t++ {
			tb.cr[t] = tg.concurrencyRatioSlow(t)
		}
	}
	tg.tables.Store(tb)
	return tb
}

// ConcatTables assembles a Tables cache for a disjoint-union graph whose
// task list is the concatenation of the parts' task lists (in argument
// order), without re-evaluating any speedup profile: the per-task et and
// pbest rows depend only on each task's Profile, never on graph
// structure, so the parts' rows are shared by reference. The concurrency
// ratios are NOT shareable — they depend on the union graph's Concurrent
// sets — and are recomputed here with the same per-task sweep an
// ordinary build uses, so every value the result serves is bit-identical
// to a fresh tg.Tables(maxP) on the combined graph. Each part must cover
// at least maxP (wider rows are fine; lookups never index past maxP).
//
// The streaming scheduler uses this to carry the active jobs' tables
// across combined-graph rebuilds: O(V·P) profile evaluation is skipped,
// only the O(V²) concurrency sweep is paid per rebuild. The result is
// not installed; pass it to tg.AdoptTables.
func ConcatTables(tg *TaskGraph, maxP int, parts ...*Tables) (*Tables, error) {
	if maxP < 1 {
		maxP = 1
	}
	total := 0
	for i, p := range parts {
		if p == nil {
			return nil, fmt.Errorf("model: ConcatTables part %d is nil", i)
		}
		if p.maxP < maxP {
			return nil, fmt.Errorf("model: ConcatTables part %d covers maxP=%d, need %d", i, p.maxP, maxP)
		}
		total += len(p.et)
	}
	n := tg.N()
	if total != n {
		return nil, fmt.Errorf("model: ConcatTables parts cover %d tasks, graph has %d", total, n)
	}
	tb := &Tables{
		maxP:  maxP,
		et:    make([][]float64, 0, n),
		pbest: make([][]int32, 0, n),
		cr:    make([]float64, n),
	}
	for _, p := range parts {
		tb.et = append(tb.et, p.et...)
		tb.pbest = append(tb.pbest, p.pbest...)
	}
	for t := 0; t < n; t++ {
		tb.cr[t] = tg.concurrencyRatioSlow(t)
	}
	return tb, nil
}
