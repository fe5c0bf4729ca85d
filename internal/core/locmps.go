package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

// DefaultLookAheadDepth is the bounded look-ahead of §III.E ("a bound of 20
// iterations was found to yield good results").
const DefaultLookAheadDepth = 20

// DefaultTopFraction is the §III.C candidate window: the best candidate is
// the minimum-concurrency-ratio task among the top 10% by execution-time
// improvement.
const DefaultTopFraction = 0.10

// LoCMPS is the paper's locality conscious mixed-parallel allocation and
// scheduling algorithm (Algorithm 1). The zero value is not usable; create
// instances with New, NewNoBackfill or NewICASLB, or fill every field.
//
// Schedule, ScheduleWithPreset and ScheduleDual are safe for concurrent use:
// all per-run state lives in an internal search struct, and the shared
// statistics are mutex-guarded.
type LoCMPS struct {
	// AlgorithmName labels produced schedules.
	AlgorithmName string
	// Engine configures the LoCBS placement engine used at every
	// iteration.
	Engine Config
	// LookAheadDepth bounds the look-ahead search (0 selects the default).
	LookAheadDepth int
	// TopFraction is the best-candidate window (0 selects the default).
	TopFraction float64
	// MaxOuterIters caps the outer repeat-until loop as a safety net;
	// 0 selects 4*|V|*P.
	MaxOuterIters int
	// DisableMemo turns off the per-run allocation-vector memo table.
	// Schedules are bit-identical either way (LoCBS is deterministic);
	// the switch exists for ablation and tests.
	DisableMemo bool
	// DisableResume turns off incremental placement: every LoCBS run then
	// rebuilds its resource chart from empty instead of resuming from the
	// placement prefix shared with the previous run. Schedules are
	// bit-identical either way; the switch exists for ablation, tests and
	// the reference configuration benchmarks are baselined against.
	DisableResume bool

	// mu guards stats, the only mutable state on the instance.
	mu sync.Mutex
	// stats records the most recently completed Schedule invocation.
	stats SearchStats
}

// SearchStats describes the work done by one Schedule invocation — useful
// when studying how the bounded look-ahead explores the allocation space.
type SearchStats struct {
	// OuterIterations counts repeat-until rounds (Algorithm 1 steps 5-40).
	OuterIterations int
	// LookAheadSteps counts inner look-ahead iterations across all rounds.
	LookAheadSteps int
	// LoCBSRuns counts placement-engine invocations (memo hits excluded).
	LoCBSRuns int
	// Commits counts rounds that improved the committed best schedule.
	Commits int
	// Marks counts entry points marked as bad starting points.
	Marks int
	// CacheHits counts search-path allocation vectors served from the memo
	// table instead of a fresh placement run.
	CacheHits int
	// CacheMisses counts search-path memo lookups that had to run LoCBS.
	CacheMisses int
	// ReplayedTasks counts task placements copied from a resumed run's
	// trace prefix instead of being searched from the chart.
	ReplayedTasks int
	// ResumedRuns counts placement runs that reused a non-empty prefix of
	// the previous run on the same scratch.
	ResumedRuns int
	// RollbackDepth accumulates, over all resumed runs, the number of
	// traced placement steps rolled back off the chart at the first dirty
	// position (the suffix each resume had to re-place).
	RollbackDepth int
}

// Metrics converts the stats into the model-level RunMetrics snapshot the
// experiment drivers and command-line tools report.
func (st SearchStats) Metrics() model.RunMetrics {
	return model.RunMetrics{
		OuterIterations: st.OuterIterations,
		LookAheadSteps:  st.LookAheadSteps,
		LoCBSRuns:       st.LoCBSRuns,
		Commits:         st.Commits,
		Marks:           st.Marks,
		CacheHits:       st.CacheHits,
		CacheMisses:     st.CacheMisses,
		ReplayedTasks:   st.ReplayedTasks,
		ResumedRuns:     st.ResumedRuns,
		RollbackDepth:   st.RollbackDepth,
	}
}

// LastStats returns the statistics of the most recently completed Schedule
// call on this instance (for ScheduleDual, the winning run's).
func (s *LoCMPS) LastStats() SearchStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// LastRunMetrics returns the most recent Schedule call's statistics as the
// model-level RunMetrics snapshot (the facade's SearchMetrics discovers this
// method through an interface assertion).
func (s *LoCMPS) LastRunMetrics() model.RunMetrics {
	return s.LastStats().Metrics()
}

func (s *LoCMPS) setStats(st SearchStats) {
	s.mu.Lock()
	s.stats = st
	s.mu.Unlock()
}

// New returns the full LoC-MPS configuration of the paper.
func New() *LoCMPS {
	return &LoCMPS{AlgorithmName: "LoC-MPS", Engine: DefaultConfig()}
}

// NewNoBackfill returns the Figure 6 variant: identical allocation logic,
// but the placement engine tracks only the latest free time per processor.
func NewNoBackfill() *LoCMPS {
	cfg := DefaultConfig()
	cfg.Backfill = false
	return &LoCMPS{AlgorithmName: "LoC-MPS-NoBF", Engine: cfg}
}

// NewICASLB reproduces the authors' earlier iCASLB algorithm [4]: the same
// iterative look-ahead allocation, but every scheduling decision assumes
// inter-task communication is negligible — the critical path carries no
// edge weights, edges are never widened, and placement is locality-blind.
// Timing still charges real redistribution costs, which is exactly why
// iCASLB degrades as CCR grows (Figure 5).
func NewICASLB() *LoCMPS {
	return &LoCMPS{
		AlgorithmName: "iCASLB",
		Engine:        Config{Backfill: true, Locality: false, CommAware: false}.withDefaults(),
	}
}

// NewReference returns the paper configuration with every engine-level
// acceleration (memo table, incremental resume) switched off.
// Schedules are bit-identical to New's — the accelerations never change
// results — so this is the baseline configuration performance comparisons
// are measured against.
func NewReference() *LoCMPS {
	return &LoCMPS{
		AlgorithmName: "LoC-MPS",
		Engine:        DefaultConfig(),
		DisableMemo:   true,
		DisableResume: true,
	}
}

// Name implements schedule.Scheduler.
func (s *LoCMPS) Name() string {
	if s.AlgorithmName != "" {
		return s.AlgorithmName
	}
	return "LoC-MPS"
}

func (s *LoCMPS) depth() int {
	if s.LookAheadDepth > 0 {
		return s.LookAheadDepth
	}
	return DefaultLookAheadDepth
}

func (s *LoCMPS) topFraction() float64 {
	if s.TopFraction > 0 {
		return s.TopFraction
	}
	return DefaultTopFraction
}

// Schedule implements schedule.Scheduler (Algorithm 1).
func (s *LoCMPS) Schedule(tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	return s.ScheduleWithPreset(tg, cluster, Preset{})
}

// ScheduleWithPreset runs the full LoC-MPS allocation-and-scheduling loop
// around mid-execution state: preset tasks keep their placements and
// widths, remaining tasks are (re-)allocated and (re-)placed from scratch
// on the partially busy, possibly heterogeneous-speed machine. This is the
// re-planning entry point of the on-line runtime (internal/online).
func (s *LoCMPS) ScheduleWithPreset(tg *model.TaskGraph, cluster model.Cluster, preset Preset) (*schedule.Schedule, error) {
	sched, stats, _, err := s.runSearch(context.Background(), tg, cluster, preset, nil, Budget{})
	if err != nil {
		return nil, err
	}
	s.setStats(stats)
	return sched, nil
}

// search is the per-run state of one Algorithm 1 invocation. Separating it
// from LoCMPS makes concurrent Schedule calls on one instance safe and lets
// all scratch come from the shared pool.
type search struct {
	alg     *LoCMPS
	tg      *model.TaskGraph
	cluster model.Cluster
	cfg     Config
	preset  Preset
	tb      *model.Tables
	sc      *placerScratch
	stats   SearchStats
	// memo caches every evaluated allocation vector (nil when disabled).
	memo *allocMemo
	// resume enables incremental placement: every runLoCBS may resume from
	// the trace the search's scratch recorded for the previous run.
	resume bool
	// ctx aborts the search cooperatively (checked every round and
	// look-ahead step); budget truncates it gracefully, setting truncated.
	ctx       context.Context
	budget    Budget
	truncated bool
	// pbest/caps are the §III widening bounds; fixed tasks are frozen at
	// their historical width.
	pbest, caps []int
}

// runSearch executes Algorithm 1, optionally from a non-default starting
// allocation (ScheduleDual's saturated start), against a scratch drawn from
// the shared pool for the duration of the run.
func (s *LoCMPS) runSearch(ctx context.Context, tg *model.TaskGraph, cluster model.Cluster, preset Preset, initAlloc []int, budget Budget) (*schedule.Schedule, SearchStats, bool, error) {
	sc := getScratch()
	defer putScratch(sc)
	return s.runSearchOn(ctx, sc, tg, cluster, preset, initAlloc, budget)
}

// runSearchOn is runSearch against caller-owned scratch. Warm workers
// (Worker, used by internal/serve) pin one scratch across many runs so its
// content-keyed cost cache and sized buffers survive between requests
// instead of being surrendered to the pool after every schedule. The third
// result reports whether the budget truncated the search before natural
// termination.
func (s *LoCMPS) runSearchOn(ctx context.Context, sc *placerScratch, tg *model.TaskGraph, cluster model.Cluster, preset Preset, initAlloc []int, budget Budget) (*schedule.Schedule, SearchStats, bool, error) {
	started := time.Now()
	if err := cluster.Validate(); err != nil {
		return nil, SearchStats{}, false, err
	}
	n := tg.N()
	if n == 0 {
		return nil, SearchStats{}, false, fmt.Errorf("core: empty task graph")
	}
	if err := preset.validate(tg, cluster); err != nil {
		return nil, SearchStats{}, false, err
	}
	if err := ctx.Err(); err != nil {
		return nil, SearchStats{}, false, err
	}
	sc.prepareSearch(n, tg.M())
	r := &search{
		alg:     s,
		tg:      tg,
		cluster: cluster,
		cfg:     s.Engine.withDefaults(),
		preset:  preset,
		tb:      tg.Tables(cluster.P),
		sc:      sc,
		resume:  !s.DisableResume,
		ctx:     ctx,
		budget:  budget,
		pbest:   make([]int, n),
		caps:    make([]int, n),
	}
	if !s.DisableMemo {
		r.memo = newAllocMemo()
	}
	fixed := func(t int) bool { _, ok := preset.Fixed[t]; return ok }
	for t := 0; t < n; t++ {
		r.pbest[t] = r.tb.Pbest(t, cluster.P)
		r.caps[t] = cluster.P
		if fixed(t) {
			// Frozen width: never a widening candidate.
			r.pbest[t] = preset.Fixed[t].NP()
			r.caps[t] = preset.Fixed[t].NP()
		}
	}

	// Steps 1-4: pure task-parallel start (preset tasks keep their
	// committed widths). ScheduleDual may inject a different start.
	bestAlloc := sc.bestAlloc
	for t := range bestAlloc {
		switch {
		case fixed(t):
			bestAlloc[t] = preset.Fixed[t].NP()
		case initAlloc != nil:
			bestAlloc[t] = initAlloc[t]
			if bestAlloc[t] < 1 {
				bestAlloc[t] = 1
			}
			if bestAlloc[t] > r.caps[t] {
				bestAlloc[t] = r.caps[t]
			}
		default:
			bestAlloc[t] = 1
		}
	}
	bestSched, err := r.runLoCBS(bestAlloc)
	if err != nil {
		return nil, r.stats, false, err
	}
	bestSL := objective(bestSched)

	maxOuter := s.MaxOuterIters
	if maxOuter == 0 {
		maxOuter = 4 * n * cluster.P
	}

outerLoop:
	for outer := 0; outer < maxOuter; outer++ {
		if stop, err := r.checkpoint(outer); err != nil {
			return nil, r.stats, false, err
		} else if stop {
			break
		}
		r.stats.OuterIterations++
		// Steps 6-7: restart the look-ahead from the committed best.
		np := sc.np
		copy(np, bestAlloc)
		cur := bestSched
		oldSL := bestSL

		entryTask := -1
		entryEdgeID := -1

		for iter := 0; iter < s.depth(); iter++ {
			// The deadline is re-checked per look-ahead step so an anytime
			// stop overshoots by one placement run, not one whole round;
			// best-so-far is already committed, so breaking out mid-round
			// is always safe.
			if stop, err := r.checkpoint(outer); err != nil {
				return nil, r.stats, false, err
			} else if stop {
				break outerLoop
			}
			r.stats.LookAheadSteps++
			cp, err := r.criticalPath(cur, np)
			if err != nil {
				return nil, r.stats, false, err
			}
			tcomp, tcomm := r.pathCosts(cur, np, cp)

			kindTask := tcomp > tcomm
			applied := false
			for attempt := 0; attempt < 2 && !applied; attempt++ {
				if kindTask {
					// §III.C: widen the minimum-concurrency-ratio task of
					// the top-fraction candidate window.
					window := r.candidateWindow(np, cp, iter == 0)
					if len(window) > 0 {
						t := r.selectWinner(window)
						if iter == 0 {
							entryTask, entryEdgeID = t, -1
						}
						np[t]++
						applied = true
					}
				} else if r.cfg.CommAware {
					eg, id := r.heaviestEdge(cur, np, cp, iter == 0)
					if id >= 0 {
						if iter == 0 {
							entryEdgeID, entryTask = id, -1
						}
						widenEdge(np, eg, r.caps)
						applied = true
					}
				}
				kindTask = !kindTask // fall back to the other kind once
			}
			if !applied {
				break // nothing on the critical path can be refined
			}

			cur, err = r.runLoCBS(np)
			if err != nil {
				return nil, r.stats, false, err
			}
			if curSL := objective(cur); curSL.better(bestSL) {
				bestSL = curSL
				copy(bestAlloc, np)
				bestSched = cur
			}
		}

		improved := bestSL.better(oldSL)
		switch {
		case improved:
			// Step 39: commit and clear all marks.
			r.stats.Commits++
			clearBools(sc.markedTask, n)
			clearBools(sc.markedEdge, tg.M())
		case entryTask >= 0:
			r.stats.Marks++
			sc.markedTask[entryTask] = true
		case entryEdgeID >= 0:
			r.stats.Marks++
			sc.markedEdge[entryEdgeID] = true
		default:
			// The look-ahead could not even choose an entry point: the
			// critical path is saturated.
			outer = maxOuter
		}

		if r.terminated(bestSched, bestAlloc) {
			break
		}
	}

	bestSched.Algorithm = s.Name()
	bestSched.SchedulingTime = time.Since(started)
	return bestSched, r.stats, r.truncated, nil
}

// checkpoint is the cooperative stop test the search runs at every round
// and look-ahead step: a cancelled context aborts with its error, an
// exhausted budget (outer-round cap reached or deadline passed) stops
// gracefully with the best-so-far schedule and marks the run truncated.
func (r *search) checkpoint(outer int) (stop bool, err error) {
	if err := r.ctx.Err(); err != nil {
		return false, err
	}
	b := r.budget
	if b.MaxIterations > 0 && outer >= b.MaxIterations {
		r.truncated = true
		return true, nil
	}
	if !b.Deadline.IsZero() && !time.Now().Before(b.Deadline) {
		r.truncated = true
		return true, nil
	}
	return false, nil
}

// runLoCBS resolves the schedule for an allocation vector: a memo hit when
// the vector was already evaluated this search (LoCBS is deterministic, so
// the cached result is bit-identical to a fresh run), otherwise one
// placement-engine invocation against the shared scratch. Inputs were
// validated once up front, so the hot loop skips re-validation.
//
// Misses run incrementally: the scratch carries the trace of the previous
// run it executed (memo hits leave it untouched), and consecutive search
// vectors differ in one or two task widths, so most of the priority-order
// placement prefix is replayed rather than re-searched. The replay is
// bit-exact, so memoized and resumed results remain interchangeable.
func (r *search) runLoCBS(np []int) (*schedule.Schedule, error) {
	if r.memo != nil {
		if sched := r.memo.lookupSched(np); sched != nil {
			r.stats.CacheHits++
			return sched, nil
		}
		r.stats.CacheMisses++
	}
	r.stats.LoCBSRuns++
	sched, err := runPlacer(r.tg, r.cluster, np, r.cfg, r.preset, r.sc, r.resume)
	if err != nil {
		return nil, err
	}
	// Fold the run's resume accounting into the stats.
	sc := r.sc
	r.stats.ReplayedTasks += sc.lastReplayed
	r.stats.RollbackDepth += sc.lastRolledBack
	if sc.lastReplayed > 0 {
		r.stats.ResumedRuns++
	}
	if r.memo != nil {
		r.memo.insert(np, sched)
	}
	return sched, nil
}

// criticalPath returns CP(G') for the current schedule, deriving G' into
// the pooled overlay (no DAG clone) and reusing the path scratch. When the
// engine is not CommAware the edge weights are treated as zero (iCASLB's
// view of the world).
//
// Within one search the critical path is a pure function of (allocation
// vector, schedule) and every caller passes the np that produced cur, so
// the result is cached on the vector's memo entry; repeated rounds that
// replay a known vector skip the G' rebuild entirely.
func (r *search) criticalPath(cur *schedule.Schedule, np []int) ([]int, error) {
	if r.memo != nil {
		if cp, ok := r.memo.lookupCP(np, cur); ok {
			return cp, nil
		}
	}
	g := r.sc.gp.Build(cur, r.tg)
	vw := func(v int) float64 { return r.tb.ExecTime(v, np[v]) }
	var ew graph.EdgeWeightFunc
	if r.cfg.CommAware {
		ew = func(u, v int) float64 {
			if id, ok := r.tg.EdgeID(u, v); ok {
				return cur.CommID(id)
			}
			return 0 // pseudo-edge
		}
	} else {
		ew = func(u, v int) float64 { return 0 }
	}
	_, path, err := graph.CriticalPathScratch(g, vw, ew, &r.sc.ps)
	if err == nil && r.memo != nil {
		// storeCP copies: path aliases the scratch and the memo outlives it.
		r.memo.storeCP(np, cur, path)
	}
	return path, err
}

// pathCosts splits the critical path into computation and communication
// components (Algorithm 1 steps 12-13).
func (r *search) pathCosts(cur *schedule.Schedule, np, cp []int) (tcomp, tcomm float64) {
	for i, v := range cp {
		tcomp += r.tb.ExecTime(v, np[v])
		if r.cfg.CommAware && i+1 < len(cp) {
			if id, ok := r.tg.EdgeID(v, cp[i+1]); ok {
				tcomm += cur.CommID(id)
			}
		}
	}
	return tcomp, tcomm
}

// candidateWindow implements the candidate ranking of §III.C: among
// unsaturated (and, at the entry of a look-ahead, unmarked) critical-path
// tasks, rank by execution-time improvement and return the top-fraction
// window (which aliases scratch and is valid until the next call). The
// window is empty when nothing on the critical path can be refined;
// selectWinner picks the task to widen from it.
func (r *search) candidateWindow(np, cp []int, entry bool) []taskCand {
	maxP := r.cluster.P
	cands := r.sc.cands[:0]
	for _, t := range cp {
		limit := r.pbest[t]
		if maxP < limit {
			limit = maxP
		}
		if np[t] >= limit {
			continue
		}
		if entry && r.sc.markedTask[t] {
			continue
		}
		gain := r.tb.ExecTime(t, np[t]) - r.tb.ExecTime(t, np[t]+1)
		cands = append(cands, taskCand{t, gain})
	}
	r.sc.cands = cands
	if len(cands) == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].gain != cands[j].gain {
			return cands[i].gain > cands[j].gain
		}
		return cands[i].t < cands[j].t
	})
	k := int(math.Ceil(r.alg.topFraction() * float64(len(cands))))
	if k < 1 {
		k = 1
	}
	return cands[:k]
}

// selectWinner applies §III.C's strict total order to a non-empty window:
// the minimum-concurrency-ratio task, ties broken by task id. The choice
// never runs LoCBS: only the winner's widened vector is ever evaluated.
func (r *search) selectWinner(window []taskCand) int {
	best := window[0].t
	for _, c := range window[1:] {
		if r.tb.ConcurrencyRatio(c.t) < r.tb.ConcurrencyRatio(best) ||
			(r.tb.ConcurrencyRatio(c.t) == r.tb.ConcurrencyRatio(best) && c.t < best) {
			best = c.t
		}
	}
	return best
}

// heaviestEdge implements §III.D: the heaviest (by charged redistribution
// time) real edge along the critical path whose endpoints can still grow
// within their per-task caps. It returns the edge and its dense id (-1 if
// none qualifies).
func (r *search) heaviestEdge(cur *schedule.Schedule, np, cp []int, entry bool) ([2]int, int) {
	best := [2]int{-1, -1}
	bestID := -1
	bestW := 0.0
	for i := 0; i+1 < len(cp); i++ {
		u, v := cp[i], cp[i+1]
		id, ok := r.tg.EdgeID(u, v)
		if !ok {
			continue // pseudo-edge
		}
		if np[u] >= r.caps[u] && np[v] >= r.caps[v] {
			continue
		}
		if entry && r.sc.markedEdge[id] {
			continue
		}
		if w := cur.CommID(id); w > bestW {
			bestW = w
			best, bestID = [2]int{u, v}, id
		}
	}
	return best, bestID
}

// widenEdge increments the allocation of the lighter endpoint, or both when
// equal (§III.D), respecting per-task caps.
func widenEdge(np []int, e [2]int, caps []int) {
	ts, td := e[0], e[1]
	switch {
	case np[ts] > np[td]:
		if np[td] < caps[td] {
			np[td]++
		}
	case np[ts] < np[td]:
		if np[ts] < caps[ts] {
			np[ts]++
		}
	default:
		if np[td] < caps[td] {
			np[td]++
		}
		if np[ts] < caps[ts] {
			np[ts]++
		}
	}
}

// terminated evaluates the repeat-until condition: every task and edge on
// the committed schedule's critical path is marked (or saturated), or every
// critical-path task is at the full machine width.
func (r *search) terminated(best *schedule.Schedule, np []int) bool {
	cp, err := r.criticalPath(best, np)
	if err != nil || len(cp) == 0 {
		return true
	}
	maxP := r.cluster.P
	allAtP := true
	allBlocked := true
	for _, t := range cp {
		if np[t] < maxP {
			allAtP = false
		}
		limit := r.pbest[t]
		if maxP < limit {
			limit = maxP
		}
		if np[t] < limit && !r.sc.markedTask[t] {
			allBlocked = false
		}
	}
	if r.cfg.CommAware {
		for i := 0; i+1 < len(cp); i++ {
			u, v := cp[i], cp[i+1]
			id, ok := r.tg.EdgeID(u, v)
			if !ok || best.CommID(id) == 0 {
				continue
			}
			if (np[u] < maxP || np[v] < maxP) && !r.sc.markedEdge[id] {
				allBlocked = false
			}
		}
	}
	return allAtP || allBlocked
}

// score is LoC-MPS's lexicographic objective: the makespan first, the sum
// of task completion times as a tie-breaker. The secondary criterion keeps
// the search moving when a long-running (e.g. preset) task pins the
// makespan: finishing everything else earlier is still progress.
type score struct {
	makespan  float64
	sumFinish float64
}

func objective(s *schedule.Schedule) score {
	var sum float64
	for _, pl := range s.Placements {
		sum += pl.Finish
	}
	return score{makespan: s.Makespan, sumFinish: sum}
}

// better reports whether a strictly improves on b.
func (a score) better(b score) bool {
	if a.makespan < b.makespan-schedule.Eps {
		return true
	}
	if a.makespan > b.makespan+schedule.Eps {
		return false
	}
	return a.sumFinish < b.sumFinish-schedule.Eps
}

// ScheduleDual runs the search twice — once from the paper's pure
// task-parallel start and once from the saturated data-parallel
// allocation (np = min(P, Pbest) per task) — and returns the better
// schedule. Landscapes like Fig 3's have minima reachable from one end
// but not the other; the two searches are independent, so they run on
// separate goroutines and the dual start costs roughly one search of
// wall-clock time. LastStats reflects the winning run.
func (s *LoCMPS) ScheduleDual(tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	started := time.Now()

	var (
		fromData  *schedule.Schedule
		dataStats SearchStats
		dataErr   error
		wg        sync.WaitGroup
	)
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	tb := tg.Tables(cluster.P)
	wide := make([]int, tg.N())
	for t := range wide {
		wide[t] = tb.Pbest(t, cluster.P)
		if wide[t] > cluster.P {
			wide[t] = cluster.P
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		fromData, dataStats, _, dataErr = s.runSearch(context.Background(), tg, cluster, Preset{}, wide, Budget{})
	}()
	fromTask, taskStats, _, taskErr := s.runSearch(context.Background(), tg, cluster, Preset{}, nil, Budget{})
	wg.Wait()
	if taskErr != nil {
		return nil, taskErr
	}
	if dataErr != nil {
		return nil, dataErr
	}

	best, stats := fromTask, taskStats
	if objective(fromData).better(objective(fromTask)) {
		best, stats = fromData, dataStats
	}
	s.setStats(stats)
	best.SchedulingTime = time.Since(started)
	return best, nil
}
