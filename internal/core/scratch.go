package core

import (
	"math"
	"sync"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/redist"
	"locmps/internal/schedule"
)

// placerScratch bundles every reusable buffer of the scheduling hot path:
// the resource chart and per-task/per-processor slices of a LoCBS run, plus
// the search-level scratch of the LoC-MPS outer loop (the G' builder, the
// critical-path buffers and the mark bitsets). One LoC-MPS search invokes
// LoCBS thousands of times against the same scratch, so after warm-up a
// placement run allocates only its output schedule. Scratches are recycled
// through a sync.Pool so concurrent searches (ScheduleDual, experiment
// worker pools) each grab their own; a scratch must never be shared between
// goroutines.
type placerScratch struct {
	chart    chart
	priority []float64
	bottom   []float64
	placed   []bool
	preset   []bool
	score    []float64
	costBuf  *redist.CostBuffer
	costP    int     // processor capacity of costBuf
	prefIDs  []int32 // preference-ordered processor ids
	procBuf  []int
	pendBuf  []int // per-task count of unplaced predecessors
	readyBuf []int // current ready frontier
	widthBuf []int
	shareBuf []float64
	// ct memoizes the tau-independent communication charges of the
	// processor sets recently probed for the task being placed.
	ct ctMemo
	// scan evaluates the candidate slots of the task being placed.
	scan slotScan
	// Per-task preference-order cache: prefScores/prefOrder hold one row
	// of P entries per task, valid while prefValid[t] and the task's score
	// vector is unchanged. The sorted order is a pure function of the
	// score vector (factor-free case), so rows survive across LoCBS runs —
	// where they hit constantly, because the outer search perturbs one
	// allocation at a time and most tasks' parents land identically.
	prefScores   []float64
	prefOrder    []int32
	prefValid    []bool
	prefN, prefP int
	// bestProcs/bestComm hold the best attempt found so far for the task
	// being placed; copying into them only when an attempt improves replaces
	// the per-attempt detach allocations of the map-based implementation.
	bestProcs []int
	bestComm  []float64
	// costCache memoizes redistribution costs across placement runs. The
	// outer search re-places the same tasks onto mostly identical parent
	// layouts thousands of times, so the same (model, volume, src, dst)
	// queries recur long after the per-task ct memo has been reset.
	costCache costCache

	// trace checkpoints the most recent recorded placement run against this
	// scratch's live chart, enabling the next run to resume from the longest
	// shared placement prefix instead of replaying it (see locbs.go). It is
	// per-search state: prepareSearch invalidates it, so only runs of the
	// search that recorded it can resume from it.
	trace placementTrace
	// lastReplayed/lastRolledBack report what the most recent runPlacer
	// call did with the trace (a run resumed iff it replayed a task); the
	// search layer folds them into SearchStats.
	lastReplayed   int
	lastRolledBack int
	// shareToken counts the searches run on this scratch. Recorded runs
	// stamp it onto their redistribution cost buffers, so share caches stay
	// warm across the runs of one search and start cold in the next.
	shareToken uint64

	// LoC-MPS search scratch.
	gp         *schedule.DAGBuilder
	ps         graph.PathScratch
	markedTask []bool // by task id
	markedEdge []bool // by dense edge id
	np         []int
	bestAlloc  []int
	cands      []taskCand
}

// ctMemo memoizes the tau-independent communication charges of the
// processor subsets recently probed for the task being placed; the
// fixed-point rounds alternate between a few subsets, so a handful of
// slots captures nearly every repeat.
type ctMemo struct {
	procs [32][]int
	hash  [32]uint64
	comm  [32][]float64
	max   [32]float64
	sum   [32]float64
	rct   [32]float64
	count int
	next  int
}

func (m *ctMemo) reset() { m.count, m.next = 0, 0 }

// placementTrace is the prefix checkpoint of the last recorded LoCBS run.
// The scratch's chart still holds that run's full reservation state (with
// its undo log), so "resuming" means: replay the placement decisions of the
// shared priority-order prefix by copying them out of sched, then roll the
// chart back to the first divergent step and place the suffix normally.
//
// valid marks a trace recorded by a completed run of the current search
// (prepareSearch clears it): within a search the task graph, cluster,
// config and preset are fixed, so a valid trace plus the explicit
// tg/cluster/cfg checks below guarantee the traced prefix is bit-identical
// to what a fresh run would compute. Runs that error or are not recorded
// leave it false.
type placementTrace struct {
	valid   bool
	tg      *model.TaskGraph
	cluster model.Cluster
	cfg     Config
	// sched is the traced run's completed schedule (placements and per-edge
	// comm charges are copied out of it during replay).
	sched *schedule.Schedule
	// np is the traced run's full allocation vector.
	np []int
	// order[i] is the task placed at step i.
	order []int32
	// undoMark[i] is the chart undo-log length before step i's reservations;
	// len(undoMark) == len(order)+1 and the last entry is the log length
	// after the final step. Rolling back to undoMark[i] restores the chart
	// to the state in which step i was placed.
	undoMark []int32
}

// matches reports whether the trace can seed a resumed run for the given
// inputs.
func (tr *placementTrace) matches(tg *model.TaskGraph, cluster model.Cluster, cfg Config) bool {
	return tr.valid && tr.sched != nil &&
		tr.tg == tg && tr.cluster == cluster && tr.cfg == cfg
}

// truncate drops the trace's steps from position step onward (the caller
// has rolled the chart back to undoMark[step]); the run records replacement
// steps as it places the suffix.
func (tr *placementTrace) truncate(step int) {
	tr.order = tr.order[:step]
	tr.undoMark = tr.undoMark[:step+1]
}

// restart clears the per-step records for a fresh recording whose chart
// undo log starts at mark.
func (tr *placementTrace) restart(mark int) {
	tr.valid = false
	tr.sched = nil
	tr.order = tr.order[:0]
	tr.undoMark = append(tr.undoMark[:0], int32(mark))
}

var scratchPool = sync.Pool{
	New: func() any { return &placerScratch{gp: schedule.NewDAGBuilder()} },
}

func getScratch() *placerScratch { return scratchPool.Get().(*placerScratch) }

func putScratch(sc *placerScratch) { scratchPool.Put(sc) }

// preparePlacer sizes and clears the buffers one LoCBS run needs for n
// tasks on p processors. With resume the chart is left untouched: it still
// holds the traced run's reservations, which the resumed run replays (its
// prefix) or rolls back (its suffix) instead of rebuilding from empty.
func (sc *placerScratch) preparePlacer(n, p int, backfill, resume bool) {
	if !resume {
		sc.chart.reset(p, backfill)
	}
	sc.priority = growFloats(sc.priority, n)
	sc.bottom = growFloats(sc.bottom, n)
	sc.placed = clearBools(sc.placed, n)
	sc.preset = clearBools(sc.preset, n)
	sc.score = growFloats(sc.score, p)
	if sc.costBuf == nil || sc.costP < p {
		sc.costBuf = redist.NewCostBuffer(p)
		sc.costP = p
	}
	if sc.prefN != n || sc.prefP != p {
		sc.prefN, sc.prefP = n, p
		sc.prefScores = growFloats(sc.prefScores, n*p)
		if cap(sc.prefOrder) < n*p {
			sc.prefOrder = make([]int32, n*p)
		} else {
			sc.prefOrder = sc.prefOrder[:n*p]
		}
		sc.prefValid = clearBools(sc.prefValid, n)
	}
}

// prepareSearch starts a LoC-MPS search on the scratch: it invalidates the
// previous search's placement trace, moves the share caches to a new
// generation, and sizes and clears the mark sets for n tasks and m graph
// edges.
func (sc *placerScratch) prepareSearch(n, m int) {
	sc.trace.valid = false
	sc.shareToken++
	sc.markedTask = clearBools(sc.markedTask, n)
	sc.markedEdge = clearBools(sc.markedEdge, m)
	sc.np = growInts(sc.np, n)
	sc.bestAlloc = growInts(sc.bestAlloc, n)
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func clearBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

func floatsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func resetInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// taskCand is one §III.C widening candidate (task, execution-time gain).
type taskCand struct {
	t    int
	gain float64
}

// costCacheBits sizes the direct-mapped redistribution-cost cache (2^bits
// slots). 4096 slots cover the working set of one search comfortably: a few
// dozen tasks times a handful of parent layouts and candidate subsets each;
// smaller tables measurably thrash (collision evictions double the
// FastCostBuf recompute rate).
const costCacheBits = 12

// costCache is a direct-mapped, content-keyed memo of FastCostBuf results.
// The key is the complete input of the computation — model parameters,
// volume and both processor groups — so entries never go stale and the cache
// survives across runs, searches and workloads on the same scratch. A
// colliding insert simply overwrites the slot.
type costCache struct {
	ents []costEnt
}

type costEnt struct {
	hash        uint64
	vol, bb, bw float64
	nsrc        int32
	ids         []int32 // src then dst, reusing the slot's backing array
	cost        float64
}

// procsHash is an FNV-1a digest of a processor set, shared by the per-task
// ct memo and (as the dst half of the key) the cost cache, so one candidate
// subset is hashed once per probe rather than once per parent edge.
func procsHash(procs []int) uint64 {
	h := uint64(1469598103934665603)
	for _, p := range procs {
		h ^= uint64(p)
		h *= 1099511628211
	}
	return h
}

// costHash extends a dst-set digest with the remaining key components.
func costHash(dstHash uint64, vol, bb, bw float64, src []int) uint64 {
	h := dstHash
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(math.Float64bits(vol))
	mix(math.Float64bits(bb))
	mix(math.Float64bits(bw))
	mix(uint64(len(src)))
	for _, p := range src {
		mix(uint64(p))
	}
	return h
}

// lookup returns the cached cost for the exact query, if present.
func (c *costCache) lookup(hash uint64, vol, bb, bw float64, src, dst []int) (float64, bool) {
	if c.ents == nil {
		return 0, false
	}
	e := &c.ents[hash&uint64(len(c.ents)-1)]
	if e.hash != hash || e.vol != vol || e.bb != bb || e.bw != bw ||
		int(e.nsrc) != len(src) || len(e.ids) != len(src)+len(dst) {
		return 0, false
	}
	for i, p := range src {
		if e.ids[i] != int32(p) {
			return 0, false
		}
	}
	for i, p := range dst {
		if e.ids[len(src)+i] != int32(p) {
			return 0, false
		}
	}
	return e.cost, true
}

// store records a computed cost, overwriting whatever occupied the slot.
func (c *costCache) store(hash uint64, vol, bb, bw float64, src, dst []int, cost float64) {
	if c.ents == nil {
		c.ents = make([]costEnt, 1<<costCacheBits)
	}
	e := &c.ents[hash&uint64(len(c.ents)-1)]
	e.hash, e.vol, e.bb, e.bw, e.cost = hash, vol, bb, bw, cost
	e.nsrc = int32(len(src))
	ids := e.ids[:0]
	for _, p := range src {
		ids = append(ids, int32(p))
	}
	for _, p := range dst {
		ids = append(ids, int32(p))
	}
	e.ids = ids
}
