package core

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"locmps/internal/model"
	"locmps/internal/redist"
	"locmps/internal/schedule"
)

// DefaultBlockBytes is the block-cyclic block size assumed when a Config
// does not specify one (64 KiB, a typical ScaLAPACK-style tile).
const DefaultBlockBytes = 64 * 1024

// Config selects the behaviour of the LoCBS placement engine. The zero
// value plus withDefaults gives the paper's full LoC-MPS configuration.
type Config struct {
	// Backfill enables idle-slot (hole) packing; when false the engine
	// degrades to the frontier-only variant of Figure 6.
	Backfill bool
	// Locality makes processor-subset selection prefer nodes already
	// holding the task's input data. When false subsets are chosen by
	// lowest processor id (the locality-blind baselines).
	Locality bool
	// CommAware makes scheduling *decisions* (priorities) account for
	// estimated redistribution costs. Timing always charges the real
	// costs; iCASLB sets this false.
	CommAware bool
	// BlockBytes is the block-cyclic block size used by the
	// redistribution model; 0 selects DefaultBlockBytes.
	BlockBytes float64
	// AdaptiveWidth makes the engine choose each task's processor count
	// at placement time (1..min(P, Pbest)) to minimize that task's finish
	// time, instead of honouring the allocation vector. This is the
	// M-HEFT-style one-shot allocation used by the extra baseline in
	// internal/sched; LoC-MPS never sets it.
	AdaptiveWidth bool
}

func (c Config) withDefaults() Config {
	if c.BlockBytes == 0 {
		c.BlockBytes = DefaultBlockBytes
	}
	return c
}

// DefaultConfig is the paper's LoC-MPS engine: locality conscious
// backfilling with communication-aware priorities.
func DefaultConfig() Config {
	return Config{Backfill: true, Locality: true, CommAware: true}.withDefaults()
}

// LoCBS (Algorithm 2) schedules the task graph onto the cluster given a
// fixed per-task processor allocation np. It returns the schedule with
// DataReady/CommTime filled so that the schedule-DAG G' and its critical
// path can be derived.
func LoCBS(tg *model.TaskGraph, cluster model.Cluster, np []int, cfg Config) (*schedule.Schedule, error) {
	if err := cluster.Validate(); err != nil {
		return nil, err
	}
	if len(np) != tg.N() {
		return nil, fmt.Errorf("core: allocation vector has %d entries for %d tasks", len(np), tg.N())
	}
	for t, n := range np {
		if n < 1 || n > cluster.P {
			return nil, fmt.Errorf("core: task %d allocated %d processors outside [1,%d]", t, n, cluster.P)
		}
	}
	sc := getScratch()
	defer putScratch(sc)
	return runPlacer(tg, cluster, np, cfg.withDefaults(), Preset{}, sc, false)
}

// runPlacer executes one pre-validated LoCBS run against pooled scratch:
// cluster, np and preset have been checked by the caller and cfg carries
// its defaults. This is the entry point the LoC-MPS search loop hits
// thousands of times per Schedule call.
//
// incremental selects the incremental mode; false runs from an empty chart
// and records nothing. An incremental run records a placement trace and —
// when the scratch holds a valid trace from an earlier run of the same
// LoC-MPS search (prepareSearch resets it, so the graph, cluster, config
// and preset are fixed for every run that can match) — resumes from it:
// the placement prefix shared with the previous run is replayed by copying
// its committed decisions (provably identical, see run), the chart is
// rolled back to the first divergent step, and only the suffix is
// searched. Schedules are bit-identical to a from-scratch run either way.
func runPlacer(tg *model.TaskGraph, cluster model.Cluster, np []int, cfg Config, preset Preset, sc *placerScratch, incremental bool) (*schedule.Schedule, error) {
	tr := &sc.trace
	record := incremental && !cfg.AdaptiveWidth
	resume := record && tr.matches(tg, cluster, cfg)
	sc.preparePlacer(tg.N(), cluster.P, cfg.Backfill, resume)
	sc.lastReplayed, sc.lastRolledBack = 0, 0
	// The trace is invalid while the run mutates the chart and the trace's
	// own step records; a successful completion re-validates it below, so
	// an errored run leaves it invalid.
	tr.valid = false
	e := &placer{
		tg:      tg,
		tb:      tg.Tables(cluster.P),
		cluster: cluster,
		np:      np,
		cfg:     cfg,
		rm:      redistModel(cfg, cluster),
		sc:      sc,
		sched:   schedule.NewSchedule(engineName(cfg), cluster, tg),
		factor:  preset.NodeFactor,
		resume:  resume,
		record:  record,
	}
	if record {
		// Shares cached by earlier runs of the same search stay warm; the
		// scratch's next search starts cold.
		sc.costBuf.SetShareEpoch(sc.shareToken)
	}
	for t, pl := range preset.Fixed {
		e.sched.Placements[t] = pl
		sc.preset[t] = true
		// Fixed tasks that are still running block their processors. On
		// resume the chart still holds these reservations (the trace is
		// per-search, so it pins the preset), so they must not be booked twice. Each span is
		// clipped to start at BusyUntil, whose busy reservation below
		// already covers the earlier part: overlapping intervals would let
		// the chart report a frontier in the past. A task that finished
		// before BusyUntil books nothing (reserve drops empty spans).
		if !resume {
			for _, proc := range pl.Procs {
				start := pl.Start
				if preset.BusyUntil != nil {
					start = max(start, preset.BusyUntil[proc])
				}
				sc.chart.reserve(start, pl.Finish, proc)
			}
		}
	}
	if !resume && preset.BusyUntil != nil {
		for proc, until := range preset.BusyUntil {
			if until > 0 {
				sc.chart.reserve(0, until, proc)
			}
		}
	}
	if record && !resume {
		// Preset reservations stay below the first checkpoint: they are
		// shared by every run of the search and never rolled back.
		sc.chart.record()
		tr.restart(sc.chart.mark())
	}
	// One backing array serves every placement's processor set; with
	// adaptive width the saturation points bound the chosen widths.
	total := 0
	for t := range np {
		if sc.preset[t] {
			continue
		}
		if cfg.AdaptiveWidth {
			total += e.tb.Pbest(t, cluster.P)
		} else {
			total += np[t]
		}
	}
	e.procStore = make([]int, 0, total)
	if err := e.run(); err != nil {
		return nil, err
	}
	if record {
		tr.valid = true
		tr.tg, tr.cluster, tr.cfg = tg, cluster, cfg
		tr.sched = e.sched
		tr.np = append(tr.np[:0], np...)
	}
	return e.sched, nil
}

func redistModel(cfg Config, cluster model.Cluster) redist.Model {
	return redist.Model{BlockBytes: cfg.BlockBytes, Bandwidth: cluster.Bandwidth}
}

func engineName(cfg Config) string {
	switch {
	case !cfg.CommAware:
		return "iCASLB"
	case !cfg.Backfill:
		return "LoC-MPS-NoBF"
	case !cfg.Locality:
		return "MPS-NoLoc"
	default:
		return "LoC-MPS"
	}
}

// placer holds the state of one LoCBS run. All slices except procStore and
// the output schedule alias the pooled scratch.
type placer struct {
	tg      *model.TaskGraph
	tb      *model.Tables
	cluster model.Cluster
	np      []int
	cfg     Config
	rm      redist.Model
	sc      *placerScratch
	sched   *schedule.Schedule

	// factor holds per-node speed multipliers (nil = homogeneous).
	factor []float64
	// procStore is the single backing array the committed processor sets
	// are carved from; it outlives the run inside the returned schedule.
	procStore []int
	// pref is the preference-ordered processor list of the task currently
	// being placed (set by buildPreference; may alias the scratch cache).
	pref []int32
	// resume replays the scratch trace's placement prefix; record appends
	// this run's steps to the trace (both set by runPlacer).
	resume, record bool
}

func intsEqual(a, b []int) bool {
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

// attempt is one candidate placement under evaluation.
type attempt struct {
	procs     []int // ascending physical ids
	start     float64
	finish    float64
	dataReady float64
	commTime  float64
	occupy    float64 // reservation begins here (start, or comm start when no overlap)
	// comm holds the charged redistribution time per incoming edge,
	// aligned with the task's predecessor list.
	comm []float64
}

func (e *placer) run() error {
	e.computePriorities()
	n := e.tg.N()
	remaining := n
	for t, fixed := range e.sc.preset {
		if fixed {
			e.sc.placed[t] = true
			remaining--
		}
	}

	// The ready set is maintained incrementally: pend[t] counts unplaced
	// predecessors and a task joins ready when its count reaches zero, so
	// each selection scans the frontier instead of the whole graph.
	pend := resetInts(e.sc.pendBuf, n)
	ready := e.sc.readyBuf[:0]
	for t := 0; t < n; t++ {
		if e.sc.placed[t] {
			continue
		}
		cnt := 0
		for _, pe := range e.tg.PredEdges(t) {
			if !e.sc.placed[pe.Other] {
				cnt++
			}
		}
		pend[t] = cnt
		if cnt == 0 {
			ready = append(ready, t)
		}
	}
	e.sc.pendBuf = pend

	// Resume fast path: the placement order is a pure function of the
	// priority vector and the graph (selection below never consults the
	// chart), and a task's placement is a pure function of its width, its
	// parents' placements and the chart state at its step. So as long as
	// the traced run selected the same task with the same width at every
	// step so far, all inputs are bit-identical by induction and the traced
	// decision can be copied instead of searched. The first step where the
	// selection or the width diverges is the (exact, not estimated) dirty
	// position: the chart is rolled back to its checkpoint and the suffix
	// is placed normally. fast stays false for non-resumed runs.
	tr := &e.sc.trace
	step := 0
	fast := e.resume

	for done := 0; done < remaining; done++ {
		// Highest priority wins, ties broken by lower task id; the scan
		// order over ready is irrelevant under this strict total order.
		bi := -1
		for i, t := range ready {
			if bi < 0 || e.sc.priority[t] > e.sc.priority[ready[bi]] ||
				(e.sc.priority[t] == e.sc.priority[ready[bi]] && t < ready[bi]) {
				bi = i
			}
		}
		if bi < 0 {
			e.sc.readyBuf = ready[:0]
			return fmt.Errorf("core: no ready task with %d of %d placed (cycle?)", done, e.tg.N())
		}
		tp := ready[bi]
		ready[bi] = ready[len(ready)-1]
		ready = ready[:len(ready)-1]

		replayed := false
		if fast {
			if step < len(tr.order) && int(tr.order[step]) == tp && e.np[tp] == tr.np[tp] {
				// Same task, same width, same parents and chart: copy the
				// traced placement; its reservations are already charted.
				prev := tr.sched.Placements[tp]
				e.sched.Placements[tp] = schedule.Placement{
					Procs:     e.claim(prev.Procs),
					Start:     prev.Start,
					Finish:    prev.Finish,
					DataReady: prev.DataReady,
					CommTime:  prev.CommTime,
				}
				for _, pe := range e.tg.PredEdges(tp) {
					e.sched.SetCommID(pe.ID, tr.sched.CommID(pe.ID))
				}
				e.sc.lastReplayed++
				step++
				replayed = true
			} else {
				// First dirty step: peel the traced suffix off the chart
				// and fall through to a normal placement of tp.
				e.sc.lastRolledBack = len(tr.order) - step
				e.sc.chart.rollback(int(tr.undoMark[step]))
				tr.truncate(step)
				fast = false
			}
		}
		if !replayed {
			best, err := e.place(tp)
			if err != nil {
				e.sc.readyBuf = ready[:0]
				return err
			}
			e.sched.Placements[tp] = schedule.Placement{
				Procs:     e.claim(best.procs),
				Start:     best.start,
				Finish:    best.finish,
				DataReady: best.dataReady,
				CommTime:  best.commTime,
			}
			for i, pe := range e.tg.PredEdges(tp) {
				e.sched.SetCommID(pe.ID, best.comm[i])
			}
			e.sc.chart.reserve(best.occupy, best.finish, best.procs...)
			if e.record {
				tr.order = append(tr.order, int32(tp))
				tr.undoMark = append(tr.undoMark, int32(e.sc.chart.mark()))
			}
		}
		e.sc.placed[tp] = true
		for _, se := range e.tg.SuccEdges(tp) {
			if !e.sc.placed[se.Other] {
				if pend[se.Other]--; pend[se.Other] == 0 {
					ready = append(ready, se.Other)
				}
			}
		}
	}
	if fast && step < len(tr.order) {
		// Unreachable with a matching trace (the step count is fixed by the
		// graph and preset), but if it ever happened the surplus traced
		// reservations must not survive into the recorded state.
		e.sc.lastRolledBack = len(tr.order) - step
		e.sc.chart.rollback(int(tr.undoMark[step]))
		tr.truncate(step)
	}
	e.sc.readyBuf = ready[:0]
	e.sched.ComputeMakespan()
	return nil
}

// claim copies a processor set into the run's backing array. The full slice
// expression caps the result so later claims can never overwrite it even if
// the array has to grow.
func (e *placer) claim(procs []int) []int {
	start := len(e.procStore)
	e.procStore = append(e.procStore, procs...)
	return e.procStore[start:len(e.procStore):len(e.procStore)]
}

// computePriorities sets priority(t) = bottomL(t) + max parent edge weight
// (Algorithm 2 step 4), with bottom levels over the current allocation and,
// when CommAware, the paper's aggregate-bandwidth edge estimates. The sweep
// runs directly over the graph's cached topological order and indexed
// adjacency — same traversal order as graph.ComputeLevels, no closures.
func (e *placer) computePriorities() {
	order := e.tg.TopoOrder()
	bottom := e.sc.bottom
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		best := 0.0
		for _, se := range e.tg.SuccEdges(v) {
			cand := bottom[se.Other]
			if e.cfg.CommAware {
				cand += e.cluster.EdgeCost(se.Volume, e.np[v], e.np[se.Other])
			}
			if cand > best {
				best = cand
			}
		}
		bottom[v] = e.tb.ExecTime(v, e.np[v]) + best
	}
	for t := range e.sc.priority {
		maxIn := 0.0
		if e.cfg.CommAware {
			for _, pe := range e.tg.PredEdges(t) {
				if w := e.cluster.EdgeCost(pe.Volume, e.np[pe.Other], e.np[t]); w > maxIn {
					maxIn = w
				}
			}
		}
		e.sc.priority[t] = bottom[t] + maxIn
	}
}

// place finds the processor set and start time minimizing tp's finish time
// across the chart's idle slots (Algorithm 2 steps 5-16). With
// AdaptiveWidth it additionally searches over processor counts. The
// returned attempt's procs/comm alias the scratch best-buffers and stay
// valid until the next place call.
func (e *placer) place(tp int) (attempt, error) {
	parents := e.tg.PredEdges(tp)
	maxParentFt := 0.0
	for _, pe := range parents {
		if ft := e.sched.Placements[pe.Other].Finish; ft > maxParentFt {
			maxParentFt = ft
		}
	}
	if e.cfg.Locality {
		e.fillLocalityScores(tp, parents)
	}

	// The processor preference order (fastest node, then locality score,
	// then id) does not depend on the candidate slot, so it is established
	// once per task; tryAt filters it by idleness at each probed time.
	e.buildPreference(tp)
	sc := e.sc
	sc.ct.reset()

	widths := sc.widthBuf[:0]
	if e.cfg.AdaptiveWidth {
		limit := e.tb.Pbest(tp, e.cluster.P)
		for n := 1; n <= limit; n++ {
			widths = append(widths, n)
		}
	} else {
		widths = append(widths, e.np[tp])
	}
	sc.widthBuf = widths

	// The chart does not change while tp is being probed, so one slot scan
	// serves every width: it walks the candidate start times straight off
	// the chart's boundaries, and tryAt answers each (width, time) cell
	// from processor bitsets. The walk stops as soon as the finish-time
	// bound prunes.
	ch := &sc.chart
	estSeg := sc.scan.reset(ch, maxParentFt)
	minF := e.minFactor()

	var att, best attempt
	bestOK := false
	for _, n := range widths {
		et := e.tb.ExecTime(tp, n)
		etFastest := et * minF
		tau, k := maxParentFt, estSeg
		for {
			if bestOK && tau+etFastest >= best.finish {
				break // later slots can only finish later
			}
			if e.tryAt(&att, tau, k, n, et, parents, maxParentFt) &&
				(!bestOK || att.finish < best.finish-schedule.Eps) {
				// Keep the improvement in the dedicated best-buffers;
				// att's slices alias per-round scratch that the next
				// probe reuses.
				best, bestOK = att, true
				sc.bestProcs = append(sc.bestProcs[:0], att.procs...)
				sc.bestComm = append(sc.bestComm[:0], att.comm...)
				best.procs, best.comm = sc.bestProcs, sc.bestComm
			}
			if k = sc.scan.nextSlot(k); k < 0 {
				break
			}
			tau = ch.t[k]
		}
	}
	if !bestOK {
		return attempt{}, fmt.Errorf("core: could not place task %d (np=%d) on P=%d", tp, e.np[tp], e.cluster.P)
	}
	if e.cfg.AdaptiveWidth {
		// Record the chosen width so priorities and validation agree.
		e.np[tp] = len(best.procs)
	}
	return best, nil
}

// buildPreference sets e.pref to every processor ordered by preference:
// fastest node first, then locality score, then id. The comparator is a
// strict total order (ids are unique), so the result is independent of the
// sort algorithm. On homogeneous clusters (no node factors) every
// positive-score processor precedes every zero-score one and the zero-score
// tail is already in comparator order (ascending id), so only the
// processors holding input data need sorting — and because the order is a
// pure function of the score vector, the per-task cache in the scratch
// short-circuits the whole computation when the vector is unchanged since
// the previous LoCBS run.
func (e *placer) buildPreference(tp int) {
	score := e.sc.score
	pref := e.sc.prefIDs[:0]
	if e.factor == nil {
		if e.cfg.Locality {
			p := e.cluster.P
			row := e.sc.prefScores[tp*p : (tp+1)*p]
			ids := e.sc.prefOrder[tp*p : (tp+1)*p]
			if e.sc.prefValid[tp] && floatsEqual(row, score[:p]) {
				e.pref = ids
				return
			}
			for proc := 0; proc < p; proc++ {
				if score[proc] != 0 {
					pref = append(pref, int32(proc))
				}
			}
			sortByScore(pref, score)
			for proc := 0; proc < p; proc++ {
				if score[proc] == 0 {
					pref = append(pref, int32(proc))
				}
			}
			e.sc.prefIDs = pref
			e.pref = pref
			copy(row, score[:p])
			copy(ids, pref)
			e.sc.prefValid[tp] = true
			return
		}
		for proc := 0; proc < e.cluster.P; proc++ {
			pref = append(pref, int32(proc))
		}
		e.sc.prefIDs = pref
		e.pref = pref
		return
	}
	for proc := 0; proc < e.cluster.P; proc++ {
		pref = append(pref, int32(proc))
	}
	e.sc.prefIDs = pref
	e.pref = pref
	factor := e.factor
	loc := e.cfg.Locality
	slices.SortFunc(pref, func(a, b int32) int {
		if fa, fb := factor[a], factor[b]; fa != fb {
			if fa < fb {
				return -1
			}
			return 1
		}
		if loc {
			if sa, sb := score[a], score[b]; sa != sb {
				if sa > sb {
					return -1
				}
				return 1
			}
		}
		return int(a - b)
	})
}

// sortByScore orders processor ids by score descending, id ascending. The
// comparator is a strict total order, so any sorting algorithm yields the
// same sequence; the data-holding groups are small (the union of a task's
// parents), so an inline insertion sort beats the generic sort's dispatch.
func sortByScore(pref []int32, score []float64) {
	if len(pref) > 48 {
		slices.SortFunc(pref, func(a, b int32) int {
			if sa, sb := score[a], score[b]; sa != sb {
				if sa > sb {
					return -1
				}
				return 1
			}
			return int(a - b)
		})
		return
	}
	for i := 1; i < len(pref); i++ {
		v := pref[i]
		sv := score[v]
		j := i
		for j > 0 {
			u := pref[j-1]
			if su := score[u]; su > sv || (su == sv && u < v) {
				break
			}
			pref[j] = u
			j--
		}
		pref[j] = v
	}
}

// tryAt evaluates placing the task in the idle slot beginning at tau,
// whose chart segment is k, filling att when it fits. Because the
// redistribution time depends on the chosen subset and the subset must stay
// idle until the (redistribution-delayed) finish time, the search iterates
// to a fixed point, tightening the required idle window each round.
func (e *placer) tryAt(att *attempt, tau float64, k, n int, et float64, parents []model.AdjEdge, maxParentFt float64) bool {
	// Each fixed-point round takes the first n sufficiently-idle processors
	// in preference order. A slow node in the subset stretches the whole
	// task (it runs at the slowest member's pace), which almost always
	// costs more than re-fetching input data: node speed dominates
	// locality, locality breaks ties among equally fast nodes. The slot
	// scan holds the sufficiently-idle set as a bitset, so a slot with
	// fewer than n such processors fails before any is picked.
	sc := e.sc
	s := &sc.scan
	s.open(tau, k)
	need := tau + et // minimal idle window; grows as comm delays surface
	if !s.reach(need-schedule.Eps, n) {
		return false
	}
	pick := s.pick
	for round := 0; round < 4; round++ {
		clear(pick)
		left := n
		for _, id := range e.pref {
			if s.has(int(id)) {
				pick[id>>6] |= 1 << (id & 63)
				if left--; left == 0 {
					break
				}
			}
		}
		// Canonical block-cyclic layout order: ascending ids.
		procs := sc.procBuf[:0]
		for j, x := range pick {
			for ; x != 0; x &= x - 1 {
				procs = append(procs, j<<6|bits.TrailingZeros64(x))
			}
		}
		sc.procBuf = procs

		e.timeOn(att, tau, et, parents, maxParentFt, procs)
		// The subset is feasible iff every member's idle slot reaches the
		// finish time; the scan then holds the set for the next round.
		fits := s.reach(att.finish-schedule.Eps, n)
		for j, x := range pick {
			fits = fits && x&^s.avail[j] == 0
		}
		if fits {
			return true
		}
		if att.finish <= need+schedule.Eps || s.free < n {
			return false // no progress possible, or no subset for the next round
		}
		need = att.finish
	}
	return false
}

// timeOn computes start/finish and communication charges for running the
// task being placed on the given processor set with the slot opening at
// tau, into att. The charges depend only on the processor set (not on tau),
// so they are memoized in the scratch's ct memo across the candidate-time
// probes.
func (e *placer) timeOn(att *attempt, tau, et float64, parents []model.AdjEdge, maxParentFt float64, procs []int) {
	m := &e.sc.ct
	ph := procsHash(procs)
	slot := -1
	for i := 0; i < m.count; i++ {
		if m.hash[i] == ph && intsEqual(m.procs[i], procs) {
			slot = i
			break
		}
	}
	if slot < 0 {
		if m.count < len(m.procs) {
			slot = m.count
			m.count++
		} else {
			slot = m.next
			m.next = (m.next + 1) % len(m.procs)
		}
		m.procs[slot] = append(m.procs[slot][:0], procs...)
		m.hash[slot] = ph
		comm := m.comm[slot][:0]
		maxCt, sumCt, rct := 0.0, 0.0, 0.0
		for _, pe := range parents {
			ct := e.edgeCost(pe.Other, pe.Volume, procs, ph)
			comm = append(comm, ct)
			if ct > maxCt {
				maxCt = ct
			}
			sumCt += ct
			if arr := e.sched.Placements[pe.Other].Finish + ct; arr > rct {
				rct = arr
			}
		}
		m.comm[slot] = comm
		m.max[slot], m.sum[slot], m.rct[slot] = maxCt, sumCt, rct
	}
	att.procs, att.comm = procs, m.comm[slot]
	maxCt, sumCt, rct := m.max[slot], m.sum[slot], m.rct[slot]
	if e.cluster.Overlap {
		// Asynchronous transfers: data redistribution proceeds while the
		// target processors may still be busy with other work.
		att.dataReady = rct
		att.start = math.Max(tau, rct)
		att.occupy = att.start
		att.commTime = maxCt
	} else {
		// Communication occupies the receiving processors: transfers from
		// distinct parents serialize on the single port.
		commStart := math.Max(tau, maxParentFt)
		att.dataReady = maxParentFt + sumCt
		att.start = commStart + sumCt
		att.occupy = commStart
		att.commTime = sumCt
	}
	att.finish = att.start + et*e.maxFactor(procs)
}

// maxFactor is the execution-time multiplier of the slowest node in the
// set (1 for homogeneous clusters).
func (e *placer) maxFactor(procs []int) float64 {
	if e.factor == nil {
		return 1
	}
	worst := 0.0
	for _, p := range procs {
		if e.factor[p] > worst {
			worst = e.factor[p]
		}
	}
	if worst == 0 {
		return 1
	}
	return worst
}

// minFactor is the multiplier of the fastest node, used as an admissible
// bound when pruning the candidate-time search.
func (e *placer) minFactor() float64 {
	if e.factor == nil {
		return 1
	}
	best := math.Inf(1)
	for _, f := range e.factor {
		if f < best {
			best = f
		}
	}
	return best
}

// edgeCost is the locality-aware redistribution time from parent's group to
// the candidate subset, memoized by complete content in the scratch's cost
// cache (the search re-asks the same layout pairs run after run). procsHash
// is the caller's digest of procs, computed once per candidate subset.
func (e *placer) edgeCost(par int, vol float64, procs []int, procsHash uint64) float64 {
	if vol == 0 {
		return 0
	}
	src := e.sched.Placements[par].Procs
	if len(src) == len(procs) && intsEqual(src, procs) {
		return 0 // same layout, nothing moves
	}
	sc := e.sc
	h := costHash(procsHash, vol, e.rm.BlockBytes, e.rm.Bandwidth, src)
	if c, ok := sc.costCache.lookup(h, vol, e.rm.BlockBytes, e.rm.Bandwidth, src, procs); ok {
		return c
	}
	c := e.rm.FastCostBuf(vol, src, procs, sc.costBuf)
	sc.costCache.store(h, vol, e.rm.BlockBytes, e.rm.Bandwidth, src, procs, c)
	return c
}

// fillLocalityScores computes, for every processor, the number of bytes of
// tp's input data already resident there across all parents. Scores do not
// depend on the candidate start time, so they are computed once per task.
func (e *placer) fillLocalityScores(tp int, parents []model.AdjEdge) {
	score := e.sc.score
	for i := range score {
		score[i] = 0
	}
	for _, pe := range parents {
		if pe.Volume == 0 {
			continue
		}
		pp := e.sched.Placements[pe.Other].Procs
		share := e.rm.ResidentShareInto(e.sc.shareBuf[:0], pe.Volume, pp)
		e.sc.shareBuf = share
		for rank, proc := range pp {
			score[proc] += share[rank]
		}
	}
}
