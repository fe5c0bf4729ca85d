// Package stream implements open-loop streaming scheduling: DAG jobs
// arrive over simulated time (Poisson process or SWF trace replay), and
// the ready frontier is rescheduled on every event — arrival, task
// completion, mid-run task failure, cluster shrink/grow — with
// rolling-horizon incremental LoC-MPS. This is the third leg of the
// production story after the serving layer (internal/serve) and the
// portfolio racer (internal/portfolio): the paper schedules one static
// mixed-parallel DAG; a service under continuous traffic schedules a
// churning union of them.
//
// The execution model is deterministic: between events the cluster
// follows the current plan exactly, so plan-predicted completions carry
// no new information and the rescheduler serves them from the cached
// plan (the empty-delta fast path — zero placement runs, bit-identical
// schedule). Real deltas — arrivals, failures, resizes — trigger a full
// rolling-horizon search over the disjoint union of the active jobs'
// graphs: tasks that already started are fixed at their historical
// placements (they determine data locality for everything downstream),
// every online processor is busy until "now" (time cannot be scheduled
// into the past), and offline processors are reserved to a far horizon.
// When a job's last task completes the job retires: the union shrinks
// and the surviving placements are remapped onto the smaller graph
// without searching.
//
// Incremental mode (the default) runs the full LoC-MPS configuration, with
// the allocation memo and the trace/undo-log resume machinery on inside
// each search, and carries model tables across union rebuilds by
// model.ConcatTables instead of re-evaluating speedup profiles; it reuses
// the union graph while the active set is unchanged. Each search starts
// from a fresh memo and trace: no search state crosses from one horizon to
// the next. Scratch mode (Config.Scratch) is the honest naive baseline:
// the reference configuration (memo and resume off) on a freshly rebuilt
// graph per search. Both modes produce bit-identical plans at every
// event — the accelerations never change results — which is what the
// BENCH_stream.json speedup gate and the all-arrivals-at-t=0
// batch-equivalence differential rest on.
package stream

import (
	"fmt"
	"math"
	"sort"
	"time"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/latring"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

// OfflineHorizon is the BusyUntil frontier reserved on processors taken
// offline by a shrink event. A committed plan never touches an offline
// processor — any placement starting at the horizon loses to one on an
// online processor — so the constant never appears in emitted schedules;
// it only has to dwarf every realistic makespan while staying far from
// float overflow (Inf would poison chart arithmetic). A power of two
// keeps horizon-adjacent comparisons exactly scale-covariant under the
// metamorphic x8 test.
const OfflineHorizon = float64(1 << 40)

// latencyWindow is the reschedule-latency quantile ring size.
const latencyWindow = 512

// Job is one streaming DAG job: a task graph submitted at Arrival.
type Job struct {
	Arrival float64
	TG      *model.TaskGraph
}

// Fail injects a mid-run task failure: at Time, the lowest-id task of
// job Job that is currently running loses its execution and re-enters
// the frontier (to be re-placed from scratch by the next search). A
// no-op when the job has no running task at that instant.
type Fail struct {
	Time float64
	Job  int
}

// Resize changes the online processor count at Time: processors
// [0, Procs) accept new work afterwards, the rest are reserved to
// OfflineHorizon. Tasks already running on a processor taken offline
// run to completion (their reservations are fixed).
type Resize struct {
	Time  float64
	Procs int
}

// Config describes one streaming scenario.
type Config struct {
	// Cluster is the machine; Cluster.P is the capacity (grow events
	// cannot exceed it).
	Cluster model.Cluster
	// Jobs is the submission list, in any order; ties in arrival time
	// are processed in slice order.
	Jobs []Job
	// Failures and Resizes are the scenario's exogenous events.
	Failures []Fail
	Resizes  []Resize
	// Scratch selects the naive reference mode: every real reschedule
	// runs the reference configuration (memo and resume off) on
	// a freshly rebuilt union graph. Plans are bit-identical to
	// incremental mode; only the work to produce them differs.
	Scratch bool
	// SkipAudit disables the per-plan audit (internal/audit with
	// accounting). Leave false everywhere except hot benchmark loops
	// that measure pure rescheduling cost.
	SkipAudit bool
}

// EventRecord describes one processed event instant: everything that
// happened at that simulated time and what rescheduling it cost.
type EventRecord struct {
	// Time is the simulated event time.
	Time float64
	// Arrivals, Completions, Retired and Failures count what the
	// instant delivered; Resized marks a shrink/grow taking effect.
	Arrivals, Completions, Retired, Failures int
	Resized                                  bool
	// FastPath marks an empty-delta event served from the cached plan
	// (no placement run); Remap marks a retire-only shrink of the union
	// with surviving placements carried over (no placement run either).
	FastPath bool
	Remap    bool
	// Elapsed is the wall-clock cost of handling the event's
	// rescheduling decision (search, remap or fast path).
	Elapsed time.Duration
	// Stats is the search-layer accounting of the event's placement
	// search — ReplayedTasks, ResumedRuns and RollbackDepth expose the
	// PR 3 trace/undo-log machinery per event. Zero for fast paths and
	// remaps.
	Stats core.SearchStats
	// ActiveJobs and ActiveTasks size the union after the event.
	ActiveJobs, ActiveTasks int
	// Makespan is the current plan's horizon (0 when no job is active).
	Makespan float64
}

// Result is the outcome of a streaming run.
type Result struct {
	// Events holds one record per processed event instant.
	Events []EventRecord
	// JobCompletion is each job's completion time (last task finish),
	// indexed like Config.Jobs.
	JobCompletion []float64
	// Searches counts real placement searches; ResumedRuns counts
	// empty-delta events served from the cached plan without any suffix
	// search; Remaps counts retire-only plan carryovers.
	Searches, ResumedRuns, Remaps int
	// Stats sums the search-layer accounting over all real searches.
	Stats core.SearchStats
	// SearchTime sums the wall-clock cost of real searches; P50/P99 are
	// nearest-rank quantiles over the per-search costs.
	SearchTime time.Duration
	P50, P99   time.Duration
	// Wall is the wall-clock cost of the whole replay (Run only).
	Wall time.Duration
	// MaxActiveJobs and MaxActiveTasks are the high-water marks of the
	// rolling horizon.
	MaxActiveJobs, MaxActiveTasks int
	// End is the end-state schedule — every job's final placements
	// assembled on EndGraph, the disjoint union of all jobs' graphs in
	// arrival order. For a trace with all arrivals at t=0 it is
	// bit-identical to batch-scheduling EndGraph directly.
	End      *schedule.Schedule
	EndGraph *model.TaskGraph
}

// Sim is the event-driven simulator. Create with New, drive with Step
// (or use Run).
type Sim struct {
	cfg     Config
	jobs    []*jobState
	order   []int // job indices sorted by (Arrival, index)
	nextArr int
	fails   []Fail
	nextFl  int
	resizes []Resize
	nextRs  int

	now    float64
	online int

	active   []int // job indices in arrival order
	offset   []int // task-id base per active entry
	combined *model.TaskGraph
	plan     *schedule.Schedule

	alg  *core.LoCMPS
	ring *latring.Ring
	res  Result
}

type jobState struct {
	job       Job
	tables    *model.Tables
	started   []bool
	completed []bool
	done      int
	retired   bool
	rec       []schedule.Placement // valid where started
	comm      []float64            // per local edge id, valid where the child started
}

// New validates the scenario and prepares a simulator at time zero.
func New(cfg Config) (*Sim, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	for i, j := range cfg.Jobs {
		if j.TG == nil || j.TG.N() == 0 {
			return nil, fmt.Errorf("stream: job %d has no task graph", i)
		}
		if j.Arrival < 0 || math.IsNaN(j.Arrival) || math.IsInf(j.Arrival, 0) {
			return nil, fmt.Errorf("stream: job %d has invalid arrival %v", i, j.Arrival)
		}
	}
	for i, f := range cfg.Failures {
		if f.Job < 0 || f.Job >= len(cfg.Jobs) {
			return nil, fmt.Errorf("stream: failure %d targets job %d of %d", i, f.Job, len(cfg.Jobs))
		}
		if f.Time < 0 || math.IsNaN(f.Time) || math.IsInf(f.Time, 0) {
			return nil, fmt.Errorf("stream: failure %d at invalid time %v", i, f.Time)
		}
	}
	for i, r := range cfg.Resizes {
		if r.Procs < 1 || r.Procs > cfg.Cluster.P {
			return nil, fmt.Errorf("stream: resize %d to %d processors outside [1,%d]", i, r.Procs, cfg.Cluster.P)
		}
		if r.Time < 0 || math.IsNaN(r.Time) || math.IsInf(r.Time, 0) {
			return nil, fmt.Errorf("stream: resize %d at invalid time %v", i, r.Time)
		}
	}
	s := &Sim{
		cfg:     cfg,
		jobs:    make([]*jobState, len(cfg.Jobs)),
		order:   make([]int, len(cfg.Jobs)),
		fails:   append([]Fail(nil), cfg.Failures...),
		resizes: append([]Resize(nil), cfg.Resizes...),
		online:  cfg.Cluster.P,
		ring:    latring.New(latencyWindow),
	}
	for i := range cfg.Jobs {
		tg := cfg.Jobs[i].TG
		s.jobs[i] = &jobState{
			job:       cfg.Jobs[i],
			started:   make([]bool, tg.N()),
			completed: make([]bool, tg.N()),
			rec:       make([]schedule.Placement, tg.N()),
			comm:      make([]float64, tg.M()),
		}
		s.order[i] = i
	}
	sort.SliceStable(s.order, func(a, b int) bool {
		return cfg.Jobs[s.order[a]].Arrival < cfg.Jobs[s.order[b]].Arrival
	})
	sort.SliceStable(s.fails, func(a, b int) bool { return s.fails[a].Time < s.fails[b].Time })
	sort.SliceStable(s.resizes, func(a, b int) bool { return s.resizes[a].Time < s.resizes[b].Time })
	s.res.JobCompletion = make([]float64, len(cfg.Jobs))
	if cfg.Scratch {
		s.alg = core.NewReference()
	} else {
		s.alg = core.New()
	}
	return s, nil
}

// Close ends the simulation. A Sim holds no pooled resources, so Close
// has nothing to release.
func (s *Sim) Close() {}

// Plan exposes the current plan over Graph() — nil when no job is
// active. Callers must not mutate it; Clone first.
func (s *Sim) Plan() *schedule.Schedule { return s.plan }

// Graph exposes the current union graph (nil when no job is active).
func (s *Sim) Graph() *model.TaskGraph { return s.combined }

// Now reports the current simulated time.
func (s *Sim) Now() float64 { return s.now }

// nextEventTime finds the earliest pending event, or +Inf when drained.
func (s *Sim) nextEventTime() float64 {
	t := math.Inf(1)
	if s.nextArr < len(s.order) {
		if a := s.jobs[s.order[s.nextArr]].job.Arrival; a < t {
			t = a
		}
	}
	if s.nextFl < len(s.fails) && s.fails[s.nextFl].Time < t {
		t = s.fails[s.nextFl].Time
	}
	if s.nextRs < len(s.resizes) && s.resizes[s.nextRs].Time < t {
		t = s.resizes[s.nextRs].Time
	}
	if s.plan != nil {
		for idx, ai := range s.active {
			js, off := s.jobs[ai], s.offset[idx]
			for local := range js.completed {
				if js.completed[local] {
					continue
				}
				if f := s.plan.Placements[off+local].Finish; f < t {
					t = f
				}
			}
		}
	}
	return t
}

// Step processes the next event instant. It returns ok=false (with a
// zero record) once every event has been drained; the error reports a
// stalled simulation or a failed search/audit.
func (s *Sim) Step() (EventRecord, bool, error) {
	t := s.nextEventTime()
	if math.IsInf(t, 1) {
		for i, js := range s.jobs {
			if !js.retired {
				return EventRecord{}, false, fmt.Errorf("stream: drained with job %d incomplete", i)
			}
		}
		return EventRecord{}, false, nil
	}
	s.now = t
	rec := EventRecord{Time: t}

	// 1. Advance deterministic execution to t under the current plan:
	// tasks whose planned start has passed become fixed (their placement
	// and incoming redistribution charges are recorded — the plan may
	// re-place everything else later, never them), tasks whose planned
	// finish has passed complete.
	var retiring []int
	if s.plan != nil {
		rec.Completions = s.advanceTo(t)
		for _, ai := range s.active {
			js := s.jobs[ai]
			if js.done == len(js.started) {
				js.retired = true
				s.res.JobCompletion[ai] = maxFinish(js.rec)
				retiring = append(retiring, ai)
				rec.Retired++
			}
		}
	}

	// 2. Exogenous deltas at t: arrivals, failures, resizes.
	var arrivals []int
	for s.nextArr < len(s.order) && s.jobs[s.order[s.nextArr]].job.Arrival <= t {
		arrivals = append(arrivals, s.order[s.nextArr])
		s.nextArr++
	}
	rec.Arrivals = len(arrivals)
	for s.nextFl < len(s.fails) && s.fails[s.nextFl].Time <= t {
		if s.applyFailure(s.fails[s.nextFl]) {
			rec.Failures++
		}
		s.nextFl++
	}
	for s.nextRs < len(s.resizes) && s.resizes[s.nextRs].Time <= t {
		s.online = s.resizes[s.nextRs].Procs
		rec.Resized = true
		s.nextRs++
	}

	// 3. New active set: retired jobs leave, arrivals append in order.
	newActive := s.active[:0:0]
	for _, ai := range s.active {
		if !s.jobs[ai].retired {
			newActive = append(newActive, ai)
		}
	}
	newActive = append(newActive, arrivals...)
	setChanged := rec.Retired > 0 || len(arrivals) > 0
	realDelta := len(arrivals) > 0 || rec.Failures > 0 || rec.Resized

	// 4. Reschedule: a real delta searches; a retire-only change remaps;
	// anything else is the empty-delta fast path.
	started := time.Now()
	var err error
	switch {
	case len(newActive) == 0:
		s.active, s.offset, s.combined, s.plan = newActive, nil, nil, nil
	case realDelta:
		err = s.search(newActive, setChanged, &rec)
	case setChanged:
		err = s.remap(newActive)
		rec.Remap = true
		s.res.Remaps++
	default:
		// Deterministic execution: a plan-predicted completion carries
		// zero new information, so the "reschedule" resumes the cached
		// plan outright — no suffix search, bit-identical schedule.
		rec.FastPath = true
		s.res.ResumedRuns++
	}
	rec.Elapsed = time.Since(started)
	if err != nil {
		return EventRecord{}, false, err
	}
	if realDelta && len(newActive) > 0 {
		s.ring.Record(rec.Elapsed)
		s.res.Searches++
		s.res.SearchTime += rec.Elapsed
		addStats(&s.res.Stats, rec.Stats)
	}

	rec.ActiveJobs = len(s.active)
	if s.combined != nil {
		rec.ActiveTasks = s.combined.N()
	}
	if s.plan != nil {
		rec.Makespan = s.plan.Makespan
	}
	if rec.ActiveJobs > s.res.MaxActiveJobs {
		s.res.MaxActiveJobs = rec.ActiveJobs
	}
	if rec.ActiveTasks > s.res.MaxActiveTasks {
		s.res.MaxActiveTasks = rec.ActiveTasks
	}

	// 5. Emitted schedules carry the same guarantees as batch ones.
	if !s.cfg.SkipAudit && s.plan != nil && !rec.FastPath {
		if err := s.auditPlan(); err != nil {
			return EventRecord{}, false, err
		}
	}
	s.res.Events = append(s.res.Events, rec)
	return rec, true, nil
}

// Result finalizes and returns the run's metrics. The end-state schedule
// is assembled once every job has retired; before that End/EndGraph are
// nil.
func (s *Sim) Result() (*Result, error) {
	res := s.res
	res.P50, res.P99 = s.ring.Quantiles()
	allDone := true
	for _, js := range s.jobs {
		if !js.retired {
			allDone = false
			break
		}
	}
	if allDone && len(s.jobs) > 0 {
		end, endGraph, err := s.endState()
		if err != nil {
			return nil, err
		}
		res.End, res.EndGraph = end, endGraph
	}
	return &res, nil
}

// Run drives a scenario to completion.
func Run(cfg Config) (*Result, error) {
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for {
		_, ok, err := s.Step()
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
	}
	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	res.Wall = time.Since(t0)
	return res, nil
}

// advanceTo marks starts and completions up to time t against the
// current plan and captures the records of newly started tasks.
func (s *Sim) advanceTo(t float64) int {
	completions := 0
	for idx, ai := range s.active {
		js, off := s.jobs[ai], s.offset[idx]
		for local := range js.started {
			gid := off + local
			pl := s.plan.Placements[gid]
			if !js.started[local] && (pl.Start < t || pl.Finish <= t) {
				js.started[local] = true
				js.rec[local] = clonePlacement(pl)
				for _, e := range js.job.TG.PredEdges(local) {
					if cid, ok := s.combined.EdgeID(e.Other+off, gid); ok {
						js.comm[e.ID] = s.plan.CommID(cid)
					}
				}
			}
			if js.started[local] && !js.completed[local] && pl.Finish <= t {
				js.completed[local] = true
				js.done++
				completions++
			}
		}
	}
	return completions
}

// applyFailure re-opens the lowest-id running task of the target job.
// The time it already burned on its processors lies in the past, which
// the rolling horizon (BusyUntil = now) blocks anyway.
func (s *Sim) applyFailure(f Fail) bool {
	js := s.jobs[f.Job]
	if js.retired {
		return false
	}
	arrived := false
	for _, ai := range s.active {
		if ai == f.Job {
			arrived = true
			break
		}
	}
	if !arrived {
		return false
	}
	for local := range js.started {
		if js.started[local] && !js.completed[local] {
			js.started[local] = false
			js.rec[local] = schedule.Placement{}
			for _, e := range js.job.TG.PredEdges(local) {
				js.comm[e.ID] = 0
			}
			return true
		}
	}
	return false
}

// combine builds the disjoint union of the given jobs' graphs. In
// incremental mode the per-job tables are concatenated and adopted so
// the union never re-evaluates a speedup profile.
func (s *Sim) combine(actives []int) (*model.TaskGraph, []int, error) {
	var tasks []model.Task
	var edges []model.Edge
	offsets := make([]int, len(actives))
	for i, ai := range actives {
		off := len(tasks)
		offsets[i] = off
		tg := s.jobs[ai].job.TG
		tasks = append(tasks, tg.Tasks...)
		for _, e := range tg.Edges() {
			edges = append(edges, model.Edge{From: e.From + off, To: e.To + off, Volume: e.Volume})
		}
	}
	union, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: union graph: %w", err)
	}
	if !s.cfg.Scratch {
		parts := make([]*model.Tables, len(actives))
		for i, ai := range actives {
			js := s.jobs[ai]
			if js.tables == nil {
				js.tables = js.job.TG.Tables(s.cfg.Cluster.P)
			}
			parts[i] = js.tables
		}
		tb, err := model.ConcatTables(union, s.cfg.Cluster.P, parts...)
		if err != nil {
			return nil, nil, fmt.Errorf("stream: %w", err)
		}
		union.AdoptTables(tb)
	}
	return union, offsets, nil
}

// preset assembles the rolling-horizon constraints: started tasks are
// fixed verbatim, online processors are busy until now (the past is not
// schedulable), offline processors are busy until the horizon.
func (s *Sim) preset(actives []int, offsets []int) core.Preset {
	fixed := make(map[int]schedule.Placement)
	for i, ai := range actives {
		js, off := s.jobs[ai], offsets[i]
		for local, st := range js.started {
			if st {
				fixed[off+local] = clonePlacement(js.rec[local])
			}
		}
	}
	busy := make([]float64, s.cfg.Cluster.P)
	for p := range busy {
		if p < s.online {
			busy[p] = s.now
		} else {
			busy[p] = OfflineHorizon
		}
	}
	return core.Preset{Fixed: fixed, BusyUntil: busy}
}

// search runs a real rolling-horizon reschedule over the new active set.
func (s *Sim) search(newActive []int, setChanged bool, rec *EventRecord) error {
	combined, offsets := s.combined, s.offset
	var err error
	if setChanged || combined == nil || s.cfg.Scratch {
		// Scratch mode rebuilds even when the set is unchanged: the
		// naive baseline pays graph and table construction per search.
		combined, offsets, err = s.combine(newActive)
		if err != nil {
			return err
		}
	}
	preset := s.preset(newActive, offsets)
	plan, err := s.alg.ScheduleWithPreset(combined, s.cfg.Cluster, preset)
	if err != nil {
		return fmt.Errorf("stream: reschedule at t=%v: %w", s.now, err)
	}
	rec.Stats = s.alg.LastStats()
	// The placer copies fixed placements verbatim but leaves the
	// charges on edges between two fixed tasks at zero (it never
	// re-prices committed history); carry them forward from the records
	// so every emitted plan passes full accounting.
	for i, ai := range newActive {
		js, off := s.jobs[ai], offsets[i]
		for local, st := range js.started {
			if !st {
				continue
			}
			for _, e := range js.job.TG.PredEdges(local) {
				if cid, ok := combined.EdgeID(e.Other+off, off+local); ok {
					plan.SetCommID(cid, js.comm[e.ID])
				}
			}
		}
	}
	s.active, s.offset, s.combined, s.plan = newActive, offsets, combined, plan
	return nil
}

// remap handles a retire-only change: the union shrinks and every
// surviving placement (fixed from records, pending from the old plan)
// is carried onto the new graph without searching.
func (s *Sim) remap(newActive []int) error {
	oldPlan, oldCombined := s.plan, s.combined
	oldOffset := make(map[int]int, len(s.active))
	for idx, ai := range s.active {
		oldOffset[ai] = s.offset[idx]
	}
	combined, offsets, err := s.combine(newActive)
	if err != nil {
		return err
	}
	ns := schedule.NewSchedule(oldPlan.Algorithm, s.cfg.Cluster, combined)
	for i, ai := range newActive {
		js, off, oldOff := s.jobs[ai], offsets[i], oldOffset[ai]
		for local := range js.started {
			pl := oldPlan.Placements[oldOff+local]
			if js.started[local] {
				pl = js.rec[local]
			}
			ns.Placements[off+local] = clonePlacement(pl)
			for _, e := range js.job.TG.PredEdges(local) {
				w := 0.0
				if js.started[local] {
					w = js.comm[e.ID]
				} else if ocid, ok := oldCombined.EdgeID(e.Other+oldOff, oldOff+local); ok {
					w = oldPlan.CommID(ocid)
				}
				if cid, ok := combined.EdgeID(e.Other+off, off+local); ok {
					ns.SetCommID(cid, w)
				}
			}
		}
	}
	ns.ComputeMakespan()
	s.active, s.offset, s.combined, s.plan = newActive, offsets, combined, ns
	return nil
}

// endState assembles the final schedule of every job on the union of all
// jobs' graphs in arrival order.
func (s *Sim) endState() (*schedule.Schedule, *model.TaskGraph, error) {
	var tasks []model.Task
	var edges []model.Edge
	offsets := make([]int, len(s.order))
	for i, ai := range s.order {
		off := len(tasks)
		offsets[i] = off
		tg := s.jobs[ai].job.TG
		tasks = append(tasks, tg.Tasks...)
		for _, e := range tg.Edges() {
			edges = append(edges, model.Edge{From: e.From + off, To: e.To + off, Volume: e.Volume})
		}
	}
	union, err := model.NewTaskGraph(tasks, edges)
	if err != nil {
		return nil, nil, fmt.Errorf("stream: end-state graph: %w", err)
	}
	algName := s.alg.Name()
	ns := schedule.NewSchedule(algName, s.cfg.Cluster, union)
	for i, ai := range s.order {
		js, off := s.jobs[ai], offsets[i]
		for local := range js.rec {
			ns.Placements[off+local] = clonePlacement(js.rec[local])
			for _, e := range js.job.TG.PredEdges(local) {
				if cid, ok := union.EdgeID(e.Other+off, off+local); ok {
					ns.SetCommID(cid, js.comm[e.ID])
				}
			}
		}
	}
	ns.ComputeMakespan()
	return ns, union, nil
}

// auditPlan routes the current plan through the first-principles oracle
// with full accounting.
func (s *Sim) auditPlan() error {
	rep := audit.Check(s.combined, s.plan, audit.Options{RequireAccounting: true})
	if err := rep.Err(); err != nil {
		return fmt.Errorf("stream: emitted schedule at t=%v failed audit: %w", s.now, err)
	}
	return nil
}

// UnionGraph builds the disjoint union of the jobs' graphs in arrival
// order (ties by index) — the graph Result.EndGraph is assembled on and
// the input to the batch scheduler an all-arrivals-at-t=0 stream must
// match bit for bit.
func UnionGraph(jobs []Job) (*model.TaskGraph, error) {
	order := make([]int, len(jobs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Arrival < jobs[order[b]].Arrival })
	var tasks []model.Task
	var edges []model.Edge
	for _, ji := range order {
		tg := jobs[ji].TG
		if tg == nil {
			return nil, fmt.Errorf("stream: job %d has no task graph", ji)
		}
		off := len(tasks)
		tasks = append(tasks, tg.Tasks...)
		for _, e := range tg.Edges() {
			edges = append(edges, model.Edge{From: e.From + off, To: e.To + off, Volume: e.Volume})
		}
	}
	return model.NewTaskGraph(tasks, edges)
}

func clonePlacement(pl schedule.Placement) schedule.Placement {
	pl.Procs = append([]int(nil), pl.Procs...)
	return pl
}

func maxFinish(recs []schedule.Placement) float64 {
	var m float64
	for _, pl := range recs {
		if pl.Finish > m {
			m = pl.Finish
		}
	}
	return m
}

func addStats(dst *core.SearchStats, s core.SearchStats) {
	dst.OuterIterations += s.OuterIterations
	dst.LookAheadSteps += s.LookAheadSteps
	dst.LoCBSRuns += s.LoCBSRuns
	dst.Commits += s.Commits
	dst.Marks += s.Marks
	dst.CacheHits += s.CacheHits
	dst.CacheMisses += s.CacheMisses
	dst.ReplayedTasks += s.ReplayedTasks
	dst.ResumedRuns += s.ResumedRuns
	dst.RollbackDepth += s.RollbackDepth
}
