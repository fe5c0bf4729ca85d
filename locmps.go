// Package locmps is the public API of this module: a reproduction of
// "Locality Conscious Processor Allocation and Scheduling for Mixed
// Parallel Applications" (Vydyanathan et al., IEEE Cluster 2006).
//
// It schedules mixed-parallel applications — directed acyclic graphs of
// malleable data-parallel tasks with inter-task data volumes — onto
// homogeneous clusters, choosing for every task a processor count, a
// processor set and a start time so that the makespan is minimized.
//
// The package re-exports the building blocks from internal packages:
//
//   - task graphs and cluster models (NewTaskGraph, Cluster),
//   - speedup profiles (Downey, Amdahl, Linear, NewTable),
//   - the LoC-MPS scheduler and every baseline from the paper's
//     evaluation (NewLoCMPS, NewICASLB, NewCPR, ... or ByName),
//   - the discrete-event cluster simulator (Execute, Run),
//   - workload generators (Synthetic, Strassen, CCSDT1),
//   - experiment drivers regenerating each figure of the paper
//     (Fig4 ... Fig11).
//
// See examples/quickstart for a complete end-to-end program.
package locmps

import (
	"context"
	"io"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/sched"
	"locmps/internal/schedule"
	"locmps/internal/sim"
	"locmps/internal/speedup"
)

// Core model types.
type (
	// Task is one malleable vertex of the application DAG.
	Task = model.Task
	// Edge is a precedence constraint carrying a data volume in bytes.
	Edge = model.Edge
	// TaskGraph is the weighted application DAG.
	TaskGraph = model.TaskGraph
	// Cluster is the homogeneous machine model: P nodes, single-port NICs
	// with a given bandwidth, with or without computation/communication
	// overlap.
	Cluster = model.Cluster
	// ProfileSpec is the serializable description of a speedup profile.
	ProfileSpec = model.ProfileSpec
)

// Speedup profiles.
type (
	// Profile maps processor count to execution time.
	Profile = speedup.Profile
	// Downey is Downey's speedup model (parameters A, sigma).
	Downey = speedup.Downey
	// Amdahl is the fixed-serial-fraction model.
	Amdahl = speedup.Amdahl
	// Linear is the perfectly scalable profile.
	Linear = speedup.Linear
	// Table is a measured (profiled) execution-time table.
	Table = speedup.Table
)

// Schedules.
type (
	// Schedule is the output of a scheduler: placements, makespan,
	// charged communication and scheduling wall-clock time.
	Schedule = schedule.Schedule
	// Placement is one task's processor set and time window.
	Placement = schedule.Placement
	// Scheduler is implemented by every algorithm in this module.
	Scheduler = schedule.Scheduler
	// Engine is the full algorithm interface: Scheduler plus cooperative
	// cancellation (ScheduleContext) and capability flags. Every algorithm
	// in this module implements it.
	Engine = schedule.Engine
	// EngineCapabilities are an Engine's static capability flags
	// (anytime, incremental, concurrent-safe).
	EngineCapabilities = schedule.Capabilities
)

// Simulator types.
type (
	// SimOptions configure the discrete-event execution (noise, seed).
	SimOptions = sim.Options
	// SimResult reports a simulated execution.
	SimResult = sim.Result
)

// NewTaskGraph builds and validates a task graph.
func NewTaskGraph(tasks []Task, edges []Edge) (*TaskGraph, error) {
	return model.NewTaskGraph(tasks, edges)
}

// ReadTaskGraph parses the JSON task-graph format (see WriteJSON on
// TaskGraph for the schema).
func ReadTaskGraph(r io.Reader) (*TaskGraph, error) { return model.ReadJSON(r) }

// NewDowney validates and returns a Downey profile.
func NewDowney(t1, a, sigma float64) (Downey, error) { return speedup.NewDowney(t1, a, sigma) }

// NewAmdahl validates and returns an Amdahl profile.
func NewAmdahl(t1, f float64) (Amdahl, error) { return speedup.NewAmdahl(t1, f) }

// NewTable validates and returns a table profile (times[0] is the
// uniprocessor time).
func NewTable(times []float64) (Table, error) { return speedup.NewTable(times) }

// RunMetrics is a per-run snapshot of the LoC-MPS search layer's work:
// look-ahead iterations, placement-engine invocations, allocation-vector
// memo hits/misses and incremental-resume accounting.
type RunMetrics = model.RunMetrics

// SearchMetrics returns the most recent Schedule call's RunMetrics for
// schedulers that record them (LoC-MPS and its variants); ok is false for
// the baselines, which have no iterative search layer.
func SearchMetrics(s Scheduler) (m RunMetrics, ok bool) {
	if rec, ok := s.(interface{ LastRunMetrics() model.RunMetrics }); ok {
		return rec.LastRunMetrics(), true
	}
	return RunMetrics{}, false
}

// NewLoCMPS returns the paper's algorithm: locality conscious mixed
// parallel allocation and scheduling with backfilling and bounded
// look-ahead.
func NewLoCMPS() Scheduler { return core.New() }

// NewLoCMPSParallel returns NewLoCMPS() and ignores workers.
//
// Deprecated: LoC-MPS scans candidate slots serially, so there is no pool
// to size. The function remains only because the frozen e2ebench module
// still calls it.
func NewLoCMPSParallel(workers int) Scheduler { return NewLoCMPS() }

// NewLoCMPSReference returns LoC-MPS with every cross-run acceleration
// switched off: no allocation-vector memo and no incremental placement
// resume. It computes bit-identical
// schedules to NewLoCMPS by the direct (re-run everything) route, so it
// serves as the correctness oracle in differential tests and as the
// measurement baseline when cmd/benchjson re-baselines a case.
func NewLoCMPSReference() Scheduler { return core.NewReference() }

// NewLoCMPSNoBackfill returns the cheaper frontier-only variant of Fig 6.
func NewLoCMPSNoBackfill() Scheduler { return core.NewNoBackfill() }

// NewICASLB returns the authors' earlier communication-blind algorithm.
func NewICASLB() Scheduler { return core.NewICASLB() }

// NewCPR returns the Critical Path Reduction baseline.
func NewCPR() Scheduler { return sched.CPR{} }

// NewCPA returns the Critical Path and Allocation baseline.
func NewCPA() Scheduler { return sched.CPA{} }

// NewTaskParallel returns the pure task-parallel baseline (one processor
// per task).
func NewTaskParallel() Scheduler { return sched.Task{} }

// NewDataParallel returns the pure data-parallel baseline (every task on
// all processors, sequentially).
func NewDataParallel() Scheduler { return sched.Data{} }

// NewOptimal returns the exhaustive branch-and-bound scheduler for tiny
// instances (up to ~8 tasks) — ground truth for optimality-gap studies.
func NewOptimal() Scheduler { return sched.Optimal{} }

// NewMHEFT returns the M-HEFT-style extra baseline: one-shot list
// scheduling with per-task greedy width selection.
func NewMHEFT() Scheduler { return sched.MHEFT{} }

// ScheduleDual runs LoC-MPS twice — from the pure task-parallel start and
// from the saturated data-parallel allocation — and returns the better
// schedule (never worse than NewLoCMPS, at about twice the cost).
func ScheduleDual(tg *TaskGraph, c Cluster) (*Schedule, error) {
	return core.New().ScheduleDual(tg, c)
}

// Budget bounds an anytime LoC-MPS search: MaxIterations caps the outer
// repeat-until rounds (deterministic — same budget, bit-identical
// schedule), Deadline stops the search at the first check point past a
// wall-clock instant. The zero value runs to natural termination.
type Budget = core.Budget

// AnytimeResult is a budget-bounded search outcome: the best complete
// schedule committed within the budget, the instance's certified makespan
// lower bound, the makespan/bound quality ratio and whether the budget
// truncated the search.
type AnytimeResult = core.AnytimeResult

// ScheduleAnytime runs the anytime LoC-MPS search under a budget,
// returning the best-so-far schedule with its quality bound. Budget
// exhaustion is reported via AnytimeResult.Truncated, never as an error;
// ctx cancellation aborts with ctx.Err(). A zero budget is exactly
// NewLoCMPS().Schedule plus the quality bound.
func ScheduleAnytime(ctx context.Context, tg *TaskGraph, c Cluster, b Budget) (*AnytimeResult, error) {
	return core.New().ScheduleBudget(ctx, tg, c, b)
}

// MakespanLowerBound is the audit oracle's instance lower bound
// max(CP@inf-P, area/P): no schedule of tg on c can have a smaller
// makespan, so makespan divided by this bound certifies schedule quality.
func MakespanLowerBound(tg *TaskGraph, c Cluster) (float64, error) {
	return core.LowerBound(tg, c)
}

// AllSchedulers returns the six algorithms of the paper's evaluation.
func AllSchedulers() []Scheduler {
	engines := sched.All()
	out := make([]Scheduler, len(engines))
	for i, e := range engines {
		out[i] = e
	}
	return out
}

// AllEngines returns the six algorithms of the paper's evaluation under
// the full Engine interface.
func AllEngines() []Engine { return sched.All() }

// EngineNames returns every registered engine name, paper figure order
// first, then the extensions (M-HEFT, LoC-MPS-NoBF, OPT).
func EngineNames() []string { return sched.Names() }

// SchedulerByName resolves "LoC-MPS", "LoC-MPS-NoBF", "iCASLB", "CPR",
// "CPA", "TASK" or "DATA".
func SchedulerByName(name string) (Scheduler, error) { return sched.ByName(name) }

// EngineByName is SchedulerByName under the full Engine interface.
func EngineByName(name string) (Engine, error) { return sched.ByName(name) }

// Execute runs a computed schedule through the discrete-event cluster
// simulator with exact single-port transfer accounting.
func Execute(tg *TaskGraph, s *Schedule, opt SimOptions) (SimResult, error) {
	return sim.Execute(tg, s, opt)
}

// Run schedules and immediately simulates, returning both artifacts.
func Run(alg Scheduler, tg *TaskGraph, c Cluster, opt SimOptions) (*Schedule, SimResult, error) {
	return sim.Run(alg, tg, c, opt)
}
