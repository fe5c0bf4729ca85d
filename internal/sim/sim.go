// Package sim executes task graphs on a simulated homogeneous cluster, the
// substitute for the paper's Itanium-2/Myrinet testbed (Fig 11's "actual
// execution"). The simulator honours a plan's processor assignments and
// per-processor task order but recomputes all times with exact single-port
// transfer accounting:
//
//   - every inter-task redistribution is expanded into its point-to-point
//     block-cyclic transfers (internal/redist) and runs as a synchronized
//     collective: all participating ports are busy for the optimal
//     single-port schedule length, the way Prylli-style runtime
//     redistribution executes,
//   - each node's network port serves one transfer at a time,
//   - with Overlap=false the port and the CPU are one resource, so
//     communication delays computation on both endpoints,
//   - optional multiplicative runtime noise models real-machine variance,
//     and slowdown events change node speeds at points in simulated time.
//
// Execute replays a fixed schedule. Run plans with a scheduler, executes,
// and — the on-line scheduling the paper lists as future work (§VI) — may
// re-plan the unstarted tasks with the locality conscious backfill
// scheduler when observed completions drift too far from the plan. A
// re-plan keeps finished tasks where they ran (their locations determine
// data locality for everything downstream), seeds the resource chart with
// current node availability, and passes the observed node speeds so the
// planner can steer work away from degraded nodes.
package sim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/redist"
	"locmps/internal/schedule"
)

// Slowdown is a persistent change in a node's speed taking effect at a
// point in simulated time. Factor is the execution-time multiplier from
// then on (2 = half speed); Factor 1 restores nominal speed.
type Slowdown struct {
	Time   float64
	Node   int
	Factor float64
}

// Policy controls when Run re-plans.
type Policy struct {
	// DriftThreshold triggers a re-plan when a task finishes more than
	// this fraction of the planned makespan away from its planned finish
	// time, or when a slowdown takes effect before the next task starts.
	// Zero disables re-planning (static execution).
	DriftThreshold float64
	// MaxReschedules bounds the number of re-planning rounds (0 = no
	// bound).
	MaxReschedules int
	// Reallocate re-runs the full LoC-MPS allocation loop on each
	// re-plan, letting remaining tasks change processor *counts* (e.g.
	// shrink off a degraded node), not just processor sets. More
	// expensive per reschedule but far more effective when the plan used
	// wide allocations.
	Reallocate bool
}

// Options configure an execution run.
type Options struct {
	// Noise is the amplitude of multiplicative runtime noise: each task's
	// execution time is scaled by 1 + U(-Noise, +Noise). Zero gives a
	// deterministic run.
	Noise float64
	// Seed drives the noise generator.
	Seed int64
	// BlockBytes is the block-cyclic block size (0 selects
	// core.DefaultBlockBytes, the schedulers' default).
	BlockBytes float64
	// Slowdowns are the node-speed events injected during the run.
	Slowdowns []Slowdown
	// Policy is the re-planning policy; only Run can honour a non-zero
	// DriftThreshold.
	Policy Policy
}

// Result reports what happened during the simulated execution.
type Result struct {
	// Makespan is the finish time of the last task.
	Makespan float64
	// PlannedMakespan is the executed plan's makespan (the initial plan's
	// under re-planning).
	PlannedMakespan float64
	// Start and Finish are per-task actual times.
	Start, Finish []float64
	// NetworkBytes is the total volume that crossed the network.
	NetworkBytes float64
	// LocalBytes is the volume satisfied from node-local data (the
	// locality the schedule managed to exploit).
	LocalBytes float64
	// Transfers counts point-to-point messages.
	Transfers int
	// Utilization is busy processor-time over P * makespan.
	Utilization float64
	// Reschedules counts re-planning rounds that actually ran.
	Reschedules int
	// Migrated counts tasks whose processor set changed versus the
	// immediately preceding plan across all reschedules.
	Migrated int
}

// Execute runs the schedule, honouring opt's noise and slowdowns. It
// validates the schedule against the graph, so a malformed schedule is an
// error, not a bogus result. Re-planning needs a scheduler, so a
// non-zero Policy.DriftThreshold is an error here; use Run.
func Execute(tg *model.TaskGraph, s *schedule.Schedule, opt Options) (Result, error) {
	if opt.Policy.DriftThreshold != 0 {
		return Result{}, fmt.Errorf("sim: Execute cannot re-plan (drift threshold %v); use Run", opt.Policy.DriftThreshold)
	}
	return execute(tg, s, opt)
}

// Run schedules the graph with the given algorithm and executes the plan,
// re-planning the unstarted tasks as opt.Policy asks. It returns the
// initial plan and the simulated outcome. Without a policy this is the
// paper's Figure 11 pipeline.
func Run(alg schedule.Scheduler, tg *model.TaskGraph, c model.Cluster, opt Options) (*schedule.Schedule, Result, error) {
	plan, err := alg.Schedule(tg, c)
	if err != nil {
		return nil, Result{}, err
	}
	r, err := execute(tg, plan, opt)
	if err != nil {
		return nil, Result{}, err
	}
	return plan, r, nil
}

func validate(opt Options, c model.Cluster) error {
	if !(opt.Noise >= 0 && opt.Noise < 1) {
		return fmt.Errorf("sim: noise %v outside [0,1)", opt.Noise)
	}
	if !(opt.Policy.DriftThreshold >= 0) || math.IsInf(opt.Policy.DriftThreshold, 1) {
		return fmt.Errorf("sim: drift threshold %v must be finite and non-negative", opt.Policy.DriftThreshold)
	}
	if opt.Policy.MaxReschedules < 0 {
		return fmt.Errorf("sim: negative reschedule bound %d", opt.Policy.MaxReschedules)
	}
	for _, s := range opt.Slowdowns {
		if s.Node < 0 || s.Node >= c.P {
			return fmt.Errorf("sim: slowdown on node %d outside [0,%d)", s.Node, c.P)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 1) {
			return fmt.Errorf("sim: slowdown factor %v must be finite and positive", s.Factor)
		}
		if !(s.Time >= 0) || math.IsInf(s.Time, 1) {
			return fmt.Errorf("sim: slowdown time %v must be finite and non-negative", s.Time)
		}
	}
	return nil
}

// executor is the state of one simulated execution.
type executor struct {
	tg        *model.TaskGraph
	c         model.Cluster
	rm        redist.Model
	plan      *schedule.Schedule
	noise     []float64
	slowdowns []Slowdown // sorted by time
	policy    Policy

	// alg re-plans every Reallocate reschedule (created on the first);
	// the graph's model tables are built once and served from the graph's
	// cache to every round.
	alg *core.LoCMPS

	// cpu[p] is when node p's processor is next free; port[p] its NIC.
	// Without overlap the two alias the same timeline.
	cpu, port []float64
	speed     []float64 // current execution-time multiplier per node
	applied   int       // slowdowns already applied
	started   []bool
	res       Result
}

// execute validates the plan and the options and runs the plan.
func execute(tg *model.TaskGraph, plan *schedule.Schedule, opt Options) (Result, error) {
	if err := plan.Validate(tg); err != nil {
		return Result{}, fmt.Errorf("sim: %w", err)
	}
	c := plan.Cluster
	if err := validate(opt, c); err != nil {
		return Result{}, err
	}
	blockBytes := opt.BlockBytes
	if blockBytes == 0 {
		blockBytes = core.DefaultBlockBytes
	}
	// Noise factors are drawn per task in task-id order for determinism.
	rng := rand.New(rand.NewSource(opt.Seed))
	noise := make([]float64, tg.N())
	for t := range noise {
		noise[t] = 1
		if opt.Noise > 0 {
			noise[t] = 1 + opt.Noise*(2*rng.Float64()-1)
		}
	}
	e := &executor{
		tg: tg, c: c,
		rm:        redist.Model{BlockBytes: blockBytes, Bandwidth: c.Bandwidth},
		plan:      plan,
		noise:     noise,
		slowdowns: slices.Clone(opt.Slowdowns),
		policy:    opt.Policy,
		cpu:       make([]float64, c.P),
		speed:     make([]float64, c.P),
		started:   make([]bool, tg.N()),
		res: Result{
			PlannedMakespan: plan.Makespan,
			Start:           make([]float64, tg.N()),
			Finish:          make([]float64, tg.N()),
		},
	}
	slices.SortStableFunc(e.slowdowns, func(a, b Slowdown) int { return cmp.Compare(a.Time, b.Time) })
	for i := range e.speed {
		e.speed[i] = 1
	}
	e.port = e.cpu
	if c.Overlap {
		e.port = make([]float64, c.P)
	}
	if err := e.run(); err != nil {
		return Result{}, err
	}
	return e.res, nil
}

// pending lists the unstarted tasks in replay order: planned start, then
// id. This preserves each processor's task order, and in a valid plan
// every task's predecessors come before it.
func (e *executor) pending() []int {
	var order []int
	for t, done := range e.started {
		if !done {
			order = append(order, t)
		}
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(e.plan.Placements[a].Start, e.plan.Placements[b].Start), cmp.Compare(a, b))
	})
	return order
}

// run executes every task, re-planning as the policy asks.
func (e *executor) run() error {
	for order := e.pending(); len(order) > 0; {
		t := order[0]
		// Event-triggered re-planning: if a slowdown takes effect before
		// this task could start, a monitoring runtime knows about it now —
		// re-plan before committing the task to a degraded placement.
		if e.canReschedule() && e.applied < len(e.slowdowns) {
			if tent := e.earliest(t); e.slowdowns[e.applied].Time <= tent {
				e.factorAt(tent, nil) // apply the pending events
				if err := e.reschedule(); err != nil {
					return err
				}
				order = e.pending()
				continue
			}
		}
		if err := e.step(t); err != nil {
			return err
		}
		order = order[1:]
		if e.canReschedule() &&
			math.Abs(e.res.Finish[t]-e.plan.Placements[t].Finish)/e.res.PlannedMakespan > e.policy.DriftThreshold {
			if err := e.reschedule(); err != nil {
				return err
			}
			order = e.pending()
		}
	}
	if e.res.Makespan > 0 {
		var busy float64
		for t := range e.res.Start {
			busy += float64(e.plan.Placements[t].NP()) * (e.res.Finish[t] - e.res.Start[t])
		}
		e.res.Utilization = busy / (float64(e.c.P) * e.res.Makespan)
	}
	return nil
}

// earliest is when task t could start at the soonest on its planned
// processors, ignoring communication: its processors are free and its
// parents have finished.
func (e *executor) earliest(t int) float64 {
	ready := 0.0
	for _, p := range e.plan.Placements[t].Procs {
		ready = max(ready, e.cpu[p])
	}
	for _, par := range e.tg.DAG().Pred(t) {
		ready = max(ready, e.res.Finish[par])
	}
	return ready
}

// step executes task t on its planned placement. It starts once its
// processors are free and every parent's data has arrived, and runs for
// et x noise x the slowest member node's speed factor at its start.
func (e *executor) step(t int) error {
	pl := e.plan.Placements[t]
	ready := 0.0
	for _, p := range pl.Procs {
		ready = max(ready, e.cpu[p])
	}
	arrival := 0.0
	for _, par := range e.tg.DAG().Pred(t) {
		// Even fully local data needs the parent done.
		arrival = max(arrival, e.res.Finish[par])
		vol := e.tg.Volume(par, t)
		if vol == 0 {
			continue
		}
		mat, err := e.rm.TransferMatrix(vol, e.plan.Placements[par].Procs, pl.Procs)
		if err != nil {
			return fmt.Errorf("sim: edge %d->%d: %w", par, t, err)
		}
		e.res.LocalBytes += mat.Local
		if dur := e.rm.SinglePortTime(mat); dur > 0 {
			// Synchronized collective: it begins once the producer is
			// done and every participating port is free, and runs the
			// optimal single-port schedule.
			involved := map[int]struct{}{}
			for _, tr := range mat.Transfers() {
				involved[tr.Src] = struct{}{}
				involved[tr.Dst] = struct{}{}
				e.res.NetworkBytes += tr.Bytes
				e.res.Transfers++
			}
			start := e.res.Finish[par]
			for n := range involved {
				start = max(start, e.port[n])
			}
			end := start + dur
			for n := range involved {
				e.port[n] = end
			}
			arrival = max(arrival, end)
		}
	}
	start := max(ready, arrival)
	finish := start + e.tg.ExecTime(t, pl.NP())*e.noise[t]*e.factorAt(start, pl.Procs)
	for _, p := range pl.Procs {
		e.cpu[p] = finish
	}
	e.started[t] = true
	e.res.Start[t], e.res.Finish[t] = start, finish
	e.res.Makespan = max(e.res.Makespan, finish)
	return nil
}

// factorAt applies all slowdown events with Time <= t and returns the
// worst multiplier across the given nodes.
func (e *executor) factorAt(t float64, procs []int) float64 {
	for e.applied < len(e.slowdowns) && e.slowdowns[e.applied].Time <= t {
		ev := e.slowdowns[e.applied]
		e.speed[ev.Node] = ev.Factor
		e.applied++
	}
	worst := 1.0
	for _, p := range procs {
		worst = max(worst, e.speed[p])
	}
	return worst
}

func (e *executor) canReschedule() bool {
	return e.policy.DriftThreshold > 0 &&
		(e.policy.MaxReschedules == 0 || e.res.Reschedules < e.policy.MaxReschedules)
}

// reschedule re-plans every unstarted task, keeping started tasks where
// they ran and seeding the chart with current node availability and
// observed speeds.
func (e *executor) reschedule() error {
	fixed := make(map[int]schedule.Placement, e.tg.N())
	np := make([]int, e.tg.N())
	for t, pl := range e.plan.Placements {
		np[t] = pl.NP()
		if e.started[t] {
			fixed[t] = schedule.Placement{
				Procs:     pl.Procs,
				Start:     e.res.Start[t],
				Finish:    e.res.Finish[t],
				DataReady: e.res.Start[t],
			}
		}
	}
	// Per-processor availability: a node is free when its own work (and
	// port traffic) drains, regardless of the drifted task that triggered
	// the re-plan — the runtime notices a slow task while it runs, so the
	// remaining work can be re-packed onto the healthy nodes immediately.
	busy := make([]float64, e.c.P)
	for p := range busy {
		busy[p] = max(e.cpu[p], e.port[p])
	}
	preset := core.Preset{
		Fixed:      fixed,
		BusyUntil:  busy,
		NodeFactor: slices.Clone(e.speed),
	}
	cfg := core.DefaultConfig()
	cfg.BlockBytes = e.rm.BlockBytes
	var newPlan *schedule.Schedule
	var err error
	if e.policy.Reallocate {
		if e.alg == nil {
			e.alg = core.New()
			e.alg.Engine = cfg
		}
		newPlan, err = e.alg.ScheduleWithPreset(e.tg, e.c, preset)
	} else {
		newPlan, err = core.LoCBSWithPreset(e.tg, e.c, np, cfg, preset)
	}
	if err != nil {
		return fmt.Errorf("sim: reschedule: %w", err)
	}
	for t, done := range e.started {
		if !done && !slices.Equal(e.plan.Placements[t].Procs, newPlan.Placements[t].Procs) {
			e.res.Migrated++
		}
	}
	e.plan = newPlan
	e.res.Reschedules++
	return nil
}
