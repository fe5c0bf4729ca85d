package locmps

import (
	"locmps/internal/core"
	"locmps/internal/exp"
	"locmps/internal/sim"
)

// On-line rescheduling (the paper's §VI future-work direction): execute a
// task graph on the simulated cluster under runtime noise and node
// slowdowns, re-planning the remaining tasks when execution drifts from the
// plan. These are the simulator's own types under their on-line names.
type (
	// Slowdown is a persistent node-speed change at a point in time.
	Slowdown = sim.Slowdown
	// ReschedulePolicy controls when the runtime re-plans.
	ReschedulePolicy = sim.Policy
	// OnlineOptions configure an on-line run (the same type as SimOptions).
	OnlineOptions = sim.Options
	// OnlineTrace reports an on-line run (makespan, reschedules,
	// migrations, per-task times); the same type as SimResult.
	OnlineTrace = sim.Result
)

// ExecuteOnline runs the graph under the given initial scheduler, noise,
// slowdown events and rescheduling policy.
func ExecuteOnline(alg Scheduler, tg *TaskGraph, c Cluster, opt OnlineOptions) (OnlineTrace, error) {
	_, r, err := sim.Run(alg, tg, c, opt)
	return r, err
}

// ScheduleHeterogeneous runs the full LoC-MPS loop on a cluster whose
// nodes differ in speed: nodeFactor[p] is node p's execution-time
// multiplier (1 = nominal, 2 = half speed). Placement prefers faster
// nodes; task durations follow the slowest member of each group.
func ScheduleHeterogeneous(tg *TaskGraph, c Cluster, nodeFactor []float64) (*Schedule, error) {
	return core.New().ScheduleWithPreset(tg, c, core.Preset{NodeFactor: nodeFactor})
}

// Ablation sweeps for the design choices of §III (look-ahead depth,
// best-candidate window, locality/backfill knockouts, block size).
type AblationOptions = exp.AblationOptions

// DefaultAblationOptions returns a communication-heavy mid-size setup.
func DefaultAblationOptions() AblationOptions { return exp.DefaultAblationOptions() }

// AblateLookAhead sweeps the bounded look-ahead depth.
func AblateLookAhead(o AblationOptions, depths []int) (perf, times Figure, err error) {
	return exp.AblateLookAhead(o, depths)
}

// AblateCandidateWindow sweeps the §III.C top-fraction candidate window.
func AblateCandidateWindow(o AblationOptions, fractions []float64) (perf, times Figure, err error) {
	return exp.AblateCandidateWindow(o, fractions)
}

// AblateMechanisms compares full LoC-MPS against locality, backfill and
// communication-awareness knockouts.
func AblateMechanisms(o AblationOptions) (Figure, error) { return exp.AblateMechanisms(o) }

// AblateBlockSize sweeps the block-cyclic block size of the redistribution
// model.
func AblateBlockSize(o AblationOptions, blockBytes []float64) (perf, times Figure, err error) {
	return exp.AblateBlockSize(o, blockBytes)
}
