package core

import (
	"context"
	"math"
	"time"

	"locmps/internal/graph"
	"locmps/internal/model"
	"locmps/internal/schedule"
)

// Budget bounds one anytime LoC-MPS search. The zero value means "run to
// natural termination", which is exactly Schedule's behavior.
//
// The two knobs stop the search at different granularities and for
// different callers:
//
//   - MaxIterations caps the outer repeat-until rounds of Algorithm 1. The
//     round sequence is deterministic and independent of wall clock, so a
//     MaxIterations-bounded search returns the same schedule on every run
//     and on every machine — the budget tests and reproducible deployments
//     want. Each completed round only ever improves the committed best, so
//     growing the budget never worsens the result.
//   - Deadline stops the search at the first check point past the given
//     wall-clock instant (checked every look-ahead step, so the overshoot
//     is one placement run, not one round). This is the latency-SLO knob:
//     the schedule returned is whatever the search had committed by then.
//
// Both stops are graceful: the search always returns a complete, valid
// schedule — at worst the pure task-parallel start — never a partial one.
type Budget struct {
	// Deadline is the wall-clock instant past which the search stops and
	// returns its best-so-far schedule. Zero means no deadline.
	Deadline time.Time
	// MaxIterations caps outer repeat-until rounds; 0 means unbounded.
	MaxIterations int
}

// bounded reports whether the budget constrains the search at all.
func (b Budget) bounded() bool {
	return b.MaxIterations > 0 || !b.Deadline.IsZero()
}

// AnytimeResult is the outcome of a budget-bounded search: the best
// schedule found within the budget plus the quality bound that tells the
// caller how much the truncation may have cost.
type AnytimeResult struct {
	// Schedule is the best complete schedule committed within the budget.
	Schedule *schedule.Schedule
	// LowerBound is the instance's makespan lower bound
	// max(CP@inf-P, area/P): no schedule on this cluster can beat it (see
	// LowerBound). It is a property of the instance, not of the search.
	LowerBound float64
	// Ratio is Schedule.Makespan / LowerBound, always >= 1 for a correct
	// scheduler; 1 means the schedule is provably optimal. Because the
	// bound is often loose, a ratio well above 1 does not prove the
	// schedule is bad — but a ratio that stops shrinking as the budget
	// grows means more budget is buying nothing.
	Ratio float64
	// Truncated reports whether the budget stopped the search before its
	// natural termination; false means more budget could not have changed
	// the result.
	Truncated bool
}

// NewAnytimeResult assembles an AnytimeResult from an already computed
// schedule, the instance's makespan lower bound and the truncation flag.
// The serving layer uses it to rebuild results for cached deterministic
// budgeted runs without re-running the search.
func NewAnytimeResult(s *schedule.Schedule, lowerBound float64, truncated bool) *AnytimeResult {
	r := &AnytimeResult{Schedule: s, Truncated: truncated}
	r.quality(lowerBound)
	return r
}

// quality fills LowerBound/Ratio from the schedule's makespan and the
// instance bound.
func (r *AnytimeResult) quality(lb float64) {
	r.LowerBound = lb
	switch {
	case lb > 0:
		r.Ratio = r.Schedule.Makespan / lb
	case r.Schedule.Makespan == 0:
		r.Ratio = 1
	default:
		r.Ratio = math.Inf(1)
	}
}

// LowerBound is the audit oracle's makespan lower bound for an instance:
// the larger of the critical path with every task at its fastest width and
// zero communication (CP@inf-P) and the total work divided by the machine
// size (area/P, with each task contributing its minimal area
// min_p p*et(t,p)). Every valid schedule's makespan is >= this bound, so
// makespan/LowerBound is a certified quality ratio for anytime results.
func LowerBound(tg *model.TaskGraph, cluster model.Cluster) (float64, error) {
	if err := cluster.Validate(); err != nil {
		return 0, err
	}
	P := cluster.P
	tb := tg.Tables(P)
	n := tg.N()
	minEt := make([]float64, n)
	var area float64
	for t := 0; t < n; t++ {
		best := math.Inf(1)
		bestArea := math.Inf(1)
		for p := 1; p <= P; p++ {
			et := tb.ExecTime(t, p)
			if et < best {
				best = et
			}
			if a := float64(p) * et; a < bestArea {
				bestArea = a
			}
		}
		minEt[t] = best
		area += bestArea
	}
	cpInf, _, err := graph.CriticalPath(tg.DAG(),
		func(v int) float64 { return minEt[v] },
		func(u, v int) float64 { return 0 })
	if err != nil {
		return 0, err
	}
	if a := area / float64(P); a > cpInf {
		return a, nil
	}
	return cpInf, nil
}

// ScheduleBudget runs the anytime LoC-MPS search: Algorithm 1 truncated by
// the budget, returning the best-so-far schedule together with a reported
// quality bound. Budget exhaustion is not an error — the result says
// Truncated — while ctx cancellation aborts with ctx.Err() (the caller is
// gone; there is nobody to hand a best-so-far to). A zero budget runs to
// natural termination and reports Truncated == false.
//
// MaxIterations-bounded runs are deterministic: identical inputs and
// budgets yield bit-identical schedules. Deadline-bounded runs stop at a
// wall-clock-dependent round and are only guaranteed to return some prefix
// of the deterministic search's commit sequence — every such prefix is a
// complete, audit-clean schedule.
func (s *LoCMPS) ScheduleBudget(ctx context.Context, tg *model.TaskGraph, cluster model.Cluster, b Budget) (*AnytimeResult, error) {
	sched, stats, truncated, err := s.runSearch(ctx, tg, cluster, Preset{}, nil, b)
	if err != nil {
		return nil, err
	}
	s.setStats(stats)
	lb, err := LowerBound(tg, cluster)
	if err != nil {
		return nil, err
	}
	res := &AnytimeResult{Schedule: sched, Truncated: truncated}
	res.quality(lb)
	return res, nil
}
