// Package portfolio races a set of scheduling engines on the same instance
// and returns the best schedule found — the algorithm-portfolio answer to
// "no single scheduler wins everywhere". The racers run concurrently on the
// shared bounded pool from internal/par; with a deadline the portfolio
// returns the best makespan committed so far (anytime-capable engines
// self-truncate at the deadline, one-shot engines are cancelled once a
// winner exists), without one it waits for every engine and picks the
// minimum.
//
// Selection is deterministic so results are cacheable: the winner is the
// minimum-makespan candidate, ties broken by the fixed order of
// Options.Engines (never by finish time). Every completed candidate is
// audited by internal/audit before it may win, and the returned winner is
// differentially checked against all completed candidates.
package portfolio

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"locmps/internal/audit"
	"locmps/internal/core"
	"locmps/internal/model"
	"locmps/internal/par"
	"locmps/internal/sched"
	"locmps/internal/schedule"
)

// Options configure one race.
type Options struct {
	// Engines are the engine names to race, resolved through the
	// internal/sched registry. The ORDER is semantic: makespan ties break
	// toward the earliest name, so the same list in the same order always
	// selects the same winner. Empty means Default().
	Engines []string
	// Deadline, when non-zero, bounds the race in wall-clock time:
	// anytime-capable engines run budget-bounded and return best-so-far,
	// and once the deadline passes the remaining one-shot engines are
	// cancelled as soon as at least one candidate has completed (first-done
	// wins when no margin remains). Zero means run every engine to
	// completion — the fully deterministic, cacheable mode.
	Deadline time.Time
	// Workers bounds racer concurrency (0 = min(len(Engines), GOMAXPROCS)).
	Workers int
}

// Candidate is one engine's outcome in a race.
type Candidate struct {
	// Engine is the registry name the candidate ran under.
	Engine string
	// Schedule is the audited result; nil when Err is set.
	Schedule *schedule.Schedule
	// Err is why the candidate produced no schedule: the engine's own
	// error, a failed audit, a panic (contained), or cancellation after
	// the deadline cut the race.
	Err error
	// Elapsed is the candidate's wall-clock scheduling time.
	Elapsed time.Duration
	// Truncated reports that an anytime engine hit the deadline and
	// returned its best-so-far schedule rather than its natural result.
	Truncated bool
}

// Result is a completed race.
type Result struct {
	// Winner is the winning engine's registry name.
	Winner string
	// Schedule is the winning schedule (minimum makespan over completed
	// candidates, ties to the earliest engine in Options.Engines).
	Schedule *schedule.Schedule
	// Candidates holds every racer's outcome, in Options.Engines order.
	Candidates []Candidate
	// Truncated reports that the deadline shaped the outcome: some
	// candidate was cancelled or self-truncated.
	Truncated bool
	// Elapsed is the whole race's wall-clock time.
	Elapsed time.Duration
}

// Default returns the default racing set: the paper's six algorithms plus
// M-HEFT — exactly sched.Extended(). OPT is excluded (exponential).
func Default() []string {
	engines := sched.Extended()
	names := make([]string, len(engines))
	for i, e := range engines {
		names[i] = e.Name()
	}
	return names
}

// anytimeEngine is the budget-bounded search entry point the LoC-MPS family
// exposes; a deadline race runs every engine that implements it budgeted.
type anytimeEngine interface {
	ScheduleBudget(ctx context.Context, tg *model.TaskGraph, c model.Cluster, b core.Budget) (*core.AnytimeResult, error)
}

// Race runs the portfolio and returns the winner. With no deadline every
// engine runs to completion and the result is deterministic (same instance,
// same engine list → bit-identical winner and schedule). With a deadline
// the result is whatever the portfolio could commit in time; at least one
// candidate is always allowed to finish, so Race returns a complete
// schedule even when the deadline has already passed on entry.
//
// An engine that errors, panics, or fails the audit cannot win; Race fails
// only when ctx is cancelled or no engine produced an audit-clean schedule.
func Race(ctx context.Context, tg *model.TaskGraph, c model.Cluster, opt Options) (*Result, error) {
	started := time.Now()
	names := opt.Engines
	if len(names) == 0 {
		names = Default()
	}
	engines := make([]schedule.Engine, len(names))
	seen := make(map[string]bool, len(names))
	for i, name := range names {
		if seen[name] {
			return nil, fmt.Errorf("portfolio: duplicate engine %q", name)
		}
		seen[name] = true
		e, err := sched.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("portfolio: %w", err)
		}
		engines[i] = e
	}

	workers := opt.Workers
	if workers <= 0 || workers > len(engines) {
		workers = len(engines)
	}
	if mp := runtime.GOMAXPROCS(0); workers > mp {
		workers = mp
	}

	raceCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		firstDone = make(chan struct{}) // closed when the first candidate completes
		allDone   = make(chan struct{}) // closed when every racer has returned
		firstOnce sync.Once
	)

	// With a deadline, a watcher cuts the race: once the deadline passes
	// AND at least one candidate has completed, the stragglers' context is
	// cancelled — best-so-far under the deadline, first-done when no
	// margin remains. The anytime engines do not need the cut (their
	// budget self-truncates); it exists to stop one-shot engines that
	// cannot return early.
	var watcherDone chan struct{}
	if !opt.Deadline.IsZero() {
		watcherDone = make(chan struct{})
		timer := time.NewTimer(time.Until(opt.Deadline))
		go func() {
			defer close(watcherDone)
			defer timer.Stop()
			select {
			case <-allDone:
				return
			case <-raceCtx.Done():
				return
			case <-timer.C:
			}
			select {
			case <-firstDone:
			case <-allDone:
			case <-raceCtx.Done():
			}
			cancel()
		}()
	}

	cands := make([]Candidate, len(engines))
	_ = par.For(workers, len(engines), func(i int) error {
		cand := runCandidate(raceCtx, engines[i], names[i], tg, c, opt.Deadline)
		cands[i] = cand
		if cand.Err == nil {
			firstOnce.Do(func() { close(firstDone) })
		}
		return nil // a failed candidate must not abort its rivals
	})
	close(allDone)
	if watcherDone != nil {
		<-watcherDone
	}

	res := &Result{Candidates: cands, Elapsed: time.Since(started)}
	for i := range cands {
		cand := &cands[i]
		if cand.Truncated || (cand.Err != nil && raceCtx.Err() != nil) {
			res.Truncated = true
		}
		if cand.Err != nil {
			continue
		}
		// Strict less: a makespan tie keeps the earlier engine, so the
		// winner is a pure function of (instance, engine list).
		if res.Schedule == nil || cand.Schedule.Makespan < res.Schedule.Makespan {
			res.Winner = cand.Engine
			res.Schedule = cand.Schedule
		}
	}
	if res.Schedule == nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for i := range cands {
			if cands[i].Err != nil {
				return nil, fmt.Errorf("portfolio: no engine produced a schedule: %s: %w",
					cands[i].Engine, cands[i].Err)
			}
		}
		return nil, fmt.Errorf("portfolio: no engines to race")
	}
	// Differential check of the selection rule itself: the committed
	// winner must not exceed any completed candidate.
	for i := range cands {
		if cands[i].Err == nil && cands[i].Schedule.Makespan < res.Schedule.Makespan {
			return nil, fmt.Errorf("portfolio: winner %s (makespan %v) beaten by %s (%v)",
				res.Winner, res.Schedule.Makespan, cands[i].Engine, cands[i].Schedule.Makespan)
		}
	}
	return res, nil
}

// runCandidate runs one engine with panic containment and audits its
// result. Anytime-capable engines run budget-bounded when a deadline is
// set; everything else runs under the race context.
func runCandidate(ctx context.Context, eng schedule.Engine, name string, tg *model.TaskGraph, c model.Cluster, deadline time.Time) (cand Candidate) {
	cand.Engine = name
	start := time.Now()
	defer func() {
		cand.Elapsed = time.Since(start)
		if r := recover(); r != nil {
			cand.Schedule, cand.Err = nil, fmt.Errorf("portfolio: engine %s panicked: %v", name, r)
		}
	}()

	if ae, ok := eng.(anytimeEngine); ok && !deadline.IsZero() {
		res, err := ae.ScheduleBudget(ctx, tg, c, core.Budget{Deadline: deadline})
		if err != nil {
			cand.Err = err
			return cand
		}
		cand.Schedule, cand.Truncated = res.Schedule, res.Truncated
	} else if cand.Schedule, cand.Err = eng.ScheduleContext(ctx, tg, c); cand.Err != nil {
		return cand
	}

	// Candidates must prove themselves before they may win: the full
	// audit oracle, with charge cross-checking for every engine that
	// records communication charges (all but OPT).
	if err := audit.Check(tg, cand.Schedule, audit.Options{RequireAccounting: name != "OPT"}).Err(); err != nil {
		cand.Schedule, cand.Err = nil, fmt.Errorf("portfolio: engine %s failed audit: %w", name, err)
	}
	return cand
}
