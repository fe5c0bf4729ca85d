package core

import (
	"context"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// Worker pins one placement scratch for its whole lifetime so that state
// which is valid across runs survives between them: the content-keyed
// redistribution cost cache (its key is the complete input of the
// computation, so entries never go stale across workloads), the per-task
// preference-order cache and every sized buffer of the placement and
// search layers. A pool-drawn scratch gives the same reuse only while the
// sync.Pool happens to return the same object; a Worker makes it a
// guarantee, which is what the serving layer's warm workers are built on.
//
// A Worker is NOT safe for concurrent use: exactly one goroutine may call
// Schedule at a time (the serving layer gives each worker goroutine its
// own). Close returns the scratch to the shared pool; the Worker must not
// be used afterwards.
type Worker struct {
	sc *placerScratch
}

// NewWorker draws a scratch from the shared pool and pins it.
func NewWorker() *Worker { return &Worker{sc: getScratch()} }

// Schedule runs alg's full LoC-MPS search on the worker's pinned scratch.
// Results are bit-identical to alg.Schedule — the scratch only carries
// buffers and never-stale caches, not decisions. alg's LastStats/
// LastRunMetrics reflect this run afterwards, exactly as for Schedule.
func (w *Worker) Schedule(alg *LoCMPS, tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	return w.ScheduleContext(context.Background(), alg, tg, cluster)
}

// ScheduleContext is Schedule with cooperative cancellation: the search
// aborts with ctx.Err() at its next round or look-ahead step once ctx is
// done, freeing the worker for its next run instead of completing a search
// nobody is waiting for.
func (w *Worker) ScheduleContext(ctx context.Context, alg *LoCMPS, tg *model.TaskGraph, cluster model.Cluster) (*schedule.Schedule, error) {
	sched, stats, _, err := alg.runSearchOn(ctx, w.sc, tg, cluster, Preset{}, nil, Budget{})
	if err != nil {
		return nil, err
	}
	alg.setStats(stats)
	return sched, nil
}

// ScheduleWithPreset runs alg's full LoC-MPS search with preset
// constraints (fixed placements, processor horizons, node factors) on the
// worker's pinned scratch. Results are bit-identical to
// alg.ScheduleWithPreset; the scratch only carries buffers and
// never-stale caches, not decisions. This is the rolling-horizon
// rescheduling entry point: the streaming simulator keeps one Worker and
// replays the preset of each event's frontier through it, so the
// content-keyed redistribution-cost cache and the memo storage stay warm
// across consecutive horizons.
func (w *Worker) ScheduleWithPreset(alg *LoCMPS, tg *model.TaskGraph, cluster model.Cluster, preset Preset) (*schedule.Schedule, error) {
	sched, stats, _, err := alg.runSearchOn(context.Background(), w.sc, tg, cluster, preset, nil, Budget{})
	if err != nil {
		return nil, err
	}
	alg.setStats(stats)
	return sched, nil
}

// ScheduleBudget runs the anytime search (see LoCMPS.ScheduleBudget) on
// the worker's pinned scratch.
func (w *Worker) ScheduleBudget(ctx context.Context, alg *LoCMPS, tg *model.TaskGraph, cluster model.Cluster, b Budget) (*AnytimeResult, error) {
	return alg.scheduleBudgetOn(ctx, w.sc, tg, cluster, b)
}

// Close surrenders the pinned scratch back to the shared pool. Calling
// Close twice is safe; Schedule after Close is not.
func (w *Worker) Close() {
	if w.sc != nil {
		putScratch(w.sc)
		w.sc = nil
	}
}
