package schedule

import (
	"context"

	"locmps/internal/model"
)

// Engine is the uniform scheduling-algorithm interface consumed by the
// serving layer, the experiment drivers and the audit harness: the basic
// Schedule entry point plus cooperative cancellation.
// Every algorithm in this module — LoC-MPS and all baselines — implements
// it; the registry in internal/sched hands out Engines by name.
//
// ScheduleContext must honor ctx cancellation: engines with an iterative
// search abort (or truncate) at their next check point and return
// ctx.Err(); one-shot engines check ctx at least on entry. A nil result
// with a nil error is never returned.
type Engine interface {
	Scheduler
	ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*Schedule, error)
}
