package sched

import (
	"context"

	"locmps/internal/model"
	"locmps/internal/schedule"
)

// The baseline algorithms are one-shot: they run a single construction pass
// with no budgeted search to truncate, so their ScheduleContext checks the
// context on entry and then delegates to Schedule. Only the LoC-MPS family
// (internal/core) adds a budgeted entry point, ScheduleBudget.

// ScheduleContext implements schedule.Engine.
func (a CPR) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Schedule(tg, c)
}

// ScheduleContext implements schedule.Engine.
func (a CPA) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Schedule(tg, c)
}

// ScheduleContext implements schedule.Engine.
func (a Task) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Schedule(tg, c)
}

// ScheduleContext implements schedule.Engine.
func (a Data) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Schedule(tg, c)
}

// ScheduleContext implements schedule.Engine.
func (a MHEFT) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Schedule(tg, c)
}

// ScheduleContext implements schedule.Engine.
func (o Optimal) ScheduleContext(ctx context.Context, tg *model.TaskGraph, c model.Cluster) (*schedule.Schedule, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return o.Schedule(tg, c)
}

var (
	_ schedule.Engine = CPR{}
	_ schedule.Engine = CPA{}
	_ schedule.Engine = Task{}
	_ schedule.Engine = Data{}
	_ schedule.Engine = MHEFT{}
	_ schedule.Engine = Optimal{}
)
