package audit

import (
	"testing"

	"locmps/internal/core"
	"locmps/internal/par"
	"locmps/internal/schedule"
)

// TestParallelSearchesBitIdenticalProperty sweeps the harness's stress
// shapes (all topologies, the full CCR range, both overlap modes) with the
// cases searched concurrently, so the optimized searches share the scratch
// pool across goroutines. Each must reproduce the reference search bit for
// bit — on the plain scheduling path and on the preset (mid-execution
// rescheduling) path with fixed placements, busy frontiers and a slowed
// node, which RunCase's differential does not cover.
func TestParallelSearchesBitIdenticalProperty(t *testing.T) {
	const cases = 30
	errs := make([]string, cases)
	err := par.For(4, cases, func(i int) error {
		errs[i] = diffAgainstReference(CaseAt(777, i))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e != "" {
			t.Errorf("case %d {%s}: %s", i, CaseAt(777, i), e)
		}
	}
}

// diffAgainstReference schedules c with the optimized and the reference
// search, plain and under a preset derived from the reference schedule,
// and describes the first divergence ("" when both paths agree).
func diffAgainstReference(c Case) string {
	tg, cl, err := c.Build()
	if err != nil {
		return "build: " + err.Error()
	}
	ref, err := core.NewReference().Schedule(tg, cl)
	if err != nil {
		return "reference: " + err.Error()
	}
	got, err := core.New().Schedule(tg, cl)
	if err != nil {
		return "optimized: " + err.Error()
	}
	if diff := DiffSchedules(tg, got, ref); diff != "" {
		return "diverged: " + diff
	}

	// Preset path: freeze the earliest-finishing third of the reference
	// schedule, busy processor 0 for a while, slow the last node.
	preset := core.Preset{
		Fixed:      map[int]schedule.Placement{},
		BusyUntil:  make([]float64, cl.P),
		NodeFactor: make([]float64, cl.P),
	}
	for p := range preset.NodeFactor {
		preset.NodeFactor[p] = 1
	}
	preset.NodeFactor[cl.P-1] = 2
	preset.BusyUntil[0] = ref.Makespan / 4
	cut := ref.Makespan / 3
	for tk := 0; tk < tg.N(); tk++ {
		if pl := ref.Placements[tk]; pl.Finish <= cut {
			preset.Fixed[tk] = pl
		}
	}
	refPre, err := core.NewReference().ScheduleWithPreset(tg, cl, preset)
	if err != nil {
		return "reference preset: " + err.Error()
	}
	gotPre, err := core.New().ScheduleWithPreset(tg, cl, preset)
	if err != nil {
		return "optimized preset: " + err.Error()
	}
	if diff := DiffSchedules(tg, gotPre, refPre); diff != "" {
		return "preset diverged: " + diff
	}
	return ""
}
